//! Identifier-level table-name substitution.
//!
//! Figure 12's TPCH-88-N workloads are built by "randomly replac\[ing\] table
//! names in a query with one of the N copies of table names" (§7.2). A
//! plain string replace would corrupt columns (`part` inside `ps_partkey`),
//! so substitution happens on whole identifiers, skipping string literals
//! and comments.

use std::collections::HashMap;

/// Replaces every standalone identifier found in `map` (case-insensitive
/// keys, lowercased) with its mapped value. String literals pass through
/// untouched.
pub fn substitute_tables(sql: &str, map: &HashMap<String, String>) -> String {
    let bytes = sql.as_bytes();
    let mut out = String::with_capacity(sql.len() + 16);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\'' {
            // Copy the string literal verbatim (handling '' escapes).
            out.push(c);
            i += 1;
            while i < bytes.len() {
                let c = bytes[i] as char;
                out.push(c);
                i += 1;
                if c == '\'' {
                    if i < bytes.len() && bytes[i] as char == '\'' {
                        out.push('\'');
                        i += 1;
                    } else {
                        break;
                    }
                }
            }
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] as char == '_')
            {
                i += 1;
            }
            let ident = &sql[start..i];
            match map.get(&ident.to_ascii_lowercase()) {
                Some(repl) => out.push_str(repl),
                None => out.push_str(ident),
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Builds a map renaming each `table` to `table{suffix}`.
pub fn suffix_map(tables: &[&str], suffix: &str) -> HashMap<String, String> {
    tables
        .iter()
        .map(|t| (t.to_ascii_lowercase(), format!("{t}{suffix}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_whole_identifiers_only() {
        let map = suffix_map(&["part", "lineitem"], "_2");
        let out = substitute_tables(
            "SELECT ps_partkey FROM part, lineitem WHERE p_partkey = l_partkey",
            &map,
        );
        assert_eq!(
            out,
            "SELECT ps_partkey FROM part_2, lineitem_2 WHERE p_partkey = l_partkey"
        );
    }

    #[test]
    fn string_literals_untouched() {
        let map = suffix_map(&["part"], "_9");
        let out = substitute_tables(
            "SELECT * FROM part WHERE x = 'part' AND y = 'o''part'",
            &map,
        );
        assert_eq!(
            out,
            "SELECT * FROM part_9 WHERE x = 'part' AND y = 'o''part'"
        );
    }

    #[test]
    fn case_insensitive_match_preserves_replacement() {
        let map = suffix_map(&["orders"], "_1");
        let out = substitute_tables("SELECT * FROM Orders", &map);
        assert_eq!(out, "SELECT * FROM orders_1");
    }

    #[test]
    fn empty_map_is_identity() {
        let sql = "SELECT a FROM b WHERE c = 'd'";
        assert_eq!(substitute_tables(sql, &HashMap::new()), sql);
    }
}
