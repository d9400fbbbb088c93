//! Workspace walking and per-file analysis context.
//!
//! The walker collects every first-party Rust source under `crates/*/src`
//! (vendored registry stand-ins under `vendor/` are deliberately out of
//! scope — they are frozen stubs, not code this workspace owns).
//!
//! Each file is lexed once into a [`FileCtx`]: the token stream, the
//! comment side channel, the `#[cfg(test)]` / `#[test]` line regions
//! (rules that exempt tests consult these), and the parsed suppression
//! directives.

use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{is_ident, is_punct, lex, Comment, Tok};
use crate::suppress::{parse_suppressions, Suppression};

/// One source file handed to the analyzer: a workspace-relative path (always
/// forward-slash separated — rules scope on it) and its text.
#[derive(Debug, Clone)]
pub struct InputFile {
    /// Workspace-relative path, e.g. `crates/server/src/engine.rs`.
    pub path: String,
    /// Full source text.
    pub text: String,
}

/// A lexed file plus everything rules need to scope their matching.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative, forward-slash path.
    pub path: String,
    /// Code tokens (comments excluded).
    pub toks: Vec<Tok>,
    /// Comment side channel.
    pub comments: Vec<Comment>,
    /// Inclusive 1-based line ranges covered by `#[cfg(test)]` items or
    /// `#[test]` functions.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed `dblayout::allow(...)` directives.
    pub suppressions: Vec<Suppression>,
}

impl FileCtx {
    /// Whether `line` falls inside test-only code.
    pub fn in_tests(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

/// Loads the workspace sources the lint pass covers: every `.rs` under
/// `crates/*/src`, in sorted order.
pub fn load_workspace(root: &Path) -> io::Result<Vec<InputFile>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "`{}` has no crates/ directory; run from the workspace root or pass --root",
                root.display()
            ),
        ));
    }
    let mut rs_paths: Vec<PathBuf> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut rs_paths)?;
        }
    }
    rs_paths.sort();
    let mut files = Vec::with_capacity(rs_paths.len());
    for p in rs_paths {
        let text = std::fs::read_to_string(&p)?;
        files.push(InputFile {
            path: relative_path(root, &p),
            text,
        });
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lexes and annotates one input file. Returns the context, or the lex
/// error message for the caller to report.
pub fn build_file_ctx(file: &InputFile) -> Result<FileCtx, String> {
    let out = lex(&file.text).map_err(|e| e.to_string())?;
    let test_regions = find_test_regions(&out.toks);
    let suppressions = parse_suppressions(&out.comments);
    Ok(FileCtx {
        path: file.path.clone(),
        toks: out.toks,
        comments: out.comments,
        test_regions,
        suppressions,
    })
}

/// Finds the line ranges of items annotated `#[cfg(test)]` or `#[test]`.
///
/// An attribute whose bracket contents mention the identifier `test` (and
/// not via `not(test)`) marks the following item — attributes are skipped,
/// then the item runs to its matching close brace (or to `;` for brace-less
/// items such as `#[cfg(test)] use ...;`).
fn find_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(is_punct(&toks[i], "#") && i + 1 < toks.len() && is_punct(&toks[i + 1], "[")) {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let (contents_start, after_attr) = match attr_span(toks, i) {
            Some(span) => span,
            None => break, // malformed tail; nothing more to mark
        };
        let contents = &toks[contents_start..after_attr - 1];
        let mentions_test = contents.iter().any(|t| is_ident(t, "test"));
        let negated = contents.iter().any(|t| is_ident(t, "not"));
        if !mentions_test || negated {
            i = after_attr;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = after_attr;
        while j + 1 < toks.len() && is_punct(&toks[j], "#") && is_punct(&toks[j + 1], "[") {
            match attr_span(toks, j) {
                Some((_, next)) => j = next,
                None => return regions,
            }
        }
        // Advance to the item body (`{`) or a brace-less item end (`;`).
        while j < toks.len() && !is_punct(&toks[j], "{") && !is_punct(&toks[j], ";") {
            j += 1;
        }
        if j >= toks.len() {
            regions.push((attr_line, toks.last().map_or(attr_line, |t| t.line)));
            break;
        }
        if is_punct(&toks[j], ";") {
            regions.push((attr_line, toks[j].line));
            i = j + 1;
            continue;
        }
        // Match the braces.
        let mut depth = 0usize;
        let mut end_line = toks[j].line;
        while j < toks.len() {
            if is_punct(&toks[j], "{") {
                depth += 1;
            } else if is_punct(&toks[j], "}") {
                depth -= 1;
                if depth == 0 {
                    end_line = toks[j].line;
                    break;
                }
            }
            j += 1;
        }
        if depth != 0 {
            end_line = toks.last().map_or(attr_line, |t| t.line);
        }
        regions.push((attr_line, end_line));
        i = j + 1;
    }
    regions
}

/// Given `toks[i] == #` and `toks[i+1] == [`, returns
/// `(contents_start, index_after_closing_bracket)`.
fn attr_span(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    let mut k = i + 1;
    while k < toks.len() {
        if is_punct(&toks[k], "[") {
            depth += 1;
        } else if is_punct(&toks[k], "]") {
            depth -= 1;
            if depth == 0 {
                return Some((i + 2, k + 1));
            }
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        build_file_ctx(&InputFile {
            path: "crates/x/src/lib.rs".into(),
            text: src.into(),
        })
        .unwrap()
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "\
fn prod() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        prod();
    }
}
";
        let c = ctx(src);
        assert!(!c.in_tests(1));
        assert!(c.in_tests(3));
        assert!(c.in_tests(7));
        assert!(c.in_tests(9));
    }

    #[test]
    fn bare_test_fn_is_a_region() {
        let src = "\
fn prod() {}
#[test]
fn t() {
    prod();
}
fn also_prod() {}
";
        let c = ctx(src);
        assert!(!c.in_tests(1));
        assert!(c.in_tests(3));
        assert!(c.in_tests(4));
        assert!(!c.in_tests(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let c = ctx("#[cfg(not(test))]\nfn prod() {\n    x();\n}\n");
        assert!(!c.in_tests(2));
        assert!(!c.in_tests(3));
    }

    #[test]
    fn attribute_stacking_is_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\n";
        let c = ctx(src);
        assert!(c.in_tests(4));
    }

    #[test]
    fn braceless_cfg_test_item() {
        let c = ctx("#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() {}\n");
        assert!(c.in_tests(2));
        assert!(!c.in_tests(3));
    }
}
