//! Schema object model and statistics.

use crate::blocks::blocks_for_rows;

/// Identifier of a database object (table, index or materialized view)
/// within one [`crate::Catalog`]. Object ids are dense (`0..n`) so advisor
/// layouts can be indexed by them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Column data types (only what selectivity estimation needs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Fixed/variable character data with the given average length.
    Str(u16),
    /// Calendar date.
    Date,
}

/// Optimizer statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct_count: u64,
    /// Minimum value on a common numeric scale (dates use day ordinals).
    pub min: f64,
    /// Maximum value on the same scale.
    pub max: f64,
}

impl ColumnStats {
    /// Uniform stats over `[0, distinct)`.
    pub fn uniform(distinct_count: u64) -> Self {
        Self {
            distinct_count: distinct_count.max(1),
            min: 0.0,
            max: distinct_count.max(1) as f64,
        }
    }
}

/// A table column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (unique within the table, case-insensitive).
    pub name: String,
    /// Data type.
    pub col_type: ColType,
    /// Statistics.
    pub stats: ColumnStats,
}

impl Column {
    /// Builds a column with uniform stats.
    pub fn new(name: &str, col_type: ColType, distinct_count: u64) -> Self {
        Self {
            name: name.to_string(),
            col_type,
            stats: ColumnStats::uniform(distinct_count),
        }
    }

    /// Builds a column with explicit min/max range stats.
    pub fn with_range(
        name: &str,
        col_type: ColType,
        distinct_count: u64,
        min: f64,
        max: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            col_type,
            stats: ColumnStats {
                distinct_count: distinct_count.max(1),
                min,
                max,
            },
        }
    }
}

/// A base table.
///
/// If `clustered_on` is non-empty the table's heap is physically ordered by
/// those columns (SQL Server clustered index); the row data itself *is* the
/// index leaf level, so no separate object exists for a clustered index.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Row count.
    pub row_count: u64,
    /// Average row width in bytes (sum of column widths plus overhead).
    pub row_bytes: u32,
    /// Columns the heap is physically sorted by (clustered index keys).
    pub clustered_on: Vec<String>,
}

impl Table {
    /// Size of the table in allocation blocks.
    pub fn size_blocks(&self) -> u64 {
        blocks_for_rows(self.row_count, self.row_bytes)
    }

    /// Case-insensitive column lookup.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// True if the heap is physically ordered with `col` as the leading key.
    pub fn is_clustered_on(&self, col: &str) -> bool {
        self.clustered_on
            .first()
            .is_some_and(|c| c.eq_ignore_ascii_case(col))
    }
}

/// A nonclustered secondary index.
///
/// The leaf level stores key columns plus a row locator; an *index seek*
/// touches `O(matching keys)` index blocks and, unless the index covers the
/// query, one random table lookup per matching row (paper Example 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Indexed table name.
    pub table: String,
    /// Key columns, leading column first.
    pub key_columns: Vec<String>,
    /// Leaf entry width in bytes (keys + row locator).
    pub entry_bytes: u32,
    /// Number of leaf entries (= table row count).
    pub row_count: u64,
}

impl Index {
    /// Size of the index leaf level in blocks (upper levels are <1% and
    /// ignored, as in most optimizer cost models).
    pub fn size_blocks(&self) -> u64 {
        blocks_for_rows(self.row_count, self.entry_bytes)
    }
}

/// A materialized view: precomputed result treated as a read-mostly object.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedView {
    /// View name.
    pub name: String,
    /// Tables the view definition references.
    pub source_tables: Vec<String>,
    /// Materialized row count.
    pub row_count: u64,
    /// Average materialized row width.
    pub row_bytes: u32,
}

impl MaterializedView {
    /// Size in blocks.
    pub fn size_blocks(&self) -> u64 {
        blocks_for_rows(self.row_count, self.row_bytes)
    }
}

/// What kind of object an [`ObjectId`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A base table (heap or clustered).
    Table,
    /// A nonclustered index.
    Index,
    /// A materialized view.
    MaterializedView,
    /// A temporary object (sort run / hash spill in tempdb, paper §2.1 end).
    Temp,
}

/// Uniform metadata the advisor needs about any object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// The object's id.
    pub id: ObjectId,
    /// Object name (unique across the catalog).
    pub name: String,
    /// What it is.
    pub kind: ObjectKind,
    /// Total size in allocation blocks.
    pub size_blocks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        Table {
            name: "t".into(),
            columns: vec![
                Column::new("a", ColType::Int, 100),
                Column::new("b", ColType::Str(20), 50),
            ],
            row_count: 1000,
            row_bytes: 36,
            clustered_on: vec!["a".into()],
        }
    }

    #[test]
    fn table_size_blocks_positive() {
        assert!(small_table().size_blocks() >= 1);
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = small_table();
        assert!(t.column("A").is_some());
        assert!(t.column("B").is_some());
        assert!(t.column("z").is_none());
    }

    #[test]
    fn clustered_check_uses_leading_key() {
        let t = small_table();
        assert!(t.is_clustered_on("a"));
        assert!(t.is_clustered_on("A"));
        assert!(!t.is_clustered_on("b"));
    }

    #[test]
    fn index_smaller_than_table_for_narrow_keys() {
        let idx = Index {
            name: "i".into(),
            table: "t".into(),
            key_columns: vec!["a".into()],
            entry_bytes: 16,
            row_count: 1_000_000,
        };
        let t = Table {
            row_count: 1_000_000,
            row_bytes: 128,
            ..small_table()
        };
        assert!(idx.size_blocks() < t.size_blocks());
    }

    #[test]
    fn uniform_stats_clamp_zero_distinct() {
        let s = ColumnStats::uniform(0);
        assert_eq!(s.distinct_count, 1);
    }
}
