//! The [`Catalog`] container.

use std::collections::BTreeMap;

use crate::types::{Index, MaterializedView, ObjectId, ObjectKind, ObjectMeta, Table};

/// A database catalog: the set of objects `{R_1, …, R_n}` the advisor lays
/// out, with the statistics the planner needs.
///
/// Objects get dense [`ObjectId`]s in insertion order; lookups are
/// case-insensitive on names, like SQL Server's default collation.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    indexes: Vec<Index>,
    views: Vec<MaterializedView>,
    /// name (lowercased) -> object id
    by_name: BTreeMap<String, ObjectId>,
    /// object id -> (kind, index into the per-kind vec)
    slots: Vec<(ObjectKind, usize)>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &str, kind: ObjectKind, slot: usize) -> ObjectId {
        let id = ObjectId(self.slots.len() as u32);
        let key = name.to_ascii_lowercase();
        assert!(
            self.by_name.insert(key, id).is_none(),
            "duplicate object name `{name}`"
        );
        self.slots.push((kind, slot));
        id
    }

    /// Adds a table, returning its object id.
    ///
    /// # Panics
    /// Panics if an object with the same (case-insensitive) name exists.
    pub fn add_table(&mut self, table: Table) -> ObjectId {
        let slot = self.tables.len();
        let id = self.register(&table.name.clone(), ObjectKind::Table, slot);
        self.tables.push(table);
        id
    }

    /// Adds a nonclustered index, returning its object id.
    ///
    /// # Panics
    /// Panics if the name collides or the indexed table does not exist.
    pub fn add_index(&mut self, index: Index) -> ObjectId {
        assert!(
            self.table(&index.table).is_some(),
            "index `{}` references unknown table `{}`",
            index.name,
            index.table
        );
        let slot = self.indexes.len();
        let id = self.register(&index.name.clone(), ObjectKind::Index, slot);
        self.indexes.push(index);
        id
    }

    /// Adds a materialized view, returning its object id.
    pub fn add_view(&mut self, view: MaterializedView) -> ObjectId {
        let slot = self.views.len();
        let id = self.register(&view.name.clone(), ObjectKind::MaterializedView, slot);
        self.views.push(view);
        id
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.slots.len()
    }

    /// Case-insensitive object lookup by name.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Table lookup by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        match self.object_id(name) {
            Some(id) => match self.slots[id.index()] {
                (ObjectKind::Table, slot) => Some(&self.tables[slot]),
                _ => None,
            },
            None => None,
        }
    }

    /// Index lookup by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        match self.object_id(name) {
            Some(id) => match self.slots[id.index()] {
                (ObjectKind::Index, slot) => Some(&self.indexes[slot]),
                _ => None,
            },
            None => None,
        }
    }

    /// Materialized-view lookup by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        match self.object_id(name) {
            Some(id) => match self.slots[id.index()] {
                (ObjectKind::MaterializedView, slot) => Some(&self.views[slot]),
                _ => None,
            },
            None => None,
        }
    }

    /// All nonclustered indexes defined on `table`.
    pub fn indexes_on(&self, table: &str) -> impl Iterator<Item = &Index> {
        let table = table.to_ascii_lowercase();
        self.indexes
            .iter()
            .filter(move |i| i.table.to_ascii_lowercase() == table)
    }

    /// Metadata for one object.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn meta(&self, id: ObjectId) -> ObjectMeta {
        let (kind, slot) = self.slots[id.index()];
        let (name, size_blocks) = match kind {
            ObjectKind::Table => {
                let t = &self.tables[slot];
                (t.name.clone(), t.size_blocks())
            }
            ObjectKind::Index => {
                let i = &self.indexes[slot];
                (i.name.clone(), i.size_blocks())
            }
            ObjectKind::MaterializedView => {
                let v = &self.views[slot];
                (v.name.clone(), v.size_blocks())
            }
            ObjectKind::Temp => unreachable!("temp objects are not stored in the catalog"),
        };
        ObjectMeta {
            id,
            name,
            kind,
            size_blocks,
        }
    }

    /// Metadata for every object, ordered by id.
    pub fn objects(&self) -> Vec<ObjectMeta> {
        (0..self.slots.len())
            .map(|i| self.meta(ObjectId(i as u32)))
            .collect()
    }

    /// All tables, in insertion order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All indexes, in insertion order.
    pub fn all_indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Total database size in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.objects().iter().map(|o| o.size_blocks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ColType, Column};

    fn table(name: &str, rows: u64) -> Table {
        Table {
            name: name.into(),
            columns: vec![Column::new("k", ColType::Int, rows)],
            row_count: rows,
            row_bytes: 100,
            clustered_on: vec!["k".into()],
        }
    }

    #[test]
    fn ids_are_dense_insertion_order() {
        let mut c = Catalog::new();
        let a = c.add_table(table("a", 10));
        let b = c.add_table(table("b", 10));
        assert_eq!(a, ObjectId(0));
        assert_eq!(b, ObjectId(1));
        assert_eq!(c.object_count(), 2);
    }

    #[test]
    fn lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.add_table(table("LineItem", 10));
        assert!(c.table("lineitem").is_some());
        assert_eq!(c.object_id("LINEITEM"), Some(ObjectId(0)));
    }

    #[test]
    #[should_panic(expected = "duplicate object name")]
    fn duplicate_name_panics() {
        let mut c = Catalog::new();
        c.add_table(table("a", 10));
        c.add_table(table("A", 10));
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn index_on_missing_table_panics() {
        let mut c = Catalog::new();
        c.add_index(Index {
            name: "i".into(),
            table: "ghost".into(),
            key_columns: vec!["k".into()],
            entry_bytes: 16,
            row_count: 10,
        });
    }

    #[test]
    fn meta_reports_size() {
        let mut c = Catalog::new();
        let id = c.add_table(table("a", 100_000));
        let m = c.meta(id);
        assert_eq!(m.kind, ObjectKind::Table);
        assert!(m.size_blocks > 0);
        assert_eq!(m.name, "a");
    }

    #[test]
    fn indexes_on_filters_by_table() {
        let mut c = Catalog::new();
        c.add_table(table("a", 10));
        c.add_table(table("b", 10));
        c.add_index(Index {
            name: "ia".into(),
            table: "a".into(),
            key_columns: vec!["k".into()],
            entry_bytes: 16,
            row_count: 10,
        });
        assert_eq!(c.indexes_on("a").count(), 1);
        assert_eq!(c.indexes_on("b").count(), 0);
    }

    #[test]
    fn mixed_kinds_share_id_space() {
        let mut c = Catalog::new();
        c.add_table(table("a", 10));
        c.add_index(Index {
            name: "ia".into(),
            table: "a".into(),
            key_columns: vec!["k".into()],
            entry_bytes: 16,
            row_count: 10,
        });
        c.add_view(MaterializedView {
            name: "v".into(),
            source_tables: vec!["a".into()],
            row_count: 5,
            row_bytes: 50,
        });
        let objs = c.objects();
        assert_eq!(objs.len(), 3);
        assert_eq!(objs[1].kind, ObjectKind::Index);
        assert_eq!(objs[2].kind, ObjectKind::MaterializedView);
        assert!(c.total_blocks() >= 3);
    }
}
