//! Deployment-script generation: turning a recommended [`Layout`] into the
//! filegroup DDL a DBA would run (paper §2.1 / Figure 1).
//!
//! Commercial systems express layouts through *filegroups* (SQL Server) or
//! *tablespaces* (Oracle, DB2): a filegroup is a set of files on one or
//! more drives, and each object is assigned to exactly one filegroup with
//! proportional fill across its files. A layout therefore compiles to:
//!
//! 1. one filegroup per distinct `(disk set, fraction row)` among objects,
//! 2. one file per `(filegroup, disk)` pair, sized to the blocks placed
//!    there,
//! 3. an object → filegroup assignment per object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dblayout_catalog::{Catalog, ObjectKind, BLOCK_BYTES};
use dblayout_disksim::{DiskSpec, Layout};

/// One derived filegroup.
#[derive(Debug, Clone, PartialEq)]
pub struct Filegroup {
    /// Generated name, `FG_1 …`.
    pub name: String,
    /// The disks it spans (indices into the drive list).
    pub disks: Vec<usize>,
    /// Objects assigned to it (object indices).
    pub objects: Vec<usize>,
    /// Total blocks per disk across its objects.
    pub blocks_per_disk: Vec<u64>,
}

/// A layout compiled to filegroups.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    /// Filegroups in deterministic order (largest first).
    pub filegroups: Vec<Filegroup>,
}

/// Compiles `layout` into filegroups: objects sharing a disk set (to within
/// fraction rounding) share a filegroup.
pub fn compile_filegroups(layout: &Layout) -> DeploymentPlan {
    // Key: quantized fraction row (per-mille), so objects with identical
    // placement share a group even across float noise.
    let mut groups: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
    for i in 0..layout.object_count() {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "fractions are in [0, 1], so the per-mille key is in [0, 1000]"
        )]
        let key: Vec<u32> = layout
            .fractions_of(i)
            .iter()
            .map(|f| (f * 1000.0).round() as u32)
            .collect();
        groups.entry(key).or_default().push(i);
    }
    let mut filegroups: Vec<Filegroup> = groups
        .into_values()
        .map(|objects| {
            let disks = layout.disks_of(objects[0]);
            let m = layout.disk_count();
            let mut blocks_per_disk = vec![0u64; m];
            for &i in &objects {
                for (j, b) in layout.blocks_on(i).into_iter().enumerate() {
                    blocks_per_disk[j] += b;
                }
            }
            Filegroup {
                name: String::new(),
                disks,
                objects,
                blocks_per_disk,
            }
        })
        .collect();
    // Largest filegroup first, then name them.
    filegroups.sort_by_key(|fg| std::cmp::Reverse(fg.blocks_per_disk.iter().sum::<u64>()));
    for (idx, fg) in filegroups.iter_mut().enumerate() {
        fg.name = format!("FG_{}", idx + 1);
    }
    DeploymentPlan { filegroups }
}

/// Renders a SQL Server-flavored deployment script for the plan: filegroup
/// and file DDL plus the object relocations (clustered objects move via
/// `CREATE CLUSTERED INDEX … WITH (DROP_EXISTING = ON)`; heaps and
/// nonclustered indexes via rebuild).
pub fn render_script(
    database: &str,
    catalog: &Catalog,
    layout: &Layout,
    disks: &[DiskSpec],
) -> String {
    let plan = compile_filegroups(layout);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- dblayout deployment script for database [{database}]"
    );
    let _ = writeln!(
        out,
        "-- {} filegroups over {} drives",
        plan.filegroups.len(),
        disks.len()
    );
    for fg in &plan.filegroups {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "ALTER DATABASE [{database}] ADD FILEGROUP [{}];",
            fg.name
        );
        for &j in &fg.disks {
            let mb = (fg.blocks_per_disk[j] * BLOCK_BYTES).div_ceil(1_000_000);
            let _ = writeln!(
                out,
                "ALTER DATABASE [{database}] ADD FILE (NAME = '{fg}_{disk}', \
                 FILENAME = '{disk}:\\{db}\\{fg}_{disk}.ndf', SIZE = {mb}MB) TO FILEGROUP [{fg}];",
                fg = fg.name,
                disk = disks[j].name,
                db = database,
                mb = mb
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "-- object relocations");
    for fg in &plan.filegroups {
        for &i in &fg.objects {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "layout objects mirror the catalog's objects, whose ids are u32"
            )]
            let meta = catalog.meta(dblayout_catalog::ObjectId(i as u32));
            match meta.kind {
                ObjectKind::Table => {
                    let clustered_on = catalog
                        .table(&meta.name)
                        .and_then(|t| t.clustered_on.first());
                    if let Some(key) = clustered_on {
                        let _ = writeln!(
                            out,
                            "CREATE CLUSTERED INDEX [cix_{name}] ON [{name}] ([{key}]) \
                             WITH (DROP_EXISTING = ON) ON [{fg}];",
                            name = meta.name,
                            key = key,
                            fg = fg.name
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "-- heap [{}]: rebuild onto [{}] via ALTER TABLE ... REBUILD",
                            meta.name, fg.name
                        );
                    }
                }
                ObjectKind::Index => {
                    let Some(index) = catalog.index(&meta.name) else {
                        continue;
                    };
                    let cols = index.key_columns.join("], [");
                    let _ = writeln!(
                        out,
                        "CREATE INDEX [{name}] ON [{table}] ([{cols}]) \
                         WITH (DROP_EXISTING = ON) ON [{fg}];",
                        name = meta.name,
                        table = index.table,
                        cols = cols,
                        fg = fg.name
                    );
                }
                ObjectKind::MaterializedView => {
                    let _ = writeln!(
                        out,
                        "-- materialized view [{}]: recreate its clustered index ON [{}]",
                        meta.name, fg.name
                    );
                }
                ObjectKind::Temp => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_catalog::tpch::tpch_catalog;
    use dblayout_disksim::uniform_disks;

    fn setup() -> (Catalog, Vec<DiskSpec>, Layout) {
        let catalog = tpch_catalog(0.05);
        let disks = uniform_disks(4, 400_000, 10.0, 20.0);
        let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
        let mut layout = Layout::full_striping(sizes, &disks);
        let li = catalog.object_id("lineitem").unwrap().index();
        let or = catalog.object_id("orders").unwrap().index();
        layout.place_proportional(li, &[0, 1], &disks);
        layout.place_proportional(or, &[2, 3], &disks);
        (catalog, disks, layout)
    }

    #[test]
    fn objects_with_same_placement_share_filegroup() {
        let (_, _, layout) = setup();
        let plan = compile_filegroups(&layout);
        // Three distinct placements: striped-all, {0,1}, {2,3}.
        assert_eq!(plan.filegroups.len(), 3);
        let total_objects: usize = plan.filegroups.iter().map(|f| f.objects.len()).sum();
        assert_eq!(total_objects, layout.object_count());
    }

    #[test]
    fn filegroups_named_largest_first() {
        let (_, _, layout) = setup();
        let plan = compile_filegroups(&layout);
        assert_eq!(plan.filegroups[0].name, "FG_1");
        let sizes: Vec<u64> = plan
            .filegroups
            .iter()
            .map(|f| f.blocks_per_disk.iter().sum())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn script_contains_ddl_for_every_object_and_file() {
        let (catalog, disks, layout) = setup();
        let script = render_script("tpch", &catalog, &layout, &disks);
        assert!(script.contains("ADD FILEGROUP [FG_1]"));
        assert!(script.contains("TO FILEGROUP"));
        // Every table relocates via its clustered index.
        for t in catalog.tables() {
            assert!(
                script.contains(&format!("ON [{}]", t.name)),
                "missing relocation for {}",
                t.name
            );
        }
        // Nonclustered indexes rebuilt too.
        assert!(script.contains("idx_lineitem_shipdate"));
    }

    #[test]
    fn file_sizes_cover_the_blocks() {
        let (_, disks, layout) = setup();
        let plan = compile_filegroups(&layout);
        for fg in &plan.filegroups {
            for &j in &fg.disks {
                assert!(
                    fg.blocks_per_disk[j] > 0,
                    "{} on {}",
                    fg.name,
                    disks[j].name
                );
            }
        }
    }
}
