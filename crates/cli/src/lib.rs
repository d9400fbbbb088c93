#![warn(missing_docs)]

//! Command-line front-end: the paper's Figure-3 tool as a binary.
//!
//! Inputs (paper §3): a database, a workload file of weighted SQL DML
//! statements, a file listing disk drives with their characteristics, and
//! optional manageability/availability constraints. Output: the
//! recommended layout, the estimated improvement over FULL STRIPING, and
//! (optionally) the filegroup deployment script.
//!
//! ```text
//! dblayout --database tpch:0.1 --workload q.sql --disks drives.txt \
//!          [--constraints c.txt] [--k 1] [--script mydb] [--json out.json]
//! ```

pub mod constraints_file;
pub mod disks_file;
