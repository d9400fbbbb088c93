#![warn(missing_docs)]
// R8: every truncating `as` carries a range argument (DESIGN.md §5).
#![deny(clippy::cast_possible_truncation)]

//! Disk subsystem substrate: drive models, database layouts, block
//! allocation, and an event-level I/O simulator.
//!
//! The paper's evaluation (§7) ran on a machine with 8 heterogeneous
//! physical disks and measured *actual* query execution times on Microsoft
//! SQL Server 2000. This crate replaces that testbed:
//!
//! * [`DiskSpec`] — drive characteristics exactly as the paper's problem
//!   formulation needs them (§2.1): capacity, average seek time, read and
//!   write transfer rates, and an availability class;
//! * [`Layout`] — the paper's Definition 1: an `n × m` fraction matrix
//!   `x[i][j]` assigning each object a share of each disk, with Definition
//!   2's validity checks and the FULL STRIPING constructor (footnote 1:
//!   fractions proportional to transfer rates);
//! * [`allocation`] — block-granularity placement (§2.1: "allocation is
//!   done … at the granularity of a block"): round-robin proportional fill
//!   mapping every logical object block to a `(disk, address)`;
//! * [`sim`] — the execution oracle: walks a physical plan's non-blocking
//!   sub-plans, interleaves the co-accessed objects' block streams, charges
//!   per-disk seek + transfer time, models an LRU buffer pool, read-ahead
//!   and a CPU component, and reports elapsed time per statement. It is
//!   deliberately *richer* than the advisor's analytic cost model so that
//!   cost-model validation (paper Table 2, §7.2) is a real comparison.

pub mod allocation;
pub mod bufferpool;
pub mod disk;
pub mod layout;
pub mod sim;
pub mod trace;

pub use allocation::AllocationMap;
pub use bufferpool::BufferPool;
pub use disk::{paper_disks, tempdb_disk, uniform_disks, Availability, DiskSpec};
pub use layout::{apportion, apportion_into, proportional_total, Drives, Layout, LayoutError};
pub use sim::{SimConfig, SimReport, Simulator};
