//! Manageability and availability constraints (paper §2.3).
//!
//! * `Co-Located(R_i, R_k)` — both objects must occupy exactly the same set
//!   of disks (same filegroup), e.g. for unit-of-backup manageability;
//! * `Avail-Requirement(R_i) = A` — every disk holding any part of `R_i`
//!   must have availability class `A`;
//! * data-movement bound — the recommended layout must be reachable from
//!   the current layout by moving at most `max_data_movement_blocks`
//!   (the §2.3.1 incremental-solution constraint).

use std::fmt;

use dblayout_catalog::ObjectId;
use dblayout_disksim::{Availability, DiskSpec, Layout};

/// A violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintViolation {
    /// Two co-located objects sit on different disk sets.
    NotCoLocated {
        /// First object.
        a: ObjectId,
        /// Second object.
        b: ObjectId,
    },
    /// An object touches a disk of the wrong availability class.
    AvailabilityViolated {
        /// The object.
        object: ObjectId,
        /// Offending disk.
        disk: usize,
        /// Required class.
        required: Availability,
    },
    /// Too much data movement from the current layout.
    TooMuchMovement {
        /// Blocks that would move.
        moved: u64,
        /// The configured bound.
        bound: u64,
    },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::NotCoLocated { a, b } => {
                write!(f, "objects #{} and #{} must share a disk set", a.0, b.0)
            }
            ConstraintViolation::AvailabilityViolated {
                object,
                disk,
                required,
            } => write!(
                f,
                "object #{} placed on disk {} which lacks required availability {:?}",
                object.0, disk, required
            ),
            ConstraintViolation::TooMuchMovement { moved, bound } => {
                write!(f, "layout requires moving {moved} blocks > bound {bound}")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

/// The constraint set handed to the search (all optional).
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    /// Pairs that must share identical disk sets.
    pub co_located: Vec<(ObjectId, ObjectId)>,
    /// Per-object availability requirements.
    pub avail: Vec<(ObjectId, Availability)>,
    /// Bound on blocks moved relative to `current_layout`.
    pub max_data_movement_blocks: Option<u64>,
    /// The currently deployed layout (required when a movement bound is set).
    pub current_layout: Option<Layout>,
}

impl Constraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// Declares `a` and `b` co-located.
    pub fn co_locate(mut self, a: ObjectId, b: ObjectId) -> Self {
        self.co_located.push((a, b));
        self
    }

    /// Requires availability class `req` for `object`.
    pub fn require_avail(mut self, object: ObjectId, req: Availability) -> Self {
        self.avail.push((object, req));
        self
    }

    /// Bounds data movement from `current`.
    pub fn bound_movement(mut self, current: Layout, max_blocks: u64) -> Self {
        self.current_layout = Some(current);
        self.max_data_movement_blocks = Some(max_blocks);
        self
    }

    /// True when [`Constraints::check`] accepts every layout: no
    /// co-location pair, no availability requirement, and no movement
    /// bound (a bound without a current layout is never checked).
    pub fn is_empty(&self) -> bool {
        self.co_located.is_empty()
            && self.avail.is_empty()
            && (self.max_data_movement_blocks.is_none() || self.current_layout.is_none())
    }

    /// Union-find grouping of objects by co-location: `group[i]` is the
    /// representative object index of object `i`'s co-location group.
    pub fn co_location_groups(&self, n_objects: usize) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..n_objects).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &(a, b) in &self.co_located {
            let ra = find(&mut parent, a.index());
            let rb = find(&mut parent, b.index());
            if ra != rb {
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi] = lo;
            }
        }
        (0..n_objects).map(|i| find(&mut parent, i)).collect()
    }

    /// Disks object `i` may touch (availability requirements applied).
    /// `None` means unrestricted.
    pub fn eligible_disks(&self, object: ObjectId, disks: &[DiskSpec]) -> Option<Vec<usize>> {
        let req = self
            .avail
            .iter()
            .find(|(o, _)| *o == object)
            .map(|(_, a)| *a)?;
        Some(
            disks
                .iter()
                .enumerate()
                .filter(|(_, d)| d.avail == req)
                .map(|(j, _)| j)
                .collect(),
        )
    }

    /// Checks every constraint against a concrete layout.
    pub fn check(&self, layout: &Layout, disks: &[DiskSpec]) -> Result<(), ConstraintViolation> {
        for &(a, b) in &self.co_located {
            if layout.disks_of(a.index()) != layout.disks_of(b.index()) {
                return Err(ConstraintViolation::NotCoLocated { a, b });
            }
        }
        for &(object, required) in &self.avail {
            for j in layout.disks_of(object.index()) {
                if disks[j].avail != required {
                    return Err(ConstraintViolation::AvailabilityViolated {
                        object,
                        disk: j,
                        required,
                    });
                }
            }
        }
        if let (Some(bound), Some(current)) =
            (self.max_data_movement_blocks, self.current_layout.as_ref())
        {
            let moved = layout.data_movement_from(current);
            if moved > bound {
                return Err(ConstraintViolation::TooMuchMovement { moved, bound });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_disksim::uniform_disks;

    fn disks() -> Vec<DiskSpec> {
        let mut d = uniform_disks(4, 10_000, 10.0, 20.0);
        d[0].avail = Availability::Mirroring;
        d[1].avail = Availability::Mirroring;
        d
    }

    #[test]
    fn co_location_ok_when_same_disks() {
        let mut l = Layout::empty(vec![100, 100], 4);
        l.place(0, &[(2, 1.0), (3, 1.0)]);
        l.place(1, &[(2, 1.0), (3, 2.0)]); // fractions differ, disk set same
        let c = Constraints::none().co_locate(ObjectId(0), ObjectId(1));
        c.check(&l, &disks()).unwrap();
    }

    #[test]
    fn co_location_violation_detected() {
        let mut l = Layout::empty(vec![100, 100], 4);
        l.place(0, &[(2, 1.0)]);
        l.place(1, &[(3, 1.0)]);
        let c = Constraints::none().co_locate(ObjectId(0), ObjectId(1));
        assert!(matches!(
            c.check(&l, &disks()),
            Err(ConstraintViolation::NotCoLocated { .. })
        ));
    }

    #[test]
    fn availability_enforced() {
        let mut l = Layout::empty(vec![100], 4);
        l.place(0, &[(0, 1.0), (2, 1.0)]); // disk 2 is not mirrored
        let c = Constraints::none().require_avail(ObjectId(0), Availability::Mirroring);
        assert!(matches!(
            c.check(&l, &disks()),
            Err(ConstraintViolation::AvailabilityViolated { disk: 2, .. })
        ));
        let mut ok = Layout::empty(vec![100], 4);
        ok.place(0, &[(0, 1.0), (1, 1.0)]);
        c.check(&ok, &disks()).unwrap();
    }

    #[test]
    fn is_empty_only_without_any_checked_constraint() {
        let ds = disks();
        assert!(Constraints::none().is_empty());
        assert!(!Constraints::none()
            .co_locate(ObjectId(0), ObjectId(1))
            .is_empty());
        assert!(!Constraints::none()
            .require_avail(ObjectId(0), Availability::Mirroring)
            .is_empty());
        let current = Layout::full_striping(vec![400], &ds);
        assert!(!Constraints::none().bound_movement(current, 0).is_empty());
        // A bound with no current layout is never checked.
        let unanchored = Constraints {
            max_data_movement_blocks: Some(0),
            ..Constraints::none()
        };
        assert!(unanchored.is_empty());
    }

    #[test]
    fn eligible_disks_filters_by_class() {
        let c = Constraints::none().require_avail(ObjectId(0), Availability::Mirroring);
        assert_eq!(c.eligible_disks(ObjectId(0), &disks()), Some(vec![0, 1]));
        assert_eq!(c.eligible_disks(ObjectId(1), &disks()), None);
    }

    #[test]
    fn movement_bound_enforced() {
        let ds = disks();
        let current = Layout::full_striping(vec![400], &ds);
        let mut proposed = Layout::empty(vec![400], 4);
        proposed.place(0, &[(0, 1.0)]); // move 300 blocks onto disk 0
        let c = Constraints::none().bound_movement(current.clone(), 100);
        assert!(matches!(
            c.check(&proposed, &ds),
            Err(ConstraintViolation::TooMuchMovement {
                moved: 300,
                bound: 100
            })
        ));
        let generous = Constraints::none().bound_movement(current, 500);
        generous.check(&proposed, &ds).unwrap();
    }

    #[test]
    fn groups_are_transitive() {
        let c = Constraints::none()
            .co_locate(ObjectId(0), ObjectId(1))
            .co_locate(ObjectId(1), ObjectId(2));
        let groups = c.co_location_groups(4);
        assert_eq!(groups[0], groups[1]);
        assert_eq!(groups[1], groups[2]);
        assert_ne!(groups[3], groups[0]);
    }

    #[test]
    fn empty_constraints_always_pass() {
        let ds = disks();
        let l = Layout::full_striping(vec![10, 20], &ds);
        Constraints::none().check(&l, &ds).unwrap();
    }
}
