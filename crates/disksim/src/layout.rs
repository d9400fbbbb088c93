//! Database layout: the paper's Definition 1 and 2.
//!
//! A layout is "an assignment of each database object to a set of disk
//! drives along with a specification of the fraction of the object that is
//! allocated to each disk drive" — logically an `n × m` matrix of fractions
//! `x[i][j]` with the three validity constraints of §2.1:
//!
//! 1. `x[i][j] ≥ 0`;
//! 2. `Σ_j x[i][j] = 1` for every object (allocated in its entirety);
//! 3. `Σ_i |R_i|·x[i][j] ≤ C_j` for every disk (capacity).

use std::fmt;
use std::ops::Range;

use crate::disk::DiskSpec;

/// Why a layout is invalid (paper Definition 2 violations).
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutError {
    /// Some `x[i][j]` is negative or non-finite.
    BadFraction {
        /// Object index.
        object: usize,
        /// Disk index.
        disk: usize,
        /// The offending value.
        value: f64,
    },
    /// An object's fractions do not sum to 1.
    NotFullyAllocated {
        /// Object index.
        object: usize,
        /// Sum of its fractions.
        sum: f64,
    },
    /// A disk's capacity is exceeded.
    OverCapacity {
        /// Disk index.
        disk: usize,
        /// Blocks placed there.
        used: u64,
        /// Its capacity.
        capacity: u64,
    },
    /// Matrix dimensions do not match the disk set.
    DimensionMismatch {
        /// Columns in the layout.
        layout_disks: usize,
        /// Drives supplied.
        actual_disks: usize,
    },
    /// A fraction matrix has a different number of rows than there are
    /// objects.
    ObjectCountMismatch {
        /// Fraction rows supplied.
        rows: usize,
        /// Object sizes supplied.
        objects: usize,
    },
    /// A fraction row is not as long as the first row.
    RaggedRow {
        /// Object index of the offending row.
        object: usize,
        /// Its length.
        len: usize,
        /// The first row's length (the layout's disk count).
        expected: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::BadFraction {
                object,
                disk,
                value,
            } => {
                write!(f, "x[{object}][{disk}] = {value} is not a valid fraction")
            }
            LayoutError::NotFullyAllocated { object, sum } => {
                write!(f, "object {object} allocates {sum} of itself (must be 1)")
            }
            LayoutError::OverCapacity {
                disk,
                used,
                capacity,
            } => {
                write!(f, "disk {disk} holds {used} blocks > capacity {capacity}")
            }
            LayoutError::DimensionMismatch {
                layout_disks,
                actual_disks,
            } => write!(
                f,
                "layout has {layout_disks} disk columns but {actual_disks} drives were supplied"
            ),
            LayoutError::ObjectCountMismatch { rows, objects } => write!(
                f,
                "layout has {rows} fraction rows but {objects} object sizes were supplied"
            ),
            LayoutError::RaggedRow {
                object,
                len,
                expected,
            } => write!(
                f,
                "fraction row {object} has {len} disk columns but row 0 has {expected}"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Splits `size` blocks across weights by largest-remainder apportionment so
/// the shares sum exactly to `size`. Weights must be non-negative; an
/// all-zero weight vector yields all-zero shares.
pub fn apportion(size: u64, fractions: &[f64]) -> Vec<u64> {
    let mut shares = Vec::with_capacity(fractions.len());
    apportion_into(size, fractions, &mut shares, &mut Vec::new());
    shares
}

/// [`apportion`] into caller-owned buffers: `shares` receives the result
/// (cleared first), `scratch` holds the remainder table. The search's
/// incremental validity check runs this once per moved object per
/// candidate, so the allocation-free form matters; the arithmetic is the
/// allocating path's, bit for bit ([`apportion`] delegates here).
pub fn apportion_into(
    size: u64,
    fractions: &[f64],
    shares: &mut Vec<u64>,
    scratch: &mut Vec<(usize, f64)>,
) {
    shares.clear();
    scratch.clear();
    let total: f64 = fractions.iter().sum();
    if total <= 0.0 || size == 0 {
        shares.resize(fractions.len(), 0);
        return;
    }
    let mut assigned = 0u64;
    for (j, &w) in fractions.iter().enumerate() {
        let exact = size as f64 * (w / total);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "largest-remainder apportionment: exact is in [0, size], flooring is the method"
        )]
        let floor = exact.floor() as u64;
        shares.push(floor);
        assigned += floor;
        scratch.push((j, exact - floor as f64));
    }
    // Hand out the leftover blocks to the largest remainders (ties by index
    // for determinism).
    scratch.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut left = size - assigned;
    for &(j, _) in scratch.iter() {
        if left == 0 {
            break;
        }
        shares[j] += 1;
        left -= 1;
    }
}

/// Whether the Figure-7 kernel visits a drive holding fraction `x`: it
/// skips exactly the fractions with `x <= 0.0`, so NaN counts as occupied.
#[inline]
fn occupies(x: f64) -> bool {
    x > 0.0 || x.is_nan()
}

/// The rate total [`Layout::place_proportional`] divides by: the read
/// rates of `disk_ids`, summed in order. Two placements with equal totals
/// give every drive they share the same fraction, bit for bit.
pub fn proportional_total(disk_ids: impl IntoIterator<Item = usize>, specs: &[DiskSpec]) -> f64 {
    disk_ids.into_iter().map(|j| specs[j].read_mb_s).sum()
}

/// Ascending drive ids of the set bits in an occupancy bitset (bit `j % 64`
/// of word `j / 64` stands for drive `j`) — see [`Layout::occupancy`].
#[derive(Debug, Clone)]
pub struct Drives<'a> {
    rest: &'a [u64],
    word: u64,
    base: usize,
}

impl<'a> Drives<'a> {
    /// Iterates the set bits of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        let (&word, rest) = words.split_first().unwrap_or((&0, &[]));
        Self {
            rest,
            word,
            base: 0,
        }
    }
}

impl Iterator for Drives<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.word = word;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// A database layout (paper Definition 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// `fractions[i][j]` = share of object `i` on disk `j`.
    fractions: Vec<Vec<f64>>,
    /// `|R_i|` in blocks.
    object_sizes: Vec<u64>,
    /// The occupancy index: row `i` is `words` bitset words whose bit `j`
    /// is set iff object `i` occupies drive `j` (`!(x[i][j] <= 0.0)`).
    /// One flat vector rather than one per row, because the search clones
    /// the layout into every iteration's snapshot. Every mutator keeps it
    /// current.
    occupancy: Vec<u64>,
    /// Bitset words per row: `⌈disks / 64⌉`.
    words: usize,
}

impl Layout {
    /// Adopts `fractions` (rows of equal length) and builds the occupancy
    /// index with one scan.
    fn indexed(object_sizes: Vec<u64>, fractions: Vec<Vec<f64>>) -> Self {
        let words = fractions.first().map_or(0, |r| r.len().div_ceil(64));
        let mut occupancy = vec![0u64; fractions.len() * words];
        for (row, bits) in fractions.iter().zip(occupancy.chunks_mut(words.max(1))) {
            for (j, &x) in row.iter().enumerate() {
                if occupies(x) {
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
        }
        Self {
            fractions,
            object_sizes,
            occupancy,
            words,
        }
    }

    /// An all-zero (entirely unallocated — invalid) layout to be filled via
    /// [`Layout::place`].
    pub fn empty(object_sizes: Vec<u64>, disks: usize) -> Self {
        let n = object_sizes.len();
        Self::indexed(object_sizes, vec![vec![0.0; disks]; n])
    }

    /// Rebuilds a layout from raw fraction rows, adopting each row
    /// bit-for-bit with **no renormalization** — the exact inverse of
    /// reading [`Layout::fractions_of`] row by row. This is what a
    /// serialized layout (e.g. a `dblayout-audit` decision record) needs
    /// to round-trip bit-identically; [`Layout::place`] would divide by
    /// the row sum and perturb the last bits. Only the matrix shape is
    /// checked here; call [`Layout::validate`] for Definition-2 validity.
    pub fn from_fractions(
        object_sizes: Vec<u64>,
        fractions: Vec<Vec<f64>>,
    ) -> Result<Self, LayoutError> {
        if fractions.len() != object_sizes.len() {
            return Err(LayoutError::ObjectCountMismatch {
                rows: fractions.len(),
                objects: object_sizes.len(),
            });
        }
        let disks = fractions.first().map_or(0, |r| r.len());
        for (object, row) in fractions.iter().enumerate() {
            if row.len() != disks {
                return Err(LayoutError::RaggedRow {
                    object,
                    len: row.len(),
                    expected: disks,
                });
            }
        }
        Ok(Self::indexed(object_sizes, fractions))
    }

    /// FULL STRIPING: every object striped across all drives with fractions
    /// proportional to read transfer rates (paper §6 footnote 1).
    pub fn full_striping(object_sizes: Vec<u64>, disks: &[DiskSpec]) -> Self {
        let total_rate: f64 = disks.iter().map(|d| d.read_mb_s).sum();
        let row: Vec<f64> = disks.iter().map(|d| d.read_mb_s / total_rate).collect();
        let n = object_sizes.len();
        Self::indexed(object_sizes, vec![row; n])
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.object_sizes.len()
    }

    /// Number of disk columns.
    pub fn disk_count(&self) -> usize {
        self.fractions.first().map_or(0, |r| r.len())
    }

    /// `|R_i|` in blocks.
    pub fn object_size(&self, object: usize) -> u64 {
        self.object_sizes[object]
    }

    /// All object sizes.
    pub fn object_sizes(&self) -> &[u64] {
        &self.object_sizes
    }

    /// `x[i][j]`.
    pub fn fraction(&self, object: usize, disk: usize) -> f64 {
        self.fractions[object][disk]
    }

    /// The full fraction row of an object.
    pub fn fractions_of(&self, object: usize) -> &[f64] {
        &self.fractions[object]
    }

    /// `object`'s row of the occupancy index: `⌈disks / 64⌉` words, where
    /// bit `j % 64` of word `j / 64` is set iff `!(x[object][j] <= 0.0)` —
    /// exactly the drives the Figure-7 kernel does not skip (NaN
    /// included). Iterate it with [`Drives`].
    pub fn occupancy(&self, object: usize) -> &[u64] {
        &self.occupancy[self.row_words(object)]
    }

    /// Where `object`'s row sits in the flat occupancy index.
    fn row_words(&self, object: usize) -> Range<usize> {
        object * self.words..(object + 1) * self.words
    }

    /// The drives `object` occupies (see [`Layout::occupancy`]), ascending.
    pub fn occupied(&self, object: usize) -> Drives<'_> {
        Drives::new(self.occupancy(object))
    }

    /// `object`'s fraction on `disk` if it occupies the drive (its bit in
    /// [`Layout::occupancy`] is set), else `None`.
    #[inline]
    pub fn share(&self, object: usize, disk: usize) -> Option<f64> {
        let x = self.fractions[object][disk];
        occupies(x).then_some(x)
    }

    /// Zeroes `object`'s row and its occupancy bits.
    fn clear_row(&mut self, object: usize) {
        self.fractions[object].fill(0.0);
        let words = self.row_words(object);
        self.occupancy[words].fill(0);
    }

    /// Writes `x[object][disk] = x` and its occupancy bit.
    #[inline]
    fn set(&mut self, object: usize, disk: usize, x: f64) {
        self.fractions[object][disk] = x;
        let word = &mut self.occupancy[object * self.words + disk / 64];
        let bit = 1u64 << (disk % 64);
        if occupies(x) {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Places `object` on `disks` with the given relative weights
    /// (normalized internally). Weights of zero drop a disk.
    ///
    /// # Panics
    /// Panics if all weights are zero or any is negative.
    pub fn place(&mut self, object: usize, disks: &[(usize, f64)]) {
        let total: f64 = disks.iter().map(|&(_, w)| w).sum();
        assert!(
            total > 0.0 && disks.iter().all(|&(_, w)| w >= 0.0),
            "placement weights must be non-negative with a positive sum"
        );
        self.clear_row(object);
        for &(j, w) in disks {
            self.set(object, j, w / total);
        }
    }

    /// Places `object` across `disks` proportionally to their read rates
    /// (the footnote-1 rule used by both FULL STRIPING and TS-GREEDY).
    /// Allocation-free — the search's candidate loop rewrites rows with
    /// this — and bit-identical to `place` with `(id, read_mb_s)` weights.
    ///
    /// # Panics
    /// Panics if the rate sum is not positive or any rate is negative.
    pub fn place_proportional(&mut self, object: usize, disk_ids: &[usize], specs: &[DiskSpec]) {
        let total = proportional_total(disk_ids.iter().copied(), specs);
        assert!(
            total > 0.0 && disk_ids.iter().all(|&j| specs[j].read_mb_s >= 0.0),
            "placement weights must be non-negative with a positive sum"
        );
        self.clear_row(object);
        for &j in disk_ids {
            self.set(object, j, specs[j].read_mb_s / total);
        }
    }

    /// Overwrites `object`'s fraction row with the same row of `other`.
    ///
    /// This is the restore half of the search's scratch-trial idiom: a
    /// candidate move rewrites one group's rows in a reused layout, and
    /// this puts the base placement back without reallocating.
    ///
    /// # Panics
    /// Panics if the two layouts have different disk counts.
    pub fn copy_row_from(&mut self, other: &Layout, object: usize) {
        self.fractions[object].copy_from_slice(&other.fractions[object]);
        let words = self.row_words(object);
        self.occupancy[words].copy_from_slice(other.occupancy(object));
    }

    /// The disks holding any part of `object`.
    pub fn disks_of(&self, object: usize) -> Vec<usize> {
        self.fractions[object]
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0.0)
            .map(|(j, _)| j)
            .collect()
    }

    /// Exact block counts of `object` per disk (largest-remainder
    /// apportionment of `|R_i|` over the fraction row; sums to `|R_i|`).
    pub fn blocks_on(&self, object: usize) -> Vec<u64> {
        apportion(self.object_sizes[object], &self.fractions[object])
    }

    /// [`Layout::blocks_on`] into caller-owned buffers — see
    /// [`apportion_into`] for the buffer contract and identity guarantee.
    pub fn blocks_on_into(
        &self,
        object: usize,
        shares: &mut Vec<u64>,
        scratch: &mut Vec<(usize, f64)>,
    ) {
        apportion_into(
            self.object_sizes[object],
            &self.fractions[object],
            shares,
            scratch,
        );
    }

    /// Total blocks each disk holds under this layout.
    pub fn disk_usage(&self) -> Vec<u64> {
        let m = self.disk_count();
        let mut usage = vec![0u64; m];
        for i in 0..self.object_count() {
            for (j, b) in self.blocks_on(i).into_iter().enumerate() {
                usage[j] += b;
            }
        }
        usage
    }

    /// The per-row half of [`Layout::validate`] for one object.
    fn row_error(&self, object: usize) -> Option<LayoutError> {
        let mut sum = 0.0;
        for (j, &f) in self.fractions[object].iter().enumerate() {
            if !f.is_finite() || !(0.0..=1.0 + 1e-9).contains(&f) {
                return Some(LayoutError::BadFraction {
                    object,
                    disk: j,
                    value: f,
                });
            }
            sum += f;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Some(LayoutError::NotFullyAllocated { object, sum });
        }
        None
    }

    /// Whether `object`'s row alone passes Definition 2 (valid fractions
    /// summing to 1). The same check [`Layout::validate`] applies per row,
    /// exposed so incremental validity checks (which re-examine only the
    /// rows a candidate move rewrote) agree with the full scan bit for bit.
    pub fn row_is_valid(&self, object: usize) -> bool {
        self.row_error(object).is_none()
    }

    /// Checks Definition 2 validity against `disks`.
    pub fn validate(&self, disks: &[DiskSpec]) -> Result<(), LayoutError> {
        if self.disk_count() != disks.len() {
            return Err(LayoutError::DimensionMismatch {
                layout_disks: self.disk_count(),
                actual_disks: disks.len(),
            });
        }
        for i in 0..self.object_count() {
            if let Some(e) = self.row_error(i) {
                return Err(e);
            }
        }
        for (j, (&used, spec)) in self.disk_usage().iter().zip(disks).enumerate() {
            if used > spec.capacity_blocks {
                return Err(LayoutError::OverCapacity {
                    disk: j,
                    used,
                    capacity: spec.capacity_blocks,
                });
            }
        }
        Ok(())
    }

    /// Blocks that must be written to new locations to turn `from` into
    /// `self` — the data-movement metric for the paper's incremental
    /// manageability constraint (§2.3.1).
    pub fn data_movement_from(&self, from: &Layout) -> u64 {
        assert_eq!(
            self.object_sizes, from.object_sizes,
            "same objects required"
        );
        let mut moved = 0u64;
        for i in 0..self.object_count() {
            let new = self.blocks_on(i);
            let old = from.blocks_on(i);
            for (n, o) in new.iter().zip(old.iter()) {
                moved += n.saturating_sub(*o);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::uniform_disks;

    fn disks3() -> Vec<DiskSpec> {
        uniform_disks(3, 1_000, 10.0, 20.0)
    }

    #[test]
    fn apportion_into_matches_apportion_with_reused_buffers() {
        let mut shares = Vec::new();
        let mut scratch = Vec::new();
        for size in [0u64, 1, 7, 100, 999] {
            for fractions in [vec![0.3, 0.3, 0.4], vec![0.0, 0.0], vec![1.0]] {
                apportion_into(size, &fractions, &mut shares, &mut scratch);
                assert_eq!(shares, apportion(size, &fractions), "size={size}");
            }
        }
    }

    #[test]
    fn blocks_on_into_matches_blocks_on() {
        let disks = disks3();
        let layout = Layout::full_striping(vec![300, 151, 0], &disks);
        let (mut shares, mut scratch) = (Vec::new(), Vec::new());
        for i in 0..layout.object_count() {
            layout.blocks_on_into(i, &mut shares, &mut scratch);
            assert_eq!(shares, layout.blocks_on(i));
        }
    }

    #[test]
    fn apportion_sums_exactly() {
        for size in [0u64, 1, 7, 100, 999] {
            let shares = apportion(size, &[0.3, 0.3, 0.4]);
            assert_eq!(shares.iter().sum::<u64>(), size);
        }
    }

    #[test]
    fn apportion_zero_weights() {
        assert_eq!(apportion(100, &[0.0, 0.0]), vec![0, 0]);
    }

    #[test]
    fn apportion_respects_proportions() {
        let shares = apportion(100, &[1.0, 3.0]);
        assert_eq!(shares, vec![25, 75]);
    }

    #[test]
    fn full_striping_is_valid_and_uniform_on_identical_disks() {
        let disks = disks3();
        let l = Layout::full_striping(vec![300, 150], &disks);
        l.validate(&disks).unwrap();
        assert_eq!(l.blocks_on(0), vec![100, 100, 100]);
        assert_eq!(l.blocks_on(1), vec![50, 50, 50]);
    }

    #[test]
    fn full_striping_proportional_to_rates() {
        let mut disks = disks3();
        disks[0].read_mb_s = 40.0; // twice as fast as the others
        let l = Layout::full_striping(vec![400], &disks);
        let b = l.blocks_on(0);
        assert_eq!(b.iter().sum::<u64>(), 400);
        assert_eq!(b[0], 200);
        assert_eq!(b[1], 100);
    }

    #[test]
    fn place_normalizes_weights() {
        let disks = disks3();
        let mut l = Layout::empty(vec![300], 3);
        l.place(0, &[(0, 2.0), (2, 2.0)]);
        l.validate(&disks).unwrap();
        assert_eq!(l.disks_of(0), vec![0, 2]);
        assert_eq!(l.blocks_on(0), vec![150, 0, 150]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn place_rejects_zero_weights() {
        Layout::empty(vec![1], 2).place(0, &[(0, 0.0)]);
    }

    #[test]
    fn validate_catches_unallocated() {
        let l = Layout::empty(vec![10], 3);
        assert!(matches!(
            l.validate(&disks3()),
            Err(LayoutError::NotFullyAllocated { .. })
        ));
    }

    #[test]
    fn validate_catches_over_capacity() {
        let disks = disks3(); // 1000 blocks each
        let mut l = Layout::empty(vec![5_000], 3);
        l.place(0, &[(0, 1.0)]);
        assert!(matches!(
            l.validate(&disks),
            Err(LayoutError::OverCapacity { disk: 0, .. })
        ));
    }

    #[test]
    fn validate_catches_dimension_mismatch() {
        let l = Layout::empty(vec![10], 2);
        assert!(matches!(
            l.validate(&disks3()),
            Err(LayoutError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_fractions_reports_a_row_count_mismatch() {
        let err = Layout::from_fractions(vec![10, 20, 30], vec![vec![1.0, 0.0]; 2]).unwrap_err();
        assert_eq!(
            err,
            LayoutError::ObjectCountMismatch {
                rows: 2,
                objects: 3
            }
        );
        assert_eq!(
            err.to_string(),
            "layout has 2 fraction rows but 3 object sizes were supplied"
        );
    }

    #[test]
    fn from_fractions_reports_a_ragged_row() {
        let rows = vec![vec![0.5, 0.5, 0.0], vec![1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let err = Layout::from_fractions(vec![10, 20, 30], rows).unwrap_err();
        assert_eq!(
            err,
            LayoutError::RaggedRow {
                object: 1,
                len: 2,
                expected: 3
            }
        );
        assert_eq!(
            err.to_string(),
            "fraction row 1 has 2 disk columns but row 0 has 3"
        );
    }

    #[test]
    fn occupancy_follows_the_kernels_skip_test() {
        // 70 drives span two bitset words; NaN is occupied, zero, negative
        // zero and negative fractions are not.
        let mut row = vec![0.0; 70];
        row[3] = 0.25;
        row[5] = -0.0;
        row[6] = -0.5;
        row[64] = f64::NAN;
        row[69] = 0.75;
        let l = Layout::from_fractions(vec![10], vec![row]).unwrap();
        assert_eq!(l.occupancy(0).len(), 2);
        assert_eq!(l.occupied(0).collect::<Vec<_>>(), vec![3, 64, 69]);
        assert_eq!(Drives::new(&[]).count(), 0);
        assert_eq!(Drives::new(&[0, 0, 1 << 63]).collect::<Vec<_>>(), vec![191]);
    }

    #[test]
    fn data_movement_zero_for_same_layout() {
        let disks = disks3();
        let l = Layout::full_striping(vec![300, 150], &disks);
        assert_eq!(l.data_movement_from(&l), 0);
    }

    #[test]
    fn data_movement_counts_new_placement() {
        let disks = disks3();
        let a = Layout::full_striping(vec![300], &disks); // 100 each
        let mut b = Layout::empty(vec![300], 3);
        b.place(0, &[(0, 1.0)]); // all 300 on disk 0
                                 // 200 blocks must move onto disk 0.
        assert_eq!(b.data_movement_from(&a), 200);
        // And back: 100 onto each of disks 1, 2.
        assert_eq!(a.data_movement_from(&b), 200);
    }

    #[test]
    fn disk_usage_sums_objects() {
        let disks = disks3();
        let l = Layout::full_striping(vec![300, 150], &disks);
        assert_eq!(l.disk_usage(), vec![150, 150, 150]);
    }

    #[test]
    fn row_is_valid_matches_validate_per_row() {
        let disks = disks3();
        let mut l = Layout::full_striping(vec![300, 150], &disks);
        assert!(l.row_is_valid(0) && l.row_is_valid(1));
        l.place(1, &[(0, 1.0)]);
        // Corrupt row 1 only: fractions no longer sum to 1.
        let mut broken = Layout::empty(vec![300, 150], 3);
        broken.copy_row_from(&l, 0);
        assert!(broken.row_is_valid(0));
        assert!(!broken.row_is_valid(1)); // still the all-zero empty row
        assert!(matches!(
            broken.validate(&disks),
            Err(LayoutError::NotFullyAllocated { object: 1, .. })
        ));
    }

    #[test]
    fn copy_row_from_restores_the_base_placement() {
        let disks = disks3();
        let base = Layout::full_striping(vec![300, 150], &disks);
        let mut trial = base.clone();
        trial.place(0, &[(0, 1.0)]);
        assert_ne!(trial.fractions_of(0), base.fractions_of(0));
        trial.copy_row_from(&base, 0);
        assert_eq!(trial, base);
    }
}
