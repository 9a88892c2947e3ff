//! Block (Cartesian) partitioning of global index spaces.
//!
//! The mesh archetype's data-distribution scheme: *partitioning the data
//! grid into regular contiguous subgrids (local sections) and distributing
//! them among processes* (§4.2). A [`ProcGrid3`] is a Cartesian arrangement of
//! processes; each rank owns one contiguous block of the global index space,
//! with blocks balanced to within one cell per axis.

use crate::error::PartitionError;

/// Balanced 1-D block decomposition: cell range owned by block `b` of `p`
/// blocks over `n` cells. The first `n % p` blocks get one extra cell.
/// Returns `lo..hi` (half-open).
///
/// Panics on an invalid block; [`try_block_range`] is the fallible form.
pub fn block_range(n: usize, p: usize, b: usize) -> (usize, usize) {
    try_block_range(n, p, b).unwrap_or_else(|e| panic!("{e}"))
}

/// [`block_range`] returning a typed error instead of panicking.
pub fn try_block_range(n: usize, p: usize, b: usize) -> Result<(usize, usize), PartitionError> {
    if p == 0 || b >= p {
        return Err(PartitionError::BlockOutOfRange { block: b, nblocks: p });
    }
    let base = n / p;
    let extra = n % p;
    let lo = b * base + b.min(extra);
    let len = base + usize::from(b < extra);
    Ok((lo, lo + len))
}

/// Inverse of [`block_range`]: which block owns global cell `i`.
///
/// Panics on an out-of-range cell; [`try_owner_block`] is the fallible form.
pub fn owner_block(n: usize, p: usize, i: usize) -> usize {
    try_owner_block(n, p, i).unwrap_or_else(|e| panic!("{e}"))
}

/// [`owner_block`] returning a typed error instead of panicking.
pub fn try_owner_block(n: usize, p: usize, i: usize) -> Result<usize, PartitionError> {
    if i >= n {
        return Err(PartitionError::CellOutOfRange { cell: i, extent: n });
    }
    let base = n / p;
    let extra = n % p;
    let fat = (base + 1) * extra; // cells covered by the fat blocks
    if base + 1 > 0 && i < fat {
        Ok(i / (base + 1))
    } else {
        Ok(extra + (i - fat) / base.max(1))
    }
}

/// One process's block in a 3-D global grid: `lo` inclusive, `hi` exclusive
/// per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block3 {
    /// Inclusive lower corner (global coordinates).
    pub lo: (usize, usize, usize),
    /// Exclusive upper corner (global coordinates).
    pub hi: (usize, usize, usize),
}

impl Block3 {
    /// The block of extent `extent` at the origin: a whole section in its
    /// own local coordinates.
    pub fn at_origin(extent: (usize, usize, usize)) -> Block3 {
        Block3 { lo: (0, 0, 0), hi: extent }
    }

    /// `self` in the local coordinates of `outer`, which must hold it.
    pub fn within(&self, outer: &Block3) -> Block3 {
        let (o, s) = (outer.lo, self);
        debug_assert!(s.lo.0 >= o.0 && s.lo.1 >= o.1 && s.lo.2 >= o.2);
        Block3 {
            lo: (s.lo.0 - o.0, s.lo.1 - o.1, s.lo.2 - o.2),
            hi: (s.hi.0 - o.0, s.hi.1 - o.1, s.hi.2 - o.2),
        }
    }

    /// Local (per-axis) extent of the block.
    pub fn extent(&self) -> (usize, usize, usize) {
        (self.hi.0 - self.lo.0, self.hi.1 - self.lo.1, self.hi.2 - self.lo.2)
    }

    /// Number of cells in the block.
    pub fn len(&self) -> usize {
        let (a, b, c) = self.extent();
        a * b * c
    }

    /// True for degenerate (empty) blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the block owns global cell `(i, j, k)`.
    pub fn contains(&self, i: usize, j: usize, k: usize) -> bool {
        (self.lo.0..self.hi.0).contains(&i)
            && (self.lo.1..self.hi.1).contains(&j)
            && (self.lo.2..self.hi.2).contains(&k)
    }

    /// Translate a global coordinate into this block's local coordinate.
    pub fn to_local(&self, i: usize, j: usize, k: usize) -> (usize, usize, usize) {
        debug_assert!(self.contains(i, j, k));
        (i - self.lo.0, j - self.lo.1, k - self.lo.2)
    }

    /// Translate a local coordinate into the global coordinate.
    pub fn to_global(&self, i: usize, j: usize, k: usize) -> (usize, usize, usize) {
        (i + self.lo.0, j + self.lo.1, k + self.lo.2)
    }
}

/// A Cartesian process topology over a 3-D global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid3 {
    /// Global grid extent.
    pub n: (usize, usize, usize),
    /// Process counts per axis; `p.0 * p.1 * p.2` ranks total.
    pub p: (usize, usize, usize),
}

impl ProcGrid3 {
    /// A topology with an explicit process arrangement.
    ///
    /// Panics on an unusable arrangement; [`ProcGrid3::try_new`] is the
    /// fallible form.
    pub fn new(n: (usize, usize, usize), p: (usize, usize, usize)) -> Self {
        Self::try_new(n, p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ProcGrid3::new`] returning a typed error instead of panicking.
    pub fn try_new(
        n: (usize, usize, usize),
        p: (usize, usize, usize),
    ) -> Result<Self, PartitionError> {
        if p.0 == 0 || p.1 == 0 || p.2 == 0 {
            return Err(PartitionError::EmptyProcessGrid);
        }
        if p.0 > n.0.max(1) || p.1 > n.1.max(1) || p.2 > n.2.max(1) {
            return Err(PartitionError::TooManyProcesses { n, p });
        }
        Ok(ProcGrid3 { n, p })
    }

    /// Choose a process arrangement for `nprocs` ranks that (greedily)
    /// minimizes total inter-block surface area — the communication volume
    /// of a boundary exchange. Deterministic, so every run of an experiment
    /// partitions identically.
    pub fn choose(n: (usize, usize, usize), nprocs: usize) -> Self {
        Self::try_choose(n, nprocs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ProcGrid3::choose`] returning a typed error instead of panicking.
    pub fn try_choose(
        n: (usize, usize, usize),
        nprocs: usize,
    ) -> Result<Self, PartitionError> {
        if nprocs == 0 {
            return Err(PartitionError::EmptyProcessGrid);
        }
        // (surface, pz, py): minimize exchange surface, then prefer long
        // contiguous rows (see the tie-break comment below).
        type Cost3 = (u128, usize, usize);
        let mut best: Option<((usize, usize, usize), Cost3)> = None;
        for px in 1..=nprocs {
            if !nprocs.is_multiple_of(px) || px > n.0 {
                continue;
            }
            let rest = nprocs / px;
            for py in 1..=rest {
                if !rest.is_multiple_of(py) || py > n.1 {
                    continue;
                }
                let pz = rest / py;
                if pz > n.2 {
                    continue;
                }
                // Surface ∝ sum over axes of (cuts on axis) × (cross-section).
                let surface = (px as u128 - 1) * (n.1 as u128 * n.2 as u128)
                    + (py as u128 - 1) * (n.0 as u128 * n.2 as u128)
                    + (pz as u128 - 1) * (n.0 as u128 * n.1 as u128);
                // Equal-surface ties (e.g. every permutation of (2, 2, 4) on
                // a cube) are broken toward cutting the slowest-varying axis:
                // z is the storage-contiguous axis, so keeping z (then y)
                // extents long preserves long unit-stride runs for stencil
                // kernels and slab pack/unpack.
                let cost = (surface, pz, py);
                if best.is_none_or(|(_, c)| cost < c) {
                    best = Some(((px, py, pz), cost));
                }
            }
        }
        let (p, _) = best.ok_or(PartitionError::NoArrangement { nprocs, n })?;
        ProcGrid3::try_new(n, p)
    }

    /// A 2-D problem embedded in the 3-D machinery (the archetype covers
    /// N = 1, 2, 3 — lower dimensions are unit-extent axes): grid
    /// `nx × ny × 1`, processes arranged only over x and y.
    pub fn for_2d(n: (usize, usize), nprocs: usize) -> Self {
        Self::choose((n.0, n.1, 1), nprocs)
    }

    /// A 1-D problem embedded in the 3-D machinery: grid `nx × 1 × 1`,
    /// processes arranged along x.
    pub fn for_1d(n: usize, nprocs: usize) -> Self {
        Self::choose((n, 1, 1), nprocs)
    }

    /// Total number of ranks.
    pub fn nprocs(&self) -> usize {
        self.p.0 * self.p.1 * self.p.2
    }

    /// Rank of process coordinates `(cx, cy, cz)` (row-major, `cz` fastest).
    pub fn rank_of(&self, c: (usize, usize, usize)) -> usize {
        debug_assert!(c.0 < self.p.0 && c.1 < self.p.1 && c.2 < self.p.2);
        (c.0 * self.p.1 + c.1) * self.p.2 + c.2
    }

    /// Process coordinates of `rank`.
    pub fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.nprocs());
        let cz = rank % self.p.2;
        let cy = (rank / self.p.2) % self.p.1;
        let cx = rank / (self.p.1 * self.p.2);
        (cx, cy, cz)
    }

    /// The block owned by `rank`.
    pub fn block(&self, rank: usize) -> Block3 {
        let (cx, cy, cz) = self.coords_of(rank);
        let (x0, x1) = block_range(self.n.0, self.p.0, cx);
        let (y0, y1) = block_range(self.n.1, self.p.1, cy);
        let (z0, z1) = block_range(self.n.2, self.p.2, cz);
        Block3 { lo: (x0, y0, z0), hi: (x1, y1, z1) }
    }

    /// Rank owning global cell `(i, j, k)`.
    pub fn owner(&self, i: usize, j: usize, k: usize) -> usize {
        let cx = owner_block(self.n.0, self.p.0, i);
        let cy = owner_block(self.n.1, self.p.1, j);
        let cz = owner_block(self.n.2, self.p.2, k);
        self.rank_of((cx, cy, cz))
    }

    /// Neighbor of `rank` one step along `axis` (0, 1 or 2) in direction
    /// `dir` (−1 or +1); `None` at the physical boundary of the grid.
    ///
    /// Panics on a bad axis; [`ProcGrid3::try_neighbor`] is the fallible
    /// form.
    pub fn neighbor(&self, rank: usize, axis: usize, dir: isize) -> Option<usize> {
        self.try_neighbor(rank, axis, dir).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ProcGrid3::neighbor`] returning a typed error for a bad axis
    /// (`Ok(None)` still means "physical boundary").
    pub fn try_neighbor(
        &self,
        rank: usize,
        axis: usize,
        dir: isize,
    ) -> Result<Option<usize>, PartitionError> {
        let mut c = self.coords_of(rank);
        let (coord, pmax) = match axis {
            0 => (&mut c.0, self.p.0),
            1 => (&mut c.1, self.p.1),
            2 => (&mut c.2, self.p.2),
            _ => return Err(PartitionError::AxisOutOfRange { axis, dims: 3 }),
        };
        let next = match coord.checked_add_signed(dir) {
            Some(next) => next,
            None => return Ok(None),
        };
        if next >= pmax {
            return Ok(None);
        }
        *coord = next;
        Ok(Some(self.rank_of(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_and_are_disjoint() {
        for n in [1usize, 5, 33, 66, 100] {
            for p in 1..=8.min(n) {
                let mut covered = vec![false; n];
                let mut prev_hi = 0;
                for b in 0..p {
                    let (lo, hi) = block_range(n, p, b);
                    assert_eq!(lo, prev_hi, "blocks contiguous");
                    assert!(hi > lo, "blocks non-empty when p <= n");
                    prev_hi = hi;
                    for c in covered.iter_mut().take(hi).skip(lo) {
                        assert!(!*c);
                        *c = true;
                    }
                }
                assert_eq!(prev_hi, n);
                assert!(covered.iter().all(|&c| c));
            }
        }
    }

    #[test]
    fn block_sizes_balanced_within_one() {
        for n in [33usize, 66, 97] {
            for p in 1..=8 {
                let sizes: Vec<usize> =
                    (0..p).map(|b| { let (lo, hi) = block_range(n, p, b); hi - lo }).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} p={p} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn owner_block_inverts_block_range() {
        for n in [7usize, 33, 66] {
            for p in 1..=6.min(n) {
                for b in 0..p {
                    let (lo, hi) = block_range(n, p, b);
                    for i in lo..hi {
                        assert_eq!(owner_block(n, p, i), b, "n={n} p={p} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn rank_coords_roundtrip() {
        let pg = ProcGrid3::new((33, 33, 33), (2, 3, 4));
        for r in 0..pg.nprocs() {
            assert_eq!(pg.rank_of(pg.coords_of(r)), r);
        }
    }

    #[test]
    fn blocks_tile_the_global_grid() {
        let pg = ProcGrid3::new((10, 9, 8), (2, 3, 2));
        let mut owned = vec![0u32; 10 * 9 * 8];
        for r in 0..pg.nprocs() {
            let b = pg.block(r);
            for i in b.lo.0..b.hi.0 {
                for j in b.lo.1..b.hi.1 {
                    for k in b.lo.2..b.hi.2 {
                        owned[(i * 9 + j) * 8 + k] += 1;
                        assert_eq!(pg.owner(i, j, k), r);
                    }
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "every cell owned exactly once");
    }

    #[test]
    fn neighbors_are_symmetric_and_boundaries_are_none() {
        let pg = ProcGrid3::new((8, 8, 8), (2, 2, 2));
        for r in 0..pg.nprocs() {
            for axis in 0..3 {
                if let Some(nb) = pg.neighbor(r, axis, 1) {
                    assert_eq!(pg.neighbor(nb, axis, -1), Some(r));
                }
            }
        }
        // Rank 0 is the low corner: no low neighbors anywhere.
        for axis in 0..3 {
            assert_eq!(pg.neighbor(0, axis, -1), None);
        }
    }

    #[test]
    fn choose_prefers_low_surface_arrangements() {
        // A long thin grid should be cut along its long axis only.
        let pg = ProcGrid3::choose((1000, 4, 4), 8);
        assert_eq!(pg.p, (8, 1, 1));
        // A cube with 8 procs: 2x2x2 beats 8x1x1.
        let pg = ProcGrid3::choose((64, 64, 64), 8);
        assert_eq!(pg.p, (2, 2, 2));
    }

    #[test]
    fn choose_breaks_surface_ties_toward_long_contiguous_rows() {
        // Every permutation of (2, 2, 4) has the same surface on a cube,
        // but they differ 2x in stencil-kernel speed: z is the contiguous
        // storage axis, so the chooser must keep z blocks longest.
        let pg = ProcGrid3::choose((66, 66, 66), 16);
        assert_eq!(pg.p, (4, 2, 2));
        let pg = ProcGrid3::choose((64, 64, 64), 4);
        assert_eq!(pg.p, (2, 2, 1));
        let pg = ProcGrid3::for_2d((32, 32), 2);
        assert_eq!(pg.p, (2, 1, 1));
    }

    #[test]
    fn lower_dimensional_embeddings() {
        let pg = ProcGrid3::for_2d((32, 32), 4);
        assert_eq!(pg.n.2, 1);
        assert_eq!(pg.p.2, 1, "no cuts along the unit axis");
        assert_eq!(pg.nprocs(), 4);
        let pg = ProcGrid3::for_1d(64, 8);
        assert_eq!(pg.p, (8, 1, 1));
        for r in 0..8 {
            assert_eq!(pg.block(r).extent(), (8, 1, 1));
        }

        let pg = ProcGrid3::for_1d(33, 4);
        for i in 0..33 {
            assert!(pg.block(pg.owner(i, 0, 0)).contains(i, 0, 0));
        }
        assert_eq!(pg.neighbor(0, 0, -1), None);
        assert_eq!(pg.neighbor(0, 0, 1), Some(1));
        assert_eq!(pg.neighbor(3, 0, 1), None);

        let pg = ProcGrid3::for_2d((100, 4), 4);
        assert_eq!(pg.p, (4, 1, 1));
        let mut owned = vec![0u32; 100 * 4];
        for r in 0..pg.nprocs() {
            let b = pg.block(r);
            for i in b.lo.0..b.hi.0 {
                for j in b.lo.1..b.hi.1 {
                    owned[i * 4 + j] += 1;
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn choose_handles_prime_counts() {
        let pg = ProcGrid3::choose((33, 33, 33), 7);
        assert_eq!(pg.nprocs(), 7);
    }

    #[test]
    fn block3_local_global_roundtrip() {
        let b = Block3 { lo: (4, 5, 6), hi: (8, 9, 10) };
        assert_eq!(b.extent(), (4, 4, 4));
        assert!(b.contains(4, 5, 6) && b.contains(7, 8, 9));
        assert!(!b.contains(8, 5, 6));
        let l = b.to_local(5, 7, 9);
        assert_eq!(l, (1, 2, 3));
        assert_eq!(b.to_global(l.0, l.1, l.2), (5, 7, 9));
    }

    #[test]
    fn fallible_forms_return_typed_errors_where_the_originals_panicked() {
        use crate::error::PartitionError;
        assert_eq!(
            try_block_range(10, 4, 4),
            Err(PartitionError::BlockOutOfRange { block: 4, nblocks: 4 })
        );
        assert_eq!(try_block_range(10, 4, 3), Ok(block_range(10, 4, 3)));
        assert_eq!(
            try_owner_block(10, 4, 10),
            Err(PartitionError::CellOutOfRange { cell: 10, extent: 10 })
        );
        assert_eq!(
            ProcGrid3::try_new((4, 4, 4), (0, 1, 1)),
            Err(PartitionError::EmptyProcessGrid)
        );
        assert_eq!(
            ProcGrid3::try_new((2, 2, 2), (3, 1, 1)),
            Err(PartitionError::TooManyProcesses { n: (2, 2, 2), p: (3, 1, 1) })
        );
        assert_eq!(
            ProcGrid3::try_choose((1, 1, 1), 5),
            Err(PartitionError::NoArrangement { nprocs: 5, n: (1, 1, 1) })
        );
        let pg = ProcGrid3::new((8, 8, 8), (2, 2, 2));
        assert_eq!(
            pg.try_neighbor(0, 3, 1),
            Err(PartitionError::AxisOutOfRange { axis: 3, dims: 3 })
        );
        assert_eq!(pg.try_neighbor(0, 0, -1), Ok(None), "boundary is not an error");
        assert_eq!(pg.try_neighbor(0, 0, 1), Ok(pg.neighbor(0, 0, 1)));
    }

    #[test]
    #[should_panic(expected = "block 4 of 4 invalid")]
    fn panicking_block_range_keeps_its_message() {
        block_range(10, 4, 4);
    }

    #[test]
    #[should_panic(expected = "axis 3 out of range")]
    fn panicking_neighbor_keeps_its_message() {
        ProcGrid3::new((8, 8, 8), (2, 2, 2)).neighbor(0, 3, 1);
    }
}
