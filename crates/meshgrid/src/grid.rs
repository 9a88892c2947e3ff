//! Dense 3-D grids with ghost boundaries (1-D and 2-D problems use
//! unit-extent axes).
//!
//! Each grid has an *interior* of the stated extent plus `ghost` extra
//! layers on every side. Interior cells are addressed `0..n` per axis;
//! ghost cells at signed offsets `-ghost..0` and `n..n+ghost`. Stencil code
//! can therefore read `g[[i - 1, j, k]]` at `i == 0` without special-casing
//! the subgrid boundary — the boundary-exchange operation keeps those ghost
//! cells equal to the neighbouring process's boundary values.

use crate::partition::Block3;

/// A 3-D dense grid with ghost boundary, row-major (`z` fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    ghost: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Grid3<T> {
    /// A grid with interior extent `nx × ny × nz` and `ghost` layers per
    /// side, filled with `T::default()`.
    pub fn new(nx: usize, ny: usize, nz: usize, ghost: usize) -> Self {
        let sx = nx + 2 * ghost;
        let sy = ny + 2 * ghost;
        let sz = nz + 2 * ghost;
        Grid3 { nx, ny, nz, ghost, data: vec![T::default(); sx * sy * sz] }
    }

    /// A grid filled from a function of interior coordinates (ghost cells
    /// default).
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        ghost: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut g = Self::new(nx, ny, nz, ghost);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    g.set(i as isize, j as isize, k as isize, f(i, j, k));
                }
            }
        }
        g
    }

    /// Interior extent `(nx, ny, nz)`.
    pub fn extent(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Ghost width per side.
    pub fn ghost(&self) -> usize {
        self.ghost
    }

    /// Number of interior cells.
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    fn offset(&self, i: isize, j: isize, k: isize) -> usize {
        let g = self.ghost as isize;
        debug_assert!(
            i >= -g
                && i < self.nx as isize + g
                && j >= -g
                && j < self.ny as isize + g
                && k >= -g
                && k < self.nz as isize + g,
            "index ({i},{j},{k}) out of range for {}x{}x{} grid with ghost {}",
            self.nx,
            self.ny,
            self.nz,
            self.ghost
        );
        let sy = self.ny + 2 * self.ghost;
        let sz = self.nz + 2 * self.ghost;
        (((i + g) as usize) * sy + (j + g) as usize) * sz + (k + g) as usize
    }

    /// Read a cell (interior or ghost).
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> T {
        self.data[self.offset(i, j, k)]
    }

    /// Write a cell (interior or ghost).
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: T) {
        let o = self.offset(i, j, k);
        self.data[o] = v;
    }

    /// Fill every cell (including ghosts) with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// The contiguous storage run `k0..k1` of row `(i, j)` — z is the
    /// contiguous axis, so slab pack/unpack and stencil kernels can move
    /// whole rows with slice operations instead of per-cell index
    /// arithmetic. `k0`/`k1` may reach into the ghost layers.
    pub fn row(&self, i: isize, j: isize, k0: isize, k1: isize) -> &[T] {
        let lo = self.offset(i, j, k0);
        &self.data[lo..lo + (k1 - k0) as usize]
    }

    /// Mutable form of [`Grid3::row`].
    pub fn row_mut(&mut self, i: isize, j: isize, k0: isize, k1: isize) -> &mut [T] {
        let lo = self.offset(i, j, k0);
        &mut self.data[lo..lo + (k1 - k0) as usize]
    }

    /// The row `k0..k1` of `(i, j)` together with its one-cell z-shifted
    /// companion `k0-1..k1-1`, as two equal-length slices over the same
    /// storage. Stencil kernels use the pair for backward z-differences
    /// (`v[k] - v[k-1]`) without per-cell offset arithmetic; shifting the
    /// arguments by one (`row_pair(i, j, k0+1, k1+1)`) yields the forward
    /// difference pair `(v[k+1], v[k])`. Requires `ghost ≥ 1` (or
    /// `k0 ≥ 1`) so the shifted slice stays in bounds.
    pub fn row_pair(&self, i: isize, j: isize, k0: isize, k1: isize) -> (&[T], &[T]) {
        let lo = self.offset(i, j, k0 - 1);
        let n = (k1 - k0) as usize;
        let s = &self.data[lo..lo + n + 1];
        (&s[1..], &s[..n])
    }

    /// Visit every interior cell in `(i, j, k)` lexicographic order.
    pub fn for_each_interior(&mut self, mut f: impl FnMut(usize, usize, usize, &mut T)) {
        let g = self.ghost;
        let sy = self.ny + 2 * g;
        let sz = self.nz + 2 * g;
        for i in 0..self.nx {
            for j in 0..self.ny {
                let row = ((i + g) * sy + (j + g)) * sz + g;
                for k in 0..self.nz {
                    f(i, j, k, &mut self.data[row + k]);
                }
            }
        }
    }

    /// Copy the interior cells into a flat vector in lexicographic order
    /// (used by reductions, snapshots and the host I/O path).
    pub fn interior_to_vec(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.interior_append_to(&mut out);
        out
    }

    /// [`Grid3::interior_to_vec`] appending into a caller-supplied buffer,
    /// so gather payloads can reuse a recycled allocation.
    pub fn interior_append_to(&self, out: &mut Vec<T>) {
        out.reserve(self.interior_len());
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                out.extend_from_slice(self.row(i, j, 0, self.nz as isize));
            }
        }
    }

    /// Overwrite the interior from a flat lexicographic vector.
    pub fn interior_from_slice(&mut self, src: &[T]) {
        assert_eq!(src.len(), self.interior_len(), "interior size mismatch");
        let nz = self.nz;
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                let off = (i as usize * self.ny + j as usize) * nz;
                self.row_mut(i, j, 0, nz as isize)
                    .copy_from_slice(&src[off..off + nz]);
            }
        }
    }

    /// The section `at` of this grid's interior (in interior coordinates)
    /// as a grid of its own with the same ghost width. Its ghost cells are
    /// the cells around it here: this grid's interior where the section is
    /// inside, its ghost layer where the section reaches the boundary.
    pub fn sub_grid(&self, at: &Block3) -> Self {
        let (nx, ny, nz) = at.extent();
        let mut out = Self::new(nx, ny, nz, self.ghost);
        let g = self.ghost as isize;
        let (i0, j0, k0) = (at.lo.0 as isize, at.lo.1 as isize, at.lo.2 as isize);
        let (nx, ny, nz) = (nx as isize, ny as isize, nz as isize);
        for i in -g..nx + g {
            for j in -g..ny + g {
                let src = self.row(i0 + i, j0 + j, k0 - g, k0 + nz + g);
                out.row_mut(i, j, -g, nz + g).copy_from_slice(src);
            }
        }
        out
    }

    /// Raw storage (including ghost cells), mainly for bitwise comparisons.
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (including ghost cells) — for state codecs that
    /// restore a grid bitwise, ghosts and all (a consistent cut can land
    /// mid-exchange, when ghost contents are live state).
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl Grid3<f64> {
    /// Bitwise equality of the *interior* cells — the paper's standard of
    /// "identical results". Ghost cells are excluded: they are shadow
    /// copies, not part of the program's observable state.
    pub fn interior_bitwise_eq(&self, other: &Grid3<f64>) -> bool {
        if self.extent() != other.extent() {
            return false;
        }
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                for k in 0..self.nz as isize {
                    if self.get(i, j, k).to_bits() != other.get(i, j, k).to_bits() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Maximum absolute difference over interior cells (∞-norm), for
    /// quantifying the far-field reordering error.
    pub fn interior_max_abs_diff(&self, other: &Grid3<f64>) -> f64 {
        assert_eq!(self.extent(), other.extent());
        let mut m: f64 = 0.0;
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                for k in 0..self.nz as isize {
                    m = m.max((self.get(i, j, k) - other.get(i, j, k)).abs());
                }
            }
        }
        m
    }
}

impl<T: Copy + Default> std::ops::Index<[isize; 3]> for Grid3<T> {
    type Output = T;
    #[inline]
    fn index(&self, idx: [isize; 3]) -> &T {
        &self.data[self.offset(idx[0], idx[1], idx[2])]
    }
}

impl<T: Copy + Default> std::ops::IndexMut<[isize; 3]> for Grid3<T> {
    #[inline]
    fn index_mut(&mut self, idx: [isize; 3]) -> &mut T {
        let o = self.offset(idx[0], idx[1], idx[2]);
        &mut self.data[o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid3_roundtrips_interior_and_ghost() {
        let mut g: Grid3<f64> = Grid3::new(3, 4, 5, 2);
        assert_eq!(g.extent(), (3, 4, 5));
        assert_eq!(g.interior_len(), 60);
        g.set(0, 0, 0, 1.5);
        g.set(-2, -2, -2, 2.5); // far ghost corner
        g.set(4, 5, 6, 3.5); // opposite ghost corner
        assert_eq!(g.get(0, 0, 0), 1.5);
        assert_eq!(g.get(-2, -2, -2), 2.5);
        assert_eq!(g.get(4, 5, 6), 3.5);
        assert_eq!(g[[0, 0, 0]], 1.5);
        g[[1, 2, 3]] = 7.0;
        assert_eq!(g.get(1, 2, 3), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)]
    fn grid3_out_of_range_panics_in_debug() {
        let g: Grid3<f64> = Grid3::new(2, 2, 2, 1);
        g.get(3, 0, 0);
    }

    #[test]
    fn grid3_from_fn_and_interior_vec_roundtrip() {
        let g = Grid3::from_fn(3, 2, 4, 1, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let v = g.interior_to_vec();
        assert_eq!(v.len(), 24);
        assert_eq!(v[0], 0.0);
        // Lexicographic: last element is (2,1,3).
        assert_eq!(*v.last().unwrap(), 213.0);
        let mut h: Grid3<f64> = Grid3::new(3, 2, 4, 1);
        h.interior_from_slice(&v);
        assert!(g.interior_bitwise_eq(&h));
    }

    #[test]
    fn grid3_bitwise_eq_ignores_ghosts() {
        let mut a: Grid3<f64> = Grid3::new(2, 2, 2, 1);
        let mut b: Grid3<f64> = Grid3::new(2, 2, 2, 1);
        a.set(-1, 0, 0, 9.0);
        b.set(-1, 0, 0, -9.0);
        assert!(a.interior_bitwise_eq(&b));
        b.set(0, 0, 0, 1e-300);
        assert!(!a.interior_bitwise_eq(&b));
    }

    #[test]
    fn grid3_max_abs_diff() {
        let a = Grid3::from_fn(2, 2, 2, 0, |_, _, _| 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1, 1.25);
        assert_eq!(a.interior_max_abs_diff(&b), 0.25);
    }

    #[test]
    fn grid3_for_each_interior_visits_every_cell_once() {
        let mut g: Grid3<i64> = Grid3::new(3, 3, 3, 1);
        let mut count = 0;
        g.for_each_interior(|_, _, _, c| {
            *c += 1;
            count += 1;
        });
        assert_eq!(count, 27);
        assert!(g.interior_to_vec().iter().all(|&v| v == 1));
        // Ghosts untouched.
        assert_eq!(g.get(-1, 0, 0), 0);
    }

    #[test]
    fn for_each_interior_offsets_match_get() {
        let mut g: Grid3<f64> = Grid3::new(2, 3, 4, 2);
        g.for_each_interior(|i, j, k, c| *c = (i * 100 + j * 10 + k) as f64);
        for i in 0..2isize {
            for j in 0..3isize {
                for k in 0..4isize {
                    assert_eq!(g.get(i, j, k), (i * 100 + j * 10 + k) as f64);
                }
            }
        }
    }

    #[test]
    fn row_and_row_pair_expose_contiguous_z_runs() {
        let mut g: Grid3<f64> = Grid3::new(3, 3, 5, 1);
        for k in -1..6isize {
            g.set(1, 2, k, k as f64);
        }
        assert_eq!(g.row(1, 2, 0, 5), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.row(1, 2, -1, 6), &[-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let (cur, zm1) = g.row_pair(1, 2, 0, 5);
        assert_eq!(cur, g.row(1, 2, 0, 5));
        assert_eq!(zm1, &[-1.0, 0.0, 1.0, 2.0, 3.0]);
        // Shifted by one: the forward-difference pair (v[k+1], v[k]).
        let (zp1, cur2) = g.row_pair(1, 2, 1, 6);
        assert_eq!(zp1, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cur2, cur);
        g.row_mut(0, 0, 0, 5).fill(7.0);
        assert_eq!(g.get(0, 0, 3), 7.0);
        assert_eq!(g.get(0, 0, -1), 0.0, "ghost untouched by interior row");
    }

    #[test]
    fn a_sub_grid_takes_its_ghosts_from_the_cells_around_it() {
        let mut g = Grid3::from_fn(4, 3, 5, 1, |i, j, k| (i * 100 + j * 10 + k) as f64);
        g.set(-1, 1, 2, -7.0);
        let s = g.sub_grid(&Block3 { lo: (0, 1, 2), hi: (2, 3, 5) });
        assert_eq!(s.extent(), (2, 2, 3));
        assert_eq!(s.get(0, 0, 0), 12.0);
        assert_eq!(s.get(1, 1, 2), 124.0);
        assert_eq!(s.get(2, 0, 0), 212.0, "interior cell of the grid as a ghost");
        assert_eq!(s.get(-1, 0, 0), -7.0, "ghost cell of the grid as a ghost");
        assert_eq!(g.sub_grid(&Block3::at_origin((4, 3, 5))), g);
    }

    #[test]
    fn zero_ghost_grids_work() {
        let g: Grid3<f64> = Grid3::new(2, 2, 2, 0);
        assert_eq!(g.raw().len(), 8);
        let g2: Grid3<u8> = Grid3::new(3, 3, 1, 0);
        assert_eq!(g2.interior_len(), 9);
    }
}
