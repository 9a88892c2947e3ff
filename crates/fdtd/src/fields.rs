//! The six Yee field components over one (local or global) section.

use meshgrid::{Block3, Grid3};

/// The electromagnetic state of a section: six co-located component grids
/// with a one-cell ghost boundary (the stencils read one neighbour in each
/// direction). Ghost cells hold either a neighbouring process's boundary
/// values (after an exchange) or zero (at the physical boundary).
#[derive(Debug, Clone, PartialEq)]
pub struct Fields {
    /// Electric field x-component.
    pub ex: Grid3<f64>,
    /// Electric field y-component.
    pub ey: Grid3<f64>,
    /// Electric field z-component.
    pub ez: Grid3<f64>,
    /// Magnetic field x-component.
    pub hx: Grid3<f64>,
    /// Magnetic field y-component.
    pub hy: Grid3<f64>,
    /// Magnetic field z-component.
    pub hz: Grid3<f64>,
}

impl Fields {
    /// Zero-initialized fields for a section of extent `(nx, ny, nz)`.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Fields {
        Fields {
            ex: Grid3::new(nx, ny, nz, 1),
            ey: Grid3::new(nx, ny, nz, 1),
            ez: Grid3::new(nx, ny, nz, 1),
            hx: Grid3::new(nx, ny, nz, 1),
            hy: Grid3::new(nx, ny, nz, 1),
            hz: Grid3::new(nx, ny, nz, 1),
        }
    }

    /// Interior extent.
    pub fn extent(&self) -> (usize, usize, usize) {
        self.ex.extent()
    }

    /// Σ(E² + H²) over the interior — a cheap energy proxy for stability
    /// tests (exact conservation is not expected with lossy media/PEC).
    /// Folds over contiguous interior rows in place — this sits inside
    /// per-step stability checks, so it must not allocate. The row order
    /// matches the old per-component `interior_to_vec` walk, so the sum
    /// (and its rounding) is unchanged.
    pub fn energy(&self) -> f64 {
        let (nx, ny, nz) = self.extent();
        let mut e = 0.0;
        for g in [&self.ex, &self.ey, &self.ez, &self.hx, &self.hy, &self.hz] {
            for i in 0..nx as isize {
                for j in 0..ny as isize {
                    for &v in g.row(i, j, 0, nz as isize) {
                        e += v * v;
                    }
                }
            }
        }
        e
    }

    /// The six components of the section `at` of these fields' interior,
    /// each with one ghost shell taken from the cells around it
    /// ([`Grid3::sub_grid`]).
    pub fn sub_fields(&self, at: &Block3) -> Fields {
        let cut = |g: &Grid3<f64>| g.sub_grid(at);
        Fields {
            ex: cut(&self.ex),
            ey: cut(&self.ey),
            ez: cut(&self.ez),
            hx: cut(&self.hx),
            hy: cut(&self.hy),
            hz: cut(&self.hz),
        }
    }

    /// Bitwise equality of all six interiors.
    pub fn bitwise_eq(&self, other: &Fields) -> bool {
        self.ex.interior_bitwise_eq(&other.ex)
            && self.ey.interior_bitwise_eq(&other.ey)
            && self.ez.interior_bitwise_eq(&other.ez)
            && self.hx.interior_bitwise_eq(&other.hx)
            && self.hy.interior_bitwise_eq(&other.hy)
            && self.hz.interior_bitwise_eq(&other.hz)
    }

    /// Maximum absolute difference over all six interiors.
    pub fn max_abs_diff(&self, other: &Fields) -> f64 {
        [
            self.ex.interior_max_abs_diff(&other.ex),
            self.ey.interior_max_abs_diff(&other.ey),
            self.ez.interior_max_abs_diff(&other.ez),
            self.hx.interior_max_abs_diff(&other.hx),
            self.hy.interior_max_abs_diff(&other.hy),
            self.hz.interior_max_abs_diff(&other.hz),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Canonical byte snapshot of all six interiors.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_with_tail(0)
    }

    /// [`Fields::snapshot_bytes`] in a buffer with room for `tail` more
    /// bytes, so a caller appending its own trailer never regrows it.
    pub fn snapshot_with_tail(&self, tail: usize) -> Vec<u8> {
        let grids = [&self.ex, &self.ey, &self.ez, &self.hx, &self.hy, &self.hz];
        let len: usize = grids.iter().map(|g| meshgrid::io::grid3_encoded_len(g)).sum();
        let mut buf = Vec::with_capacity(len + tail);
        for g in grids {
            meshgrid::io::append_grid3(&mut buf, g);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_have_zero_energy() {
        let f = Fields::zeros(4, 4, 4);
        assert_eq!(f.energy(), 0.0);
        assert_eq!(f.extent(), (4, 4, 4));
    }

    #[test]
    fn bitwise_eq_detects_single_bit_changes() {
        let a = Fields::zeros(3, 3, 3);
        let mut b = a.clone();
        assert!(a.bitwise_eq(&b));
        b.hy.set(1, 1, 1, -0.0); // bitwise different from +0.0
        assert!(!a.bitwise_eq(&b));
        assert_eq!(a.max_abs_diff(&b), 0.0, "numerically equal nonetheless");
    }

    #[test]
    fn snapshot_is_the_six_grid_encodings_in_one_exact_buffer() {
        let mut f = Fields::zeros(3, 2, 4);
        f.ey.set(1, 1, 2, -2.5);
        f.hx.set(-1, 0, 0, f64::NAN); // a ghost cell: not part of the snapshot
        let mut expected = Vec::new();
        for g in [&f.ex, &f.ey, &f.ez, &f.hx, &f.hy, &f.hz] {
            expected.extend_from_slice(&meshgrid::io::grid3_to_bytes(g));
        }
        let snap = f.snapshot_bytes();
        assert_eq!(snap, expected);
        assert_eq!(snap.capacity(), snap.len());
        let with_tail = f.snapshot_with_tail(8);
        assert_eq!(with_tail, expected);
        assert_eq!(with_tail.capacity(), expected.len() + 8);
    }

    #[test]
    fn snapshots_cover_all_components() {
        let a = Fields::zeros(2, 2, 2);
        let mut b = a.clone();
        b.hz.set(0, 0, 0, 1.0);
        assert_ne!(a.snapshot_bytes(), b.snapshot_bytes());
    }
}
