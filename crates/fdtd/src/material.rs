//! Material model: per-cell update coefficients.
//!
//! The standard lossy-material Yee coefficients, one scalar set per cell
//! (isotropic media):
//!
//! ```text
//! E ← Ca·E + Cb·curl(H)      Ca = (1 − σΔt/2ε)/(1 + σΔt/2ε)
//!                            Cb = (Δt/ε)/(1 + σΔt/2ε)
//! H ← Da·H − Db·curl(E)      Da = (1 − σ*Δt/2μ)/(1 + σ*Δt/2μ)
//!                            Db = (Δt/μ)/(1 + σ*Δt/2μ)
//! ```
//!
//! PEC cells are the degenerate `Ca = Cb = 0` (E pinned to zero) — the
//! "objects of arbitrary shape and composition" of §4.1 reduce to painting
//! these coefficients onto the grid.

use meshgrid::Block3;

/// Declarative material layout, evaluated per *global* cell so every
/// partitioning builds identical local coefficient grids.
#[derive(Debug, Clone)]
pub enum MaterialSpec {
    /// Free space everywhere.
    Vacuum,
    /// A lossy dielectric sphere (relative permittivity `eps_r`, electric
    /// conductivity `sigma`) centred at `center` with radius `radius`, in
    /// free space.
    DielectricSphere {
        /// Sphere centre in global cell coordinates.
        center: (f64, f64, f64),
        /// Sphere radius in cells.
        radius: f64,
        /// Relative permittivity inside the sphere.
        eps_r: f64,
        /// Electric conductivity inside the sphere (normalized units).
        sigma: f64,
    },
    /// A PEC box spanning `lo..hi` (global cells), in free space.
    PecBox {
        /// Inclusive low corner.
        lo: (usize, usize, usize),
        /// Exclusive high corner.
        hi: (usize, usize, usize),
    },
}

impl MaterialSpec {
    /// Convenience constructor for the lossy sphere.
    pub fn dielectric_sphere(
        center: (f64, f64, f64),
        radius: f64,
        eps_r: f64,
        sigma: f64,
    ) -> MaterialSpec {
        MaterialSpec::DielectricSphere { center, radius, eps_r, sigma }
    }

    /// `(eps_r, sigma, mu_r, sigma_m)` of the global cell `(i, j, k)`.
    /// PEC is encoded as `eps_r = f64::INFINITY`.
    pub fn properties(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64, f64) {
        match self {
            MaterialSpec::Vacuum => (1.0, 0.0, 1.0, 0.0),
            MaterialSpec::DielectricSphere { center, radius, eps_r, sigma } => {
                let dx = i as f64 - center.0;
                let dy = j as f64 - center.1;
                let dz = k as f64 - center.2;
                if dx * dx + dy * dy + dz * dz <= radius * radius {
                    (*eps_r, *sigma, 1.0, 0.0)
                } else {
                    (1.0, 0.0, 1.0, 0.0)
                }
            }
            MaterialSpec::PecBox { lo, hi } => {
                if (lo.0..hi.0).contains(&i) && (lo.1..hi.1).contains(&j) && (lo.2..hi.2).contains(&k)
                {
                    (f64::INFINITY, 0.0, 1.0, 0.0)
                } else {
                    (1.0, 0.0, 1.0, 0.0)
                }
            }
        }
    }

    /// True if every cell of the global z-row `(i, j, ·)` is free space —
    /// no object of this layout can touch the row. Conservative: `false`
    /// only promises that [`MaterialSpec::properties`] must be asked.
    pub fn row_is_free_space(&self, i: usize, j: usize) -> bool {
        match self {
            MaterialSpec::Vacuum => true,
            // Same expression as `properties` minus its non-negative
            // `dz * dz` term: if this already exceeds r², so does the sum.
            MaterialSpec::DielectricSphere { center, radius, .. } => {
                let dx = i as f64 - center.0;
                let dy = j as f64 - center.1;
                dx * dx + dy * dy > radius * radius
            }
            MaterialSpec::PecBox { lo, hi } => {
                !((lo.0..hi.0).contains(&i) && (lo.1..hi.1).contains(&j))
            }
        }
    }
}

/// `(eps_r, sigma, mu_r, sigma_m)` of free space.
const FREE_SPACE: (f64, f64, f64, f64) = (1.0, 0.0, 1.0, 0.0);

/// `[Ca, Cb, Da, Db]` of a cell with the given properties at time step
/// `dt` — the one place the coefficient formulas are evaluated.
fn coefficients((eps, sigma, mu, sigma_m): (f64, f64, f64, f64), dt: f64) -> [f64; 4] {
    let (ca, cb) = if eps.is_infinite() {
        (0.0, 0.0) // PEC: E forced to zero.
    } else {
        let loss = sigma * dt / (2.0 * eps);
        ((1.0 - loss) / (1.0 + loss), (dt / eps) / (1.0 + loss))
    };
    let lm = sigma_m * dt / (2.0 * mu);
    [ca, cb, (1.0 - lm) / (1.0 + lm), (dt / mu) / (1.0 + lm)]
}

/// One update coefficient over a local section (no ghost cells —
/// coefficients are only read at the cell being updated), stored as its
/// *distinct* z-rows plus one row number per `(i, j)`.
///
/// Material layouts are free space almost everywhere, so almost every
/// `(i, j)` shares one row: a section's coefficient costs `nx·ny` row
/// numbers instead of `nx·ny·nz` values, and the kernels stream it from
/// cache instead of from a grid of its own. Reads keep the call shape of a
/// `Grid3` ([`Coefficient::row`], [`Coefficient::get`]) and return values
/// bitwise equal to evaluating the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficient {
    ny: usize,
    nz: usize,
    /// Row number of each `(i, j)`, `j` fastest.
    row_of: Vec<u32>,
    /// The distinct rows, `nz` values each, in first-use order.
    rows: Vec<f64>,
}

impl Coefficient {
    fn new((nx, ny, nz): (usize, usize, usize)) -> Coefficient {
        Coefficient { ny, nz, row_of: Vec::with_capacity(nx * ny), rows: Vec::new() }
    }

    /// Number of the stored row bitwise equal to `row`, storing it first if
    /// it is new.
    fn intern(&mut self, row: &[f64]) -> u32 {
        if self.nz == 0 {
            return 0; // every row of an empty section is the empty row
        }
        let same = |a: &[f64]| a.iter().zip(row).all(|(x, y)| x.to_bits() == y.to_bits());
        let at = self.rows.chunks_exact(self.nz).position(same).unwrap_or_else(|| {
            self.rows.extend_from_slice(row);
            self.distinct_rows() - 1
        });
        u32::try_from(at).expect("a section has fewer than 2^32 (i, j) columns")
    }

    /// How many distinct z-rows the section holds.
    pub fn distinct_rows(&self) -> usize {
        self.rows.len().checked_div(self.nz).unwrap_or(0)
    }

    /// The values `k0..k1` of row `(i, j)`.
    #[inline]
    pub fn row(&self, i: isize, j: isize, k0: isize, k1: isize) -> &[f64] {
        let at = self.row_of[i as usize * self.ny + j as usize] as usize * self.nz;
        &self.rows[at + k0 as usize..at + k1 as usize]
    }

    /// The value at cell `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> f64 {
        self.row(i, j, k, k + 1)[0]
    }
}

/// Intern one row per coefficient, returning the four row numbers.
fn intern_all(coeffs: &mut [Coefficient; 4], rows: &[Vec<f64>; 4]) -> [u32; 4] {
    let mut numbers = [0; 4];
    for ((coeff, row), n) in coeffs.iter_mut().zip(rows).zip(&mut numbers) {
        *n = coeff.intern(row);
    }
    numbers
}

/// Per-cell update coefficients for one local section.
#[derive(Debug, Clone, PartialEq)]
pub struct Material {
    /// E self-coefficient.
    pub ca: Coefficient,
    /// E curl coefficient.
    pub cb: Coefficient,
    /// H self-coefficient.
    pub da: Coefficient,
    /// H curl coefficient.
    pub db: Coefficient,
}

impl Material {
    /// Build the coefficients for the local `block` of a global domain
    /// with layout `spec` and time step `dt`. Cells are evaluated one by
    /// one only on rows `spec` says an object can touch; every other row is
    /// the free-space row, which is that same evaluation of a free-space
    /// cell.
    pub fn build(spec: &MaterialSpec, block: Block3, dt: f64) -> Material {
        let extent = block.extent();
        let (nx, ny, nz) = extent;
        let mut coeffs = [(); 4].map(|_| Coefficient::new(extent));
        let free = coefficients(FREE_SPACE, dt).map(|v| vec![v; nz]);
        let mut free_rows: Option<[u32; 4]> = None;
        let mut touched = free.clone();
        for i in 0..nx {
            for j in 0..ny {
                let (gi, gj, gk0) = block.to_global(i, j, 0);
                let numbers = if spec.row_is_free_space(gi, gj) {
                    *free_rows.get_or_insert_with(|| intern_all(&mut coeffs, &free))
                } else {
                    for k in 0..nz {
                        let c = coefficients(spec.properties(gi, gj, gk0 + k), dt);
                        for (row, v) in touched.iter_mut().zip(c) {
                            row[k] = v;
                        }
                    }
                    intern_all(&mut coeffs, &touched)
                };
                for (coeff, n) in coeffs.iter_mut().zip(numbers) {
                    coeff.row_of.push(n);
                }
            }
        }
        let [ca, cb, da, db] = coeffs;
        Material { ca, cb, da, db }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whole(n: (usize, usize, usize)) -> Block3 {
        Block3 { lo: (0, 0, 0), hi: n }
    }

    #[test]
    fn vacuum_coefficients() {
        let m = Material::build(&MaterialSpec::Vacuum, whole((3, 3, 3)), 0.5);
        assert_eq!(m.ca.get(1, 1, 1), 1.0);
        assert_eq!(m.cb.get(1, 1, 1), 0.5);
        assert_eq!(m.da.get(0, 0, 0), 1.0);
        assert_eq!(m.db.get(2, 2, 2), 0.5);
    }

    #[test]
    fn sphere_has_interior_and_exterior() {
        let spec = MaterialSpec::dielectric_sphere((4.0, 4.0, 4.0), 2.0, 4.0, 0.1);
        let m = Material::build(&spec, whole((9, 9, 9)), 0.5);
        // Centre cell: eps 4, sigma 0.1.
        let loss = 0.1 * 0.5 / (2.0 * 4.0);
        assert!((m.ca.get(4, 4, 4) - (1.0 - loss) / (1.0 + loss)).abs() < 1e-15);
        assert!((m.cb.get(4, 4, 4) - (0.5 / 4.0) / (1.0 + loss)).abs() < 1e-15);
        // Corner cell: vacuum.
        assert_eq!(m.ca.get(0, 0, 0), 1.0);
        assert_eq!(m.cb.get(0, 0, 0), 0.5);
    }

    #[test]
    fn pec_box_pins_e() {
        let spec = MaterialSpec::PecBox { lo: (1, 1, 1), hi: (2, 2, 2) };
        let m = Material::build(&spec, whole((3, 3, 3)), 0.5);
        assert_eq!(m.ca.get(1, 1, 1), 0.0);
        assert_eq!(m.cb.get(1, 1, 1), 0.0);
        assert_eq!(m.ca.get(0, 0, 0), 1.0);
    }

    #[test]
    fn partitioned_build_matches_global_build() {
        use meshgrid::ProcGrid3;
        let spec = MaterialSpec::dielectric_sphere((5.0, 4.0, 3.0), 2.5, 3.0, 0.2);
        let n = (10, 8, 7);
        let global = Material::build(&spec, whole(n), 0.5);
        let pg = ProcGrid3::choose(n, 4);
        for r in 0..4 {
            let b = pg.block(r);
            let local = Material::build(&spec, b, 0.5);
            let pairs = [
                (&local.ca, &global.ca),
                (&local.cb, &global.cb),
                (&local.da, &global.da),
                (&local.db, &global.db),
            ];
            for i in 0..b.extent().0 {
                for j in 0..b.extent().1 {
                    for k in 0..b.extent().2 {
                        let (gi, gj, gk) = b.to_global(i, j, k);
                        for (l, g) in pairs {
                            assert_eq!(
                                l.get(i as isize, j as isize, k as isize).to_bits(),
                                g.get(gi as isize, gj as isize, gk as isize).to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_free_space_section_holds_one_row_per_coefficient() {
        let vacuum = Material::build(&MaterialSpec::Vacuum, whole((6, 5, 4)), 0.5);
        // A section of a domain with a sphere that the sphere never reaches.
        let spec = MaterialSpec::dielectric_sphere((20.0, 20.0, 20.0), 3.0, 4.0, 0.1);
        let far = Material::build(&spec, Block3 { lo: (0, 0, 0), hi: (6, 5, 4) }, 0.5);
        assert_eq!(far, vacuum);
        for c in [&vacuum.ca, &vacuum.cb, &vacuum.da, &vacuum.db] {
            assert_eq!(c.distinct_rows(), 1);
            assert_eq!(c.row(5, 4, 0, 4).len(), 4);
        }
        // An object adds rows to the E coefficients only (μ is 1 throughout),
        // and rows that repeat are stored once.
        let near = Material::build(&spec, Block3 { lo: (14, 14, 14), hi: (27, 27, 27) }, 0.5);
        assert!(near.ca.distinct_rows() > 1 && near.ca.distinct_rows() < 13 * 13);
        assert_eq!(near.da.distinct_rows(), 1);
        assert_eq!(near.db.distinct_rows(), 1);
    }

    #[test]
    fn degenerate_sections_build() {
        let m = Material::build(&MaterialSpec::Vacuum, whole((3, 2, 0)), 0.5);
        assert!(m.ca.row(2, 1, 0, 0).is_empty());
        let m = Material::build(&MaterialSpec::Vacuum, whole((0, 2, 3)), 0.5);
        assert_eq!(m.ca.distinct_rows(), 0);
    }
}
