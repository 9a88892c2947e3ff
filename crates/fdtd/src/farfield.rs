//! Near-field to far-field accumulation (Version C's second computation).
//!
//! §4.1: *"This part of the computation uses the above-calculated electric
//! and magnetic fields to compute radiation vector potentials at each time
//! step by integrating over a closed surface near the boundary of the
//! 3-dimensional grid. The electric and magnetic fields at a particular
//! point on the integration surface at a particular time step affect the
//! radiation vector potential at some future time step (depending on the
//! point's position); thus, each calculated vector potential is a double
//! sum, over time steps and over points on the integration surface."*
//!
//! Implemented as stated: a closed box surface at a configurable offset
//! from the grid boundary; per observation direction, per time step, every
//! surface point contributes its equivalent-current value into a retarded
//! time bin. The full vector NTFF kernel is simplified to one scalar
//! potential per direction built from the tangential field components —
//! the *structure* (double sum, retarded-time scatter, addends spanning
//! many orders of magnitude) is preserved exactly, which is what the
//! paper's correctness experiment is about.
//!
//! Two accumulation strategies:
//!
//! * [`FarFieldStrategy::NaiveReorder`] — each process keeps per-bin
//!   partial sums over its own surface points and the partials are added
//!   elementwise at the end (the paper's §4.3 strategy: "re-order, but not
//!   otherwise change, the summation"). **Result depends on the
//!   partitioning** — the paper's negative result.
//! * [`FarFieldStrategy::Ordered`] — contributions carry their global
//!   (step, point) index and are summed in that order by the archetype's
//!   ordered reduction. With [`SumMethod::Naive`] the result bitwise-equals
//!   the sequential program for every process count — the "more
//!   sophisticated strategy" §4.5 calls for.

use mesh_archetype::plan::Contribution;
use mesh_archetype::reduce::ReduceAlgo;
use mesh_archetype::sum::SumMethod;
use meshgrid::Block3;

use crate::fields::Fields;

/// Geometry of the integration surface and the observation directions.
#[derive(Debug, Clone, PartialEq)]
pub struct FarFieldSpec {
    /// Distance (in cells) of the closed box surface from the global grid
    /// boundary.
    pub offset: usize,
    /// Observation directions (unit vectors).
    pub directions: Vec<(f64, f64, f64)>,
}

impl FarFieldSpec {
    /// A standard two-direction spec (forward scatter +x, oblique).
    pub fn standard(offset: usize) -> FarFieldSpec {
        let s = 1.0 / 3f64.sqrt();
        FarFieldSpec { offset, directions: vec![(1.0, 0.0, 0.0), (s, s, s)] }
    }
}

/// How far-field partial sums are combined across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarFieldStrategy {
    /// Local per-bin partials, elementwise Sum reduction at the end (the
    /// paper's choice — result depends on P).
    NaiveReorder(ReduceAlgo),
    /// Globally-ordered contributions, deterministic ordered reduction
    /// (P-independent; bitwise-sequential with `SumMethod::Naive`).
    Ordered(SumMethod),
}

/// One surface point: global position, canonical index, outward normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfPoint {
    /// Global cell coordinates.
    pub gpos: (usize, usize, usize),
    /// Canonical (lexicographic) index over the whole surface.
    pub idx: u64,
    /// Outward normal axis (0/1/2) and sign.
    pub normal: (usize, f64),
}

/// Enumerate the closed box surface of the global domain `n` at `offset`,
/// in lexicographic global order — the order the sequential program sums
/// in. Points on edges/corners are assigned the first face containing them
/// in (x-lo, x-hi, y-lo, y-hi, z-lo, z-hi) priority and enumerated once.
pub fn surface_points(n: (usize, usize, usize), offset: usize) -> Vec<SurfPoint> {
    let lo = (offset, offset, offset);
    let hi = (n.0 - offset, n.1 - offset, n.2 - offset);
    assert!(lo.0 + 1 < hi.0 && lo.1 + 1 < hi.1 && lo.2 + 1 < hi.2, "surface box degenerate");
    let mut pts = Vec::new();
    let mut idx = 0u64;
    for i in lo.0..hi.0 {
        for j in lo.1..hi.1 {
            for k in lo.2..hi.2 {
                let normal = if i == lo.0 {
                    Some((0usize, -1.0))
                } else if i == hi.0 - 1 {
                    Some((0, 1.0))
                } else if j == lo.1 {
                    Some((1, -1.0))
                } else if j == hi.1 - 1 {
                    Some((1, 1.0))
                } else if k == lo.2 {
                    Some((2, -1.0))
                } else if k == hi.2 - 1 {
                    Some((2, 1.0))
                } else {
                    None
                };
                if let Some(normal) = normal {
                    pts.push(SurfPoint { gpos: (i, j, k), idx, normal });
                    idx += 1;
                }
            }
        }
    }
    pts
}

/// The scalar equivalent-current values at a surface point: `(j, m)` built
/// from the tangential H and E components respectively (signed by the
/// outward normal).
fn currents(f: &Fields, p: &SurfPoint, li: isize, lj: isize, lk: isize) -> (f64, f64) {
    let (axis, sign) = p.normal;
    match axis {
        0 => (
            sign * (f.hz.get(li, lj, lk) - f.hy.get(li, lj, lk)),
            sign * (f.ez.get(li, lj, lk) - f.ey.get(li, lj, lk)),
        ),
        1 => (
            sign * (f.hx.get(li, lj, lk) - f.hz.get(li, lj, lk)),
            sign * (f.ex.get(li, lj, lk) - f.ez.get(li, lj, lk)),
        ),
        _ => (
            sign * (f.hy.get(li, lj, lk) - f.hx.get(li, lj, lk)),
            sign * (f.ey.get(li, lj, lk) - f.ex.get(li, lj, lk)),
        ),
    }
}

/// Accumulates far-field potentials for the surface points inside one
/// block (use the whole domain as the block for the sequential program).
#[derive(Debug, Clone)]
pub struct FarFieldAccumulator {
    spec: FarFieldSpec,
    /// Points owned by this accumulator's block, with local coordinates.
    points: Vec<(SurfPoint, (isize, isize, isize))>,
    /// Total number of surface points (global).
    n_points: u64,
    /// Per-direction retarded-time delays (in bins), indexed `[dir][point]`
    /// over *owned* points.
    delays: Vec<Vec<usize>>,
    /// Bins per direction.
    n_bins: usize,
    dt: f64,
    /// Per-direction per-bin partials for the A (from H) potential.
    pub a_bins: Vec<Vec<f64>>,
    /// Per-direction per-bin partials for the F (from E) potential.
    pub f_bins: Vec<Vec<f64>>,
    /// Ordered-mode contribution log (empty in naive mode).
    pub log: Vec<Contribution>,
    ordered: bool,
    step: u64,
}

impl FarFieldAccumulator {
    /// Build an accumulator for the surface points of global domain `n`
    /// owned by `block`, simulating `steps` steps at `dt`, in naive or
    /// ordered mode.
    pub fn new(
        spec: &FarFieldSpec,
        n: (usize, usize, usize),
        block: Block3,
        steps: usize,
        dt: f64,
        ordered: bool,
    ) -> FarFieldAccumulator {
        let all = surface_points(n, spec.offset);
        let n_points = all.len() as u64;
        let points: Vec<(SurfPoint, (isize, isize, isize))> = all
            .into_iter()
            .filter(|p| block.contains(p.gpos.0, p.gpos.1, p.gpos.2))
            .map(|p| {
                let l = block.to_local(p.gpos.0, p.gpos.1, p.gpos.2);
                (p, (l.0 as isize, l.1 as isize, l.2 as isize))
            })
            .collect();
        // Retarded-time delay of point p for direction d: the wavefront
        // toward d leaves the surface last from the point maximizing d·r,
        // so delay(p) = (max_q d·r_q − d·r_p) / (c·dt), rounded down.
        let mut delays = Vec::with_capacity(spec.directions.len());
        let mut max_delay = 0usize;
        let all_pts = surface_points(n, spec.offset);
        for &(dx, dy, dz) in &spec.directions {
            let proj = |p: &SurfPoint| {
                dx * p.gpos.0 as f64 + dy * p.gpos.1 as f64 + dz * p.gpos.2 as f64
            };
            let maxp = all_pts.iter().map(&proj).fold(f64::NEG_INFINITY, f64::max);
            let dvec: Vec<usize> = points
                .iter()
                .map(|(p, _)| {
                    let d = ((maxp - proj(p)) / dt).floor() as usize;
                    max_delay = max_delay.max(d);
                    d
                })
                .collect();
            // Global max delay must bound every rank identically: compute
            // from all points, not just owned ones.
            let global_max = all_pts
                .iter()
                .map(|p| ((maxp - proj(p)) / dt).floor() as usize)
                .max()
                .unwrap_or(0);
            max_delay = max_delay.max(global_max);
            delays.push(dvec);
        }
        let n_bins = steps + max_delay + 1;
        let ndir = spec.directions.len();
        FarFieldAccumulator {
            spec: spec.clone(),
            points,
            n_points,
            delays,
            n_bins,
            dt,
            a_bins: vec![vec![0.0; n_bins]; ndir],
            f_bins: vec![vec![0.0; n_bins]; ndir],
            log: Vec::new(),
            ordered,
            step: 0,
        }
    }

    /// Bins per direction.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Number of directions.
    pub fn n_dirs(&self) -> usize {
        self.spec.directions.len()
    }

    /// Number of surface points this accumulator owns.
    pub fn owned_points(&self) -> usize {
        self.points.len()
    }

    /// Flops per accumulation call (for the machine model): roughly 8 per
    /// owned point per direction.
    pub fn flops_per_step(&self) -> u64 {
        8 * self.points.len() as u64 * self.spec.directions.len() as u64
    }

    /// Accumulate one time step's surface contributions from `f`.
    ///
    /// In naive mode, adds into the local per-bin partials in local point
    /// order. In ordered mode, also logs every contribution with its global
    /// (step, point) order key. Bin key layout: `dir * n_bins + bin`,
    /// doubled for the two potentials (A at even dir slots, F at odd — see
    /// [`FarFieldAccumulator::flat_bins`]).
    pub fn accumulate(&mut self, f: &Fields) {
        let step = self.step;
        for (d, _) in self.spec.directions.iter().enumerate() {
            for (pi, (p, (li, lj, lk))) in self.points.iter().enumerate() {
                let (jv, mv) = currents(f, p, *li, *lj, *lk);
                let bin = step as usize + self.delays[d][pi];
                let a_val = jv * self.dt;
                let f_val = mv * self.dt;
                self.a_bins[d][bin] += a_val;
                self.f_bins[d][bin] += f_val;
                if self.ordered {
                    let order = step * self.n_points + p.idx;
                    self.log.push(Contribution {
                        bin: (2 * d * self.n_bins + bin) as u32,
                        order,
                        value: a_val,
                    });
                    self.log.push(Contribution {
                        bin: ((2 * d + 1) * self.n_bins + bin) as u32,
                        order,
                        value: f_val,
                    });
                }
            }
        }
        self.step += 1;
    }

    /// The flattened per-bin partial vector in the canonical layout
    /// `[dir0·A | dir0·F | dir1·A | dir1·F | …]`, for elementwise reduction.
    pub fn flat_bins(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(2 * self.n_dirs() * self.n_bins);
        for d in 0..self.n_dirs() {
            out.extend_from_slice(&self.a_bins[d]);
            out.extend_from_slice(&self.f_bins[d]);
        }
        out
    }

    /// Total number of flattened bins.
    pub fn flat_len(&self) -> usize {
        2 * self.n_dirs() * self.n_bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgrid::ProcGrid3;

    #[test]
    fn surface_enumeration_is_closed_and_unique() {
        let n = (10, 9, 8);
        let pts = surface_points(n, 2);
        // Box extents: 6 x 5 x 4; closed surface cell count = total - interior.
        let expect = 6 * 5 * 4 - 4 * 3 * 2;
        assert_eq!(pts.len(), expect);
        // Unique indices 0..len in order.
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.idx, i as u64);
        }
        // All on the surface.
        for p in &pts {
            let on = p.gpos.0 == 2
                || p.gpos.0 == 7
                || p.gpos.1 == 2
                || p.gpos.1 == 6
                || p.gpos.2 == 2
                || p.gpos.2 == 5;
            assert!(on, "{:?} not on surface", p.gpos);
        }
    }

    #[test]
    fn partitioned_points_cover_the_surface() {
        let n = (12, 12, 12);
        let spec = FarFieldSpec::standard(2);
        let total = surface_points(n, 2).len();
        let pg = ProcGrid3::choose(n, 8);
        let mut count = 0;
        for r in 0..8 {
            let acc = FarFieldAccumulator::new(&spec, n, pg.block(r), 4, 0.5, false);
            count += acc.owned_points();
        }
        assert_eq!(count, total);
    }

    #[test]
    fn bins_accommodate_all_delays() {
        let n = (12, 12, 12);
        let spec = FarFieldSpec::standard(2);
        let block = Block3 { lo: (0, 0, 0), hi: n };
        let mut acc = FarFieldAccumulator::new(&spec, n, block, 5, 0.5, true);
        let mut f = Fields::zeros(n.0, n.1, n.2);
        f.hz.set(3, 3, 3, 1.0);
        for _ in 0..5 {
            acc.accumulate(&f); // must not panic on any bin index
        }
        assert!(acc.n_bins() >= 5);
        assert!(!acc.log.is_empty());
    }

    #[test]
    fn naive_partials_sum_to_sequential_total_in_value() {
        // Numerically (not bitwise), the partitioned partials must add up to
        // the sequential accumulation.
        let n = (12, 11, 10);
        let spec = FarFieldSpec::standard(2);
        let whole = Block3 { lo: (0, 0, 0), hi: n };
        let mut f = Fields::zeros(n.0, n.1, n.2);
        // A deterministic pseudo-field.
        for g in [&mut f.ex, &mut f.ey, &mut f.ez, &mut f.hx, &mut f.hy, &mut f.hz] {
            g.for_each_interior(|i, j, k, v| {
                *v = ((i * 31 + j * 17 + k * 7) % 13) as f64 * 0.125 - 0.75;
            });
        }
        let mut seq = FarFieldAccumulator::new(&spec, n, whole, 3, 0.5, false);
        for _ in 0..3 {
            seq.accumulate(&f);
        }
        let pg = ProcGrid3::choose(n, 6);
        let mut sum = vec![0.0; seq.flat_len()];
        for r in 0..6 {
            let block = pg.block(r);
            let mut acc = FarFieldAccumulator::new(&spec, n, block, 3, 0.5, false);
            // Local fields view: copy the block region (with ghost zeros —
            // fine, currents only read the point itself).
            let mut lf = Fields::zeros(block.extent().0, block.extent().1, block.extent().2);
            for (src, dst) in [
                (&f.ex, &mut lf.ex),
                (&f.ey, &mut lf.ey),
                (&f.ez, &mut lf.ez),
                (&f.hx, &mut lf.hx),
                (&f.hy, &mut lf.hy),
                (&f.hz, &mut lf.hz),
            ] {
                for i in 0..block.extent().0 {
                    for j in 0..block.extent().1 {
                        for k in 0..block.extent().2 {
                            let (gi, gj, gk) = block.to_global(i, j, k);
                            dst.set(
                                i as isize,
                                j as isize,
                                k as isize,
                                src.get(gi as isize, gj as isize, gk as isize),
                            );
                        }
                    }
                }
            }
            for _ in 0..3 {
                acc.accumulate(&lf);
            }
            assert_eq!(acc.flat_len(), sum.len(), "all ranks agree on bin layout");
            for (s, v) in sum.iter_mut().zip(acc.flat_bins()) {
                *s += v;
            }
        }
        for (a, b) in sum.iter().zip(seq.flat_bins()) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn ordered_log_reproduces_sequential_bins_bitwise() {
        use mesh_archetype::driver::ordered_sum;
        use mesh_archetype::sum::SumMethod;
        let n = (10, 10, 10);
        let spec = FarFieldSpec::standard(2);
        let whole = Block3 { lo: (0, 0, 0), hi: n };
        let mut f = Fields::zeros(n.0, n.1, n.2);
        f.ez.set(5, 5, 5, 1.0);
        f.hy.set(4, 5, 5, -0.5);
        let mut acc = FarFieldAccumulator::new(&spec, n, whole, 2, 0.5, true);
        acc.accumulate(&f);
        acc.accumulate(&f);
        let from_log = ordered_sum(acc.log.clone(), acc.flat_len(), SumMethod::Naive);
        // Whole-domain accumulation visits points in exactly global order,
        // so the naive bins equal the ordered sum bitwise.
        let direct = acc.flat_bins();
        for (a, b) in from_log.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
