//! Property-based tests of the application: the near-field bitwise
//! partition-invariance holds for random problem geometries, sources and
//! materials — not just the curated presets.

use std::sync::Arc;

use fdtd::par::{init_a, plan_a};
use fdtd::{BoundaryCondition, Material, MaterialSpec, Params, Source};
use mesh_archetype::driver::{run_simpar, SimParConfig, ValidationLevel};
use meshgrid::{Block3, ProcGrid3};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = Params> {
    (
        4usize..10,
        4usize..10,
        4usize..10,
        2usize..8,          // steps
        (0.1f64..0.55),     // dt (Courant-stable)
        1.0f64..8.0,        // eps_r
        0.0f64..0.2,        // sigma
    )
        .prop_map(|(nx, ny, nz, steps, dt, eps_r, sigma)| {
            let n = (nx, ny, nz);
            Params {
                n,
                steps,
                dt,
                bc: BoundaryCondition::Pec,
                source: Source::gaussian_at((nx / 2, ny / 2, nz / 2), 1.0, 3.0, 1.5),
                material: MaterialSpec::dielectric_sphere(
                    (nx as f64 / 2.0, ny as f64 / 2.0, nz as f64 / 2.0),
                    nx.min(ny).min(nz) as f64 / 3.0,
                    eps_r,
                    sigma,
                ),
            }
        })
}

/// Any of the three layouts, with objects that may straddle, miss or
/// swallow a block of a domain up to 16 cells wide.
fn material_strategy() -> impl Strategy<Value = MaterialSpec> {
    (
        0usize..3,
        (-2.0f64..18.0, -2.0f64..18.0, -2.0f64..18.0),
        0.0f64..9.0,
        (1.0f64..8.0, 0.0f64..0.3),
        (0usize..16, 0usize..16, 0usize..16),
        (0usize..10, 0usize..10, 0usize..10),
    )
        .prop_map(|(kind, center, radius, (eps_r, sigma), lo, size)| match kind {
            0 => MaterialSpec::Vacuum,
            1 => MaterialSpec::dielectric_sphere(center, radius, eps_r, sigma),
            _ => MaterialSpec::PecBox { lo, hi: (lo.0 + size.0, lo.1 + size.1, lo.2 + size.2) },
        })
}

/// `[Ca, Cb, Da, Db]` of one global cell, evaluated from its properties —
/// the per-cell definition the row storage must reproduce bitwise.
fn cell_coefficients(spec: &MaterialSpec, (i, j, k): (usize, usize, usize), dt: f64) -> [f64; 4] {
    let (eps, sigma, mu, sigma_m) = spec.properties(i, j, k);
    let (ca, cb) = if eps.is_infinite() {
        (0.0, 0.0)
    } else {
        let loss = sigma * dt / (2.0 * eps);
        ((1.0 - loss) / (1.0 + loss), (dt / eps) / (1.0 + loss))
    };
    let lm = sigma_m * dt / (2.0 * mu);
    [ca, cb, (1.0 - lm) / (1.0 + lm), (dt / mu) / (1.0 + lm)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every coefficient row equals the per-cell evaluation bitwise, for
    /// random layouts and blocks.
    #[test]
    fn material_rows_equal_the_per_cell_evaluation(
        spec in material_strategy(),
        lo in (0usize..8, 0usize..8, 0usize..8),
        size in (1usize..9, 1usize..9, 1usize..9),
        dt in 0.1f64..0.55,
    ) {
        let block = Block3 { lo, hi: (lo.0 + size.0, lo.1 + size.1, lo.2 + size.2) };
        let m = Material::build(&spec, block, dt);
        let nz = size.2 as isize;
        for i in 0..size.0 {
            for j in 0..size.1 {
                let rows = [&m.ca, &m.cb, &m.da, &m.db].map(|c| c.row(i as isize, j as isize, 0, nz));
                for k in 0..size.2 {
                    let want = cell_coefficients(&spec, block.to_global(i, j, k), dt);
                    for ((c, row), w) in [&m.ca, &m.cb, &m.da, &m.db].iter().zip(rows).zip(want) {
                        prop_assert_eq!(row[k].to_bits(), w.to_bits());
                        prop_assert_eq!(c.get(i as isize, j as isize, k as isize).to_bits(), w.to_bits());
                    }
                }
            }
        }
        for c in [&m.ca, &m.cb, &m.da, &m.db] {
            prop_assert!(c.distinct_rows() >= 1 && c.distinct_rows() <= size.0 * size.1);
        }
        if matches!(spec, MaterialSpec::Vacuum) {
            prop_assert_eq!(m.ca.distinct_rows(), 1);
        }
    }

    /// The near-field simulated-parallel version is bitwise identical to
    /// the sequential program for random geometries and partitionings.
    #[test]
    fn near_field_partition_invariance(params in params_strategy(), p in 2usize..6) {
        let params = Arc::new(params);
        let seq = fdtd::run_seq_version_a(&params);
        let plan = plan_a(&params);
        let pg = ProcGrid3::choose(params.n, p);
        let init = init_a(params.clone());
        let cfg = SimParConfig { validation: ValidationLevel::Slab, ..Default::default() };
        let mut out = run_simpar(&plan, pg, cfg, |e| init(e));
        prop_assert!(out.report.is_clean());
        let ez = out.assemble_global(&pg, |l| &mut l.fields.ez);
        let hx = out.assemble_global(&pg, |l| &mut l.fields.hx);
        let seq_ez = seq.fields.ez.interior_to_vec();
        let par_ez = ez.interior_to_vec();
        prop_assert!(seq_ez.iter().zip(&par_ez).all(|(a, b)| a.to_bits() == b.to_bits()));
        let seq_hx = seq.fields.hx.interior_to_vec();
        let par_hx = hx.interior_to_vec();
        prop_assert!(seq_hx.iter().zip(&par_hx).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// Fields remain finite (Courant stability) for every generated
    /// parameter set.
    #[test]
    fn fields_remain_finite(params in params_strategy()) {
        let out = fdtd::run_seq_version_a(&params);
        prop_assert!(out.fields.energy().is_finite());
        prop_assert!(out.probe.iter().all(|v| v.is_finite()));
    }

    /// The update operators are linear in the field state: scaling the
    /// source scales the (lossless-material) response identically. With a
    /// linear medium the whole scheme is linear, so doubling the source
    /// amplitude doubles every field value up to exact binary scaling.
    #[test]
    fn scheme_is_linear_in_the_source(mut params in params_strategy()) {
        // Exact-binary scale factor: multiplication by 2.0 is exact.
        params.material = MaterialSpec::Vacuum;
        let base = fdtd::run_seq_version_a(&params);
        let mut scaled = params.clone();
        scaled.source.amplitude *= 2.0;
        let double = fdtd::run_seq_version_a(&scaled);
        let b = base.fields.ez.interior_to_vec();
        let d = double.fields.ez.interior_to_vec();
        for (x, y) in b.iter().zip(&d) {
            prop_assert_eq!((x * 2.0).to_bits(), y.to_bits());
        }
    }
}
