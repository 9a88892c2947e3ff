//! Experiment E3 at the umbrella level: the near-field calculations —
//! which fit the mesh archetype — produce identical results through every
//! stage of the methodology, for both application versions.

use std::sync::Arc;

use archetypes::fdtd::par::{init_a, init_c, plan_a, plan_c};
use archetypes::fdtd::{
    run_seq_version_a, run_seq_version_c, FarFieldSpec, FarFieldStrategy, Params,
};
use archetypes::grid::ProcGrid3;
use archetypes::mesh::driver::{run_simpar, SimParConfig};
use archetypes::mesh::SumMethod;

#[test]
fn version_a_near_field_identical_through_all_stages() {
    let params = Arc::new(Params::tiny());
    let seq = run_seq_version_a(&params);
    let plan = plan_a(&params);
    for p in [2usize, 3, 4, 5, 6, 8] {
        let pg = ProcGrid3::choose(params.n, p);
        let init = init_a(params.clone());
        let mut out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
        let par = out.assemble_global(&pg, |l| &mut l.fields.ez).interior_to_vec();
        let s = seq.fields.ez.interior_to_vec();
        assert!(
            s.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()),
            "Ez diverged at P={p}"
        );
    }
}

#[test]
fn version_c_near_field_identical_despite_far_field_machinery() {
    // Adding the far-field accumulation must not perturb the near field.
    let params = Arc::new(Params::tiny());
    let spec = FarFieldSpec::standard(2);
    let seq = run_seq_version_c(&params, &spec);
    let strategy = FarFieldStrategy::Ordered(SumMethod::Naive);
    let plan = plan_c(&params, &spec, strategy);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_c(params.clone(), spec, strategy);
    let mut out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
    for (name, seq_grid, par_grid) in [
        ("ex", &seq.fields.ex, out.assemble_global(&pg, |l| &mut l.a.fields.ex)),
        ("hy", &seq.fields.hy, out.assemble_global(&pg, |l| &mut l.a.fields.hy)),
    ] {
        let s = seq_grid.interior_to_vec();
        let p = par_grid.interior_to_vec();
        assert!(
            s.iter().zip(&p).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name} diverged"
        );
    }
}

#[test]
fn mur_boundary_condition_also_partition_invariant() {
    let mut params = Params::tiny();
    params.bc = archetypes::fdtd::BoundaryCondition::Mur1;
    let params = Arc::new(params);
    let seq = run_seq_version_a(&params);
    let plan = plan_a(&params);
    for p in [2usize, 4] {
        let pg = ProcGrid3::choose(params.n, p);
        let init = init_a(params.clone());
        let mut out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
        let par = out.assemble_global(&pg, |l| &mut l.fields.ey).interior_to_vec();
        let s = seq.fields.ey.interior_to_vec();
        assert!(
            s.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()),
            "Mur Ey diverged at P={p}"
        );
    }
}
