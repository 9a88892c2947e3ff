//! The whole methodology, end to end, across crates: sequential program →
//! checked refinement stages → simulated-parallel → message passing, in
//! both worlds (the IR and the mesh-archetype library), with the effort
//! metrics the paper's §4.5 narrative is about.

use std::sync::Arc;

use archetypes::core::refine::{InitFn, Pipeline};
use archetypes::core::stencil::{
    duplicate, observe_partitioned, observe_replicated, partition, seed_initial, sequential,
    StencilSpec,
};
use archetypes::core::{check_program, to_parallel, Store};
use archetypes::fdtd::par::{init_a, plan_a};
use archetypes::fdtd::Params;
use archetypes::grid::ProcGrid3;
use archetypes::mesh::driver::{run_simpar, SimParConfig};
use archetypes::mesh::run_msg_simulated;
use archetypes::runtime::{RandomPolicy, RoundRobin};

#[test]
fn ir_world_pipeline_to_parallel() {
    let spec = StencilSpec { n: 10, steps: 2, a: 0.3, b: 0.4, c: 0.3 };
    let nprocs = 5;
    let seq = sequential(&spec);
    check_program(&seq).unwrap();

    let inputs: Vec<InitFn> = (0..2u64)
        .map(|s| {
            Box::new(seed_initial(&spec, nprocs, move |i| (i as u64 * 7 + s) as f64 * 0.5))
                as InitFn
        })
        .collect();
    let spec2 = spec;
    let pipeline = Pipeline::new(observe_replicated(&spec))
        .stage("duplicate", move |p| duplicate(p, nprocs), observe_replicated(&spec))
        .stage(
            "partition",
            move |_| partition(&spec2, nprocs),
            observe_partitioned(&spec, nprocs),
        );
    let (final_program, metrics) = pipeline.run(&seq, &inputs).unwrap();
    assert_eq!(metrics.len(), 2);
    assert!(metrics[1].exchanges_after > 0, "partitioning introduces exchanges");
    assert!(metrics[1].messages_after > 0);

    // Final transformation and a parallel run matching the
    // simulated-parallel interpretation.
    let pp = to_parallel(&final_program).unwrap();
    let mut store = Store::new();
    seed_initial(&spec, nprocs, |i| i as f64)(&mut store);
    let mut simpar = store.clone();
    final_program.run(&mut simpar);
    let out = pp.run_simulated(&store, &mut RandomPolicy::seeded(17)).unwrap();
    assert_eq!(out.snapshots, simpar.snapshots(nprocs));
}

#[test]
fn library_world_the_same_shape() {
    // The same methodology shape through the archetype library: the
    // simulated-parallel execution is the reference; the message-passing
    // execution must match it bitwise; and the §2.2 restrictions hold.
    let mut params = Params::tiny();
    params.steps = 5;
    let params = Arc::new(params);
    let plan = plan_a(&params);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_a(params.clone());
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);

    // The trace records the expected communication structure: 2 coalesced
    // exchanges per step (E before the H update, H before the E update).
    let exchanges = simpar
        .trace
        .phases
        .iter()
        .filter(|p| p.name.starts_with("x:"))
        .count();
    assert_eq!(exchanges, 2 * params.steps);
}
