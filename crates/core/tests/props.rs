//! Property-based tests of the methodology: random stencil instances and
//! random initial data, checked through every refinement stage and the
//! final transformation, plus Theorem 1 under random schedules.

use archetypes_core::ir::Store;
use archetypes_core::refine::{refines, InitFn, ObserveFn};
use archetypes_core::stencil::{
    duplicate, observe_partitioned, observe_replicated, partition, seed_initial, sequential,
    StencilSpec,
};
use archetypes_core::theorem::verify_adjacent_swaps;
use archetypes_core::{check_program, to_parallel};
use proptest::prelude::*;
use ssp_runtime::{RandomPolicy, RoundRobin};

fn spec_strategy() -> impl Strategy<Value = StencilSpec> {
    (2usize..14, 1usize..4, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0)
        .prop_map(|(n, steps, a, b, c)| StencilSpec { n, steps, a, b, c })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated stage satisfies the §2.2 Definition.
    #[test]
    fn stages_satisfy_the_definition(spec in spec_strategy(), p in 1usize..6) {
        let p = p.min(spec.n);
        check_program(&sequential(&spec)).unwrap();
        check_program(&duplicate(&sequential(&spec), p)).unwrap();
        check_program(&partition(&spec, p)).unwrap();
    }

    /// Duplication and partitioning refine the sequential program on random
    /// instances and inputs.
    #[test]
    fn refinement_chain_holds(spec in spec_strategy(), p in 2usize..6, seed in 0u64..1000) {
        let p = p.min(spec.n);
        prop_assume!(p >= 2);
        let seq = sequential(&spec);
        let dup = duplicate(&seq, p);
        let part = partition(&spec, p);
        let inputs: Vec<InitFn> = vec![Box::new(seed_initial(&spec, p, move |i| {
            ((i as u64 * 131 + seed * 29) % 97) as f64 * 0.03125 - 1.5
        }))];
        let obs_rep: ObserveFn = Box::new(observe_replicated(&spec));
        let obs_rep2: ObserveFn = Box::new(observe_replicated(&spec));
        let obs_part: ObserveFn = Box::new(observe_partitioned(&spec, p));
        refines(&seq, &obs_rep, &dup, &obs_rep2, &inputs).unwrap();
        refines(&dup, &obs_rep, &part, &obs_part, &inputs).unwrap();
    }

    /// The final transformation preserves the simulated-parallel final
    /// state bitwise, under round-robin and random schedules.
    #[test]
    fn final_transformation_preserves_state(
        spec in spec_strategy(),
        p in 2usize..6,
        seed in 0u64..1000,
    ) {
        let p = p.min(spec.n);
        prop_assume!(p >= 2);
        let program = partition(&spec, p);
        let pp = to_parallel(&program).unwrap();
        let init = seed_initial(&spec, p, move |i| (i as f64) * 0.25 + seed as f64 * 1e-3);
        let mut store = Store::new();
        init(&mut store);
        let mut simpar = store.clone();
        program.run(&mut simpar);
        let expect = simpar.snapshots(p);

        let rr = pp.run_simulated(&store, &mut RoundRobin::new()).unwrap();
        prop_assert_eq!(&rr.snapshots, &expect);
        let rnd = pp.run_simulated(&store, &mut RandomPolicy::seeded(seed)).unwrap();
        prop_assert_eq!(&rnd.snapshots, &expect);
    }

    /// Theorem 1's permutation argument holds under random swaps on random
    /// programs.
    #[test]
    fn adjacent_swaps_never_change_state(
        spec in spec_strategy(),
        p in 2usize..5,
        seed in 0u64..500,
    ) {
        let p = p.min(spec.n);
        prop_assume!(p >= 2);
        let pp = to_parallel(&partition(&spec, p)).unwrap();
        let init = seed_initial(&spec, p, |i| i as f64);
        let mut store = Store::new();
        init(&mut store);
        verify_adjacent_swaps(&pp, &store, 40, seed).unwrap();
    }
}
