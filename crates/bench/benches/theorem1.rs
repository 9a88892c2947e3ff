//! **§4.5 / Theorem 1 in practice** (experiment E5) — "the message-passing
//! programs produced results identical to those of the corresponding
//! sequential simulated-parallel versions, on the first and every
//! execution."
//!
//! Three escalating checks:
//!
//! 1. the FDTD message-passing program vs its simulated-parallel version
//!    under a battery of scheduling policies (and real threads);
//! 2. exhaustive enumeration of *every* maximal interleaving of a small
//!    transformed IR program;
//! 3. the proof's permutation argument: random adjacent transpositions of
//!    a real schedule never change the final state.

use std::sync::Arc;

use archetypes_core::stencil::{partition, seed_initial, StencilSpec};
use archetypes_core::theorem::{
    enumerate_interleavings, explore_state_graph, policy_battery_agree, verify_adjacent_swaps,
};
use archetypes_core::to_parallel;
use bench::{print_table, Verdicts};
use fdtd::par::{init_a, plan_a};
use fdtd::Params;
use mesh_archetype::driver::{run_simpar, SimParConfig};
use mesh_archetype::{run_msg_simulated, run_msg_threaded};
use meshgrid::ProcGrid3;
use ssp_runtime::policy::standard_battery;

fn main() -> Verdicts {
    let mut verdicts = Verdicts::default();

    // --- 1: FDTD under the policy battery -------------------------------
    let mut params = Params::tiny();
    params.steps = 8;
    let params = Arc::new(params);
    let plan = plan_a(&params);
    let mut rows = Vec::new();
    let mut all_agree = true;
    for p in [2usize, 4, 8] {
        let pg = ProcGrid3::choose(params.n, p);
        let init = init_a(params.clone());
        let cfg = SimParConfig::default();
        let simpar = run_simpar(&plan, pg, cfg, |e| init(e));
        let mut agree = 0usize;
        let mut total = 0usize;
        for mut policy in standard_battery(p, 6) {
            total += 1;
            let out = run_msg_simulated(&plan, pg, &init, policy.as_mut())
                .expect("run must terminate");
            if out.snapshots == simpar.snapshots {
                agree += 1;
            }
        }
        // Plus three real-thread executions.
        let mut thr_agree = 0usize;
        for _ in 0..3 {
            if run_msg_threaded(&plan, pg, &init).expect("threads run") == simpar.snapshots {
                thr_agree += 1;
            }
        }
        all_agree &= agree == total && thr_agree == 3;
        rows.push(vec![
            p.to_string(),
            format!("{agree}/{total}"),
            format!("{thr_agree}/3"),
        ]);
    }
    print_table(
        "E5a: FDTD message-passing vs simulated-parallel (bitwise agreement)",
        &["P", "policies agreeing", "threaded runs agreeing"],
        &rows,
    );
    verdicts.claim(
        "E5a (paper): the FDTD message-passing program ends in the simulated-parallel \
         version's state under every scheduling policy and on real threads",
        all_agree,
    );

    // --- 2: exhaustive interleaving enumeration -------------------------
    let spec = StencilSpec { n: 4, steps: 1, a: 0.25, b: 0.5, c: 0.25 };
    let mut rows = Vec::new();
    let mut one_final_state = true;
    for p in [2usize, 3] {
        let program = partition(&spec, p);
        let pp = to_parallel(&program).expect("valid program");
        let init_fn = seed_initial(&spec, p, |i| i as f64);
        let mut store = archetypes_core::Store::new();
        init_fn(&mut store);
        let r = enumerate_interleavings(&pp, &store, 2_000_000).expect("all agree");
        let battery = policy_battery_agree(&pp, &store, 8).expect("battery agrees");
        one_final_state &= !r.truncated && r.final_state == battery;
        rows.push(vec![
            p.to_string(),
            r.interleavings.to_string(),
            (!r.truncated).to_string(),
            (r.final_state == battery).to_string(),
        ]);
    }
    print_table(
        "E5b: exhaustive enumeration of maximal interleavings (stencil IR)",
        &["P", "interleavings", "complete", "single final state"],
        &rows,
    );
    verdicts.claim(
        "E5b: every maximal interleaving of the transformed stencil program, enumerated \
         to completion, ends in one final state",
        one_final_state,
    );

    // --- 3: the permutation argument -------------------------------------
    let spec = StencilSpec { n: 8, steps: 2, a: 0.25, b: 0.5, c: 0.25 };
    let mut rows = Vec::new();
    let mut swaps_verified = true;
    for p in [2usize, 4] {
        let program = partition(&spec, p);
        let pp = to_parallel(&program).expect("valid program");
        let init_fn = seed_initial(&spec, p, |i| (i * i) as f64 * 0.125);
        let mut store = archetypes_core::Store::new();
        init_fn(&mut store);
        let stats = verify_adjacent_swaps(&pp, &store, 500, 0xfeed + p as u64)
            .expect("no swap may change the final state");
        // A walk that swapped nothing verified nothing.
        swaps_verified &= stats.swaps > 0;
        rows.push(vec![p.to_string(), stats.swaps.to_string(), stats.deviations.to_string()]);
    }
    print_table(
        "E5c: adjacent-transposition walk (the proof's permutation step)",
        &["P", "swaps verified", "schedule deviations"],
        &rows,
    );
    verdicts.claim(
        "E5c: no adjacent transposition of a real schedule changes the final state",
        swaps_verified,
    );

    // --- 4: reachable-state-graph exploration (dedup) --------------------
    let mut rows = Vec::new();
    let mut one_terminal_state = true;
    for (n, steps, p) in [(4usize, 1usize, 2usize), (4, 1, 3), (6, 2, 3)] {
        let spec = StencilSpec { n, steps, a: 0.25, b: 0.5, c: 0.25 };
        let program = partition(&spec, p);
        let pp = to_parallel(&program).expect("valid program");
        let init_fn = seed_initial(&spec, p, |i| i as f64);
        let mut store = archetypes_core::Store::new();
        init_fn(&mut store);
        let g = explore_state_graph(&pp, &store, 5_000_000).expect("single terminal state");
        one_terminal_state &= g.terminal_states == 1 && !g.truncated;
        rows.push(vec![
            format!("n={n} steps={steps} P={p}"),
            g.states.to_string(),
            g.transitions.to_string(),
            g.terminal_states.to_string(),
            (!g.truncated).to_string(),
        ]);
    }
    print_table(
        "E5d: reachable state graphs (deduplicated) — one terminal state each",
        &["system", "states", "transitions", "terminal states", "complete"],
        &rows,
    );
    verdicts.claim(
        "E5d: every fully explored reachable-state graph has exactly one terminal state",
        one_terminal_state,
    );
    verdicts
}
