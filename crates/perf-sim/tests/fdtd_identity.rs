//! Acceptance: the timed backend is *bitwise* identical to the untimed one
//! on the FDTD mesh plan.
//!
//! The DES engine replays the simulator's own stepping, so Theorem 1 makes
//! this a hard check: pricing an execution must not perturb it. Both paper
//! machine models are exercised — the model changes every span's placement
//! but may not change a single result byte.

use std::sync::Arc;

use fdtd::par::{init_a, plan_a};
use fdtd::Params;
use machine_model::{ibm_sp, network_of_suns};
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode};
use meshgrid::ProcGrid3;
use perf_sim::{chrome_trace_json, predict_speedup, run_des, timelines_to_json, CostBreakdown};
use ssp_runtime::{RoundRobin, Simulator};

#[test]
fn des_final_state_matches_run_simulated_on_both_machines() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let init = init_a(params.clone());
    let pg = ProcGrid3::choose(params.n, 4);

    let sim =
        mesh_archetype::run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();

    for model in [network_of_suns(), ibm_sp()] {
        let (topo, procs) =
            build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, None);
        let des = run_des(topo, procs, &model, &mut RoundRobin::new()).unwrap();
        assert_eq!(des.snapshots, sim.snapshots, "bitwise identity on {}", model.name);

        // The prediction itself is sane: positive, explained by a critical
        // path that tiles it, over gap-free timelines.
        assert!(des.makespan > 0.0, "{} predicts a real duration", model.name);
        let bd = des.critical.breakdown;
        assert!(
            (bd.total() - des.makespan).abs() <= 1e-9 * des.makespan,
            "{}: breakdown {bd:?} must sum to makespan {}",
            model.name,
            des.makespan
        );
        assert!(bd.compute > 0.0, "FDTD is never compute-free");
        for tl in &des.timelines {
            let mut t = 0.0;
            for s in &tl.spans {
                assert!((s.start - t).abs() <= 1e-9 * des.makespan, "gap in proc {}", tl.proc);
                t = s.end;
            }
        }

        // Both exports stay parseable on a real workload.
        let spans = ssp_runtime::json::parse(&timelines_to_json(&des.timelines)).unwrap();
        assert!(!spans.as_arr().unwrap().is_empty());
        let chrome = ssp_runtime::json::parse(&chrome_trace_json(&des.timelines)).unwrap();
        assert!(!chrome.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }
}

#[test]
fn des_identity_holds_at_slack_one_too() {
    let params = Arc::new(Params { steps: 4, ..Params::tiny() });
    let plan = plan_a(&params);
    let init = init_a(params.clone());
    let pg = ProcGrid3::choose(params.n, 3);

    let build = || build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, Some(1));
    let (topo, procs) = build();
    let sim = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap();
    let (topo, procs) = build();
    let des = run_des(topo, procs, &network_of_suns(), &mut RoundRobin::new()).unwrap();
    assert_eq!(des.snapshots, sim.snapshots, "slack bounds change timing, never results");
}

/// `predict_speedup` on a real mesh program is the per-P prediction, bit for
/// bit: the `figure2` bench prints its curves from these points, so they
/// must be the numbers `run_msg_predicted` gives one P at a time.
#[test]
fn predict_speedup_equals_run_msg_predicted_at_each_p() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let init = init_a(params.clone());
    let ps = [1usize, 2, 4];
    let bits = |b: CostBreakdown| [b.compute, b.latency, b.bandwidth, b.blocked].map(f64::to_bits);

    for model in [network_of_suns(), ibm_sp()] {
        let points = predict_speedup(&model, &ps, |p| {
            let pg = ProcGrid3::choose(params.n, p);
            build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, None)
        })
        .unwrap();
        assert_eq!(points.len(), ps.len());
        for (point, &p) in points.iter().zip(&ps) {
            let pg = ProcGrid3::choose(params.n, p);
            let des = mesh_archetype::run_msg_predicted(&plan, pg, &init, &model).unwrap();
            assert_eq!(point.nprocs, p);
            assert_eq!(point.time.to_bits(), des.makespan.to_bits(), "{} P={p}", model.name);
            assert_eq!(
                bits(point.breakdown),
                bits(des.critical.breakdown),
                "{} P={p}: compute / latency / bandwidth / blocked",
                model.name
            );
        }
    }
}
