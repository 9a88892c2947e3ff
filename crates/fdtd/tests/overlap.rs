//! Invariance suite for the boundary-first compute/communication overlap
//! (DESIGN.md §14).
//!
//! [`plan_a_overlap`] reorders each half-step into boundary-compute →
//! post halo sends → interior-compute → receive ghosts. Theorem 1 plus
//! per-cell independence within a pass says the reordering must not change
//! a single bit, on any backend, under any scheduling policy, at any
//! slack bound down to 1. This file pins all of that down, together with
//! the typed-failure mode the Mur bugfix introduces: `RunError::Protocol`
//! for sections too thin to carry a Mur face.

use std::sync::Arc;

use fdtd::par::{init_a, plan_a, plan_a_overlap, validate_partition, LocalA};
use fdtd::update::MurGeometryError;
use fdtd::{run_seq_version_a, BoundaryCondition, Params};
use mesh_archetype::driver::{build_msg_processes_with_slack, run_simpar, HostMode, SimParConfig};
use mesh_archetype::plan::InitFn;
use mesh_archetype::{
    run_msg_simulated, run_msg_threaded_slack, try_run_simpar, Plan, SimParOutcome,
};
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::{
    Adversary, AdversarialPolicy, RandomPolicy, RoundRobin, RunError, RunOutcome, SchedulePolicy,
    Simulator, ThreadedConfig,
};

/// The per-rank program on the simulator, every channel's slack bounded to
/// `slack`.
fn simulate(
    plan: &Plan<LocalA>,
    pg: ProcGrid3,
    init: &InitFn<LocalA>,
    slack: Option<usize>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    let (topo, procs) = build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, slack);
    Simulator::new(topo, procs).run(policy)
}

fn assemble_fields_a(out: &mut SimParOutcome<LocalA>, pg: &ProcGrid3) -> [Grid3<f64>; 6] {
    [
        out.assemble_global(pg, |l| &mut l.fields.ex),
        out.assemble_global(pg, |l| &mut l.fields.ey),
        out.assemble_global(pg, |l| &mut l.fields.ez),
        out.assemble_global(pg, |l| &mut l.fields.hx),
        out.assemble_global(pg, |l| &mut l.fields.hy),
        out.assemble_global(pg, |l| &mut l.fields.hz),
    ]
}

fn grids_of(f: &fdtd::Fields) -> [Grid3<f64>; 6] {
    let (nx, ny, nz) = f.extent();
    let mk = |g: &Grid3<f64>| {
        let mut out = Grid3::new(nx, ny, nz, 0);
        out.interior_from_slice(&g.interior_to_vec());
        out
    };
    [mk(&f.ex), mk(&f.ey), mk(&f.ez), mk(&f.hx), mk(&f.hy), mk(&f.hz)]
}

/// The six-policy battery every schedule-independence test runs against.
fn policy_battery(seed: u64) -> Vec<Box<dyn SchedulePolicy>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomPolicy::seeded(seed)),
        Box::new(RandomPolicy::seeded(seed + 1)),
        Box::new(AdversarialPolicy::new(Adversary::LowestFirst)),
        Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
        Box::new(AdversarialPolicy::new(Adversary::PingPong)),
    ]
}

fn tiny_with(bc: BoundaryCondition) -> Arc<Params> {
    let mut p = Params::tiny();
    p.bc = bc;
    Arc::new(p)
}

/// The overlapped plan reproduces the original sequential code bitwise for
/// every process count, under both boundary conditions — the same bar the
/// unsplit plan meets in `versions.rs`.
#[test]
fn overlap_is_bitwise_identical_to_sequential_for_every_p() {
    for bc in [BoundaryCondition::Pec, BoundaryCondition::Mur1] {
        let params = tiny_with(bc);
        let seq = run_seq_version_a(&params);
        let seq_grids = grids_of(&seq.fields);
        let plan = plan_a_overlap(&params);
        for p in [2usize, 3, 4, 8] {
            let pg = ProcGrid3::choose(params.n, p);
            let init = init_a(params.clone());
            let mut out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
            let par_grids = assemble_fields_a(&mut out, &pg);
            for (s, g) in seq_grids.iter().zip(&par_grids) {
                assert!(s.interior_bitwise_eq(g), "overlap diverged at bc={bc:?} P={p}");
            }
        }
    }
}

/// Message passing, simulated under six adversarial-to-random scheduling
/// policies and on real threads: the overlapped plan's snapshots equal the
/// unsplit plan's, which equal the simulated-parallel reference — "on the
/// first and every execution".
#[test]
fn overlap_message_passing_matches_baseline_under_every_policy() {
    let params = tiny_with(BoundaryCondition::Mur1);
    let base = plan_a(&params);
    let over = plan_a_overlap(&params);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_a(params.clone());
    let reference = run_simpar(&base, pg, SimParConfig::default(), |e| init(e)).snapshots;

    for policy in policy_battery(300).iter_mut() {
        let b = run_msg_simulated(&base, pg, &init, policy.as_mut()).unwrap();
        assert_eq!(b.snapshots, reference, "baseline under {}", policy.name());
        let o = run_msg_simulated(&over, pg, &init, policy.as_mut()).unwrap();
        assert_eq!(o.snapshots, reference, "overlap under {}", policy.name());
    }
    for _ in 0..2 {
        let out = run_msg_threaded_slack(&over, pg, &init, None, ThreadedConfig::default());
        assert_eq!(out.unwrap().snapshots, reference, "overlap on real threads");
    }
}

/// Slack changes scheduling freedom, never results: the overlapped plan, like
/// the unsplit one, is bitwise stable at every slack down to 1 (each
/// half-step posts one coalesced message per channel, DESIGN.md §17), and
/// the real-thread execution at slack 3 agrees too. (This file's threaded
/// runs with `None` use the plan's own bound, slack 1.)
#[test]
fn overlap_agrees_bitwise_across_slack_bounds() {
    let params = tiny_with(BoundaryCondition::Mur1);
    let base = plan_a(&params);
    let over = plan_a_overlap(&params);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_a(params.clone());
    let reference = run_msg_simulated(&base, pg, &init, &mut RoundRobin::new()).unwrap().snapshots;

    for slack in [Some(1), Some(4)] {
        let out = simulate(&base, pg, &init, slack, &mut RoundRobin::new())
            .unwrap_or_else(|e| panic!("baseline at slack {slack:?}: {e}"));
        assert_eq!(out.snapshots, reference, "baseline at slack {slack:?}");
    }
    for slack in [Some(1), Some(3), Some(4), None] {
        let out = simulate(&over, pg, &init, slack, &mut RoundRobin::new())
            .unwrap_or_else(|e| panic!("overlap at slack {slack:?}: {e}"));
        assert_eq!(out.snapshots, reference, "overlap at slack {slack:?}");
        if let Some(s) = slack {
            assert!(out.metrics.max_queue_depth() <= s, "slack bound respected");
        }
    }

    let cfg = ssp_runtime::ThreadedConfig::with_watchdog(std::time::Duration::from_secs(30));
    let out = run_msg_threaded_slack(&over, pg, &init, Some(3), cfg).unwrap();
    assert_eq!(out.snapshots, reference, "overlap on threads at slack 3");
}

/// Each overlapped half-step posts *one* coalesced message per channel, and
/// E and H travel on opposite channels of a link, so the plan has no burst
/// to buffer: it runs bitwise at slack 1, 2, 4 and unbounded, simulated and
/// on real threads (where `None` is the plan's own bound, slack 1). (While
/// each component had its own exchange, a half-step posted three messages
/// per channel before any receive and slack below 3 was a typed
/// `RunError::Deadlock`; that burst no longer exists.)
#[test]
fn overlap_runs_bitwise_at_slack_1_2_4_and_unbounded() {
    let params = tiny_with(BoundaryCondition::Pec);
    let over = plan_a_overlap(&params);
    let init = init_a(params.clone());
    for p in [2usize, 4, 8] {
        let pg = ProcGrid3::choose(params.n, p);
        let reference =
            run_simpar(&plan_a(&params), pg, SimParConfig::default(), |e| init(e)).snapshots;
        for slack in [Some(1), Some(2), Some(4), None] {
            for policy in policy_battery(77).iter_mut() {
                let out = simulate(&over, pg, &init, slack, policy.as_mut())
                    .unwrap_or_else(|e| {
                        panic!("P={p} slack {slack:?} under {}: {e}", policy.name())
                    });
                assert_eq!(out.snapshots, reference, "P={p} slack {slack:?}");
                if let Some(s) = slack {
                    assert!(out.metrics.max_queue_depth() <= s, "slack bound respected");
                }
            }
            let cfg =
                ssp_runtime::ThreadedConfig::with_watchdog(std::time::Duration::from_secs(30));
            let out = run_msg_threaded_slack(&over, pg, &init, slack, cfg).unwrap();
            assert_eq!(out.snapshots, reference, "P={p} slack {slack:?} on threads");
        }
    }
}

/// The Mur bugfix end to end: a partition with 1-cell sections on a Mur
/// face is rejected up front by [`validate_partition`], and — if run
/// anyway — every backend surfaces a typed per-rank fault naming the axis,
/// instead of the old `save_mur_layers` panic.
#[test]
fn thin_mur_sections_fault_typed_on_every_backend() {
    let params = tiny_with(BoundaryCondition::Mur1);
    // One rank per x-layer: the x-lo/x-hi ranks own 1-cell-wide Mur faces.
    let thin = ProcGrid3::new(params.n, (params.n.0, 1, 1));
    assert_eq!(
        validate_partition(&params, &thin).unwrap_err(),
        MurGeometryError { axis: 0, extent: 1 }
    );

    let is_mur_protocol = |e: &RunError| match e {
        RunError::Protocol { detail, .. } => {
            detail.contains("axis 0") && detail.contains("at least 2 cells")
        }
        _ => false,
    };

    let init = init_a(params.clone());
    for plan in [plan_a(&params), plan_a_overlap(&params)] {
        // Simulated-parallel driver: the typed local fault.
        let err = try_run_simpar(&plan, thin, SimParConfig::default(), |e| init(e))
            .err()
            .expect("thin Mur section must not run clean");
        assert!(is_mur_protocol(&err), "{err}");

        // Simulated message passing: the same fault through the scheduler.
        let err = run_msg_simulated(&plan, thin, &init, &mut RoundRobin::new()).unwrap_err();
        assert!(is_mur_protocol(&err), "msg backend: {err}");

        // Real threads: an error return, never a poisoned panic.
        let cfg = ThreadedConfig::default();
        let err = run_msg_threaded_slack(&plan, thin, &init, None, cfg).unwrap_err();
        assert!(is_mur_protocol(&err), "threaded backend: {err}");
    }

    // A sane partition of the same problem still validates and runs.
    let ok = ProcGrid3::choose(params.n, 4);
    assert!(validate_partition(&params, &ok).is_ok());
    assert!(run_msg_simulated(&plan_a(&params), ok, &init, &mut RoundRobin::new()).is_ok());
}
