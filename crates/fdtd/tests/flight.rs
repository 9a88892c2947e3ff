//! Flight recorder on the FDTD application: recording a real mesh
//! workload changes no result byte under any schedule or slack bound,
//! leaves the schedule-invariant communication profile untouched, and
//! costs little enough that the recorder can stay on for whole runs.
//!
//! (What the recorder costs at full scale is `ledger`'s
//! `trace.overhead_ratio`; the timing assertion here is a debug-build
//! smoke with an absolute epsilon so tier-1 stays unflaky.)
//!
//! Every threaded run here pins a pool of [`WORKERS`] = 2, below the rank
//! count, so the tiny grid runs grouped: W = 2 processes of contiguous
//! ranks, whose halos cross one channel pair.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fdtd::par::{init_a, plan_a};
use fdtd::Params;
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode};
use mesh_archetype::{run_msg_simulated, run_msg_threaded_slack};
use meshgrid::ProcGrid3;
use ssp_runtime::{
    Adversary, AdversarialPolicy, FlightKind, RandomPolicy, RoundRobin, SchedulePolicy, Simulator,
    ThreadedConfig,
};

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

/// The pool (and so the group count W) of every threaded run here.
const WORKERS: usize = 2;

fn watchdog() -> ThreadedConfig {
    ThreadedConfig::with_watchdog(Duration::from_secs(30)).with_workers(WORKERS)
}

/// Theorem 1 with the recorder on: six policies × slack pin down the one
/// answer on the simulator, and the flight-enabled threaded run matches
/// it bitwise at every slack — while actually producing a log.
#[test]
fn recording_fdtd_is_bitwise_invariant_across_policies_and_slack() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_a(params.clone());

    let reference = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap().snapshots;

    for slack in [Some(2), None] {
        for policy in policy_battery(900).iter_mut() {
            let (topo, procs) =
                build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, slack);
            let out = Simulator::new(topo, procs)
                .run(policy.as_mut())
                .unwrap_or_else(|e| panic!("slack {slack:?}, {}: {e}", policy.name()));
            assert_eq!(out.snapshots, reference, "slack {slack:?} under {}", policy.name());
        }
        let out =
            run_msg_threaded_slack(&plan, pg, &init, slack, watchdog().with_flight(1 << 14))
                .unwrap();
        assert_eq!(out.snapshots, reference, "recorded threads at slack {slack:?}");
        let log = out.flight.expect("recorder was enabled");
        let merged = log.merged();
        assert!(
            merged.iter().any(|e| e.kind == FlightKind::Halt),
            "a finished run must record Halts"
        );
        assert!(
            merged.iter().any(|e| e.kind == FlightKind::Send && e.bytes > 0),
            "halo traffic must appear as Send events with payload sizes"
        );
    }
}

/// The recorder leaves the schedule-invariant half of the communication
/// profile untouched: per-process action counts and per-channel traffic are
/// equal between a recorded and an unrecorded threaded run. (Stealing,
/// parking and queue-depth stats are wall-clock-dependent and excluded.)
#[test]
fn recording_does_not_change_the_communication_profile() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let pg = ProcGrid3::choose(params.n, 3);
    let init = init_a(params.clone());

    let off = run_msg_threaded_slack(&plan, pg, &init, None, watchdog()).unwrap();
    assert!(off.flight.is_none());
    let on = run_msg_threaded_slack(&plan, pg, &init, None, watchdog().with_flight(1 << 14))
        .unwrap();

    assert_eq!(on.snapshots, off.snapshots);
    assert_eq!(off.metrics.procs.len(), WORKERS, "three ranks in two groups");
    for (p, (a, b)) in off.metrics.procs.iter().zip(&on.metrics.procs).enumerate() {
        assert_eq!(a.sends, b.sends, "process {p} sends");
        assert_eq!(a.receives, b.receives, "process {p} receives");
        assert_eq!(a.compute_units, b.compute_units, "process {p} compute units");
    }
    for (c, (a, b)) in off.metrics.channels.iter().zip(&on.metrics.channels).enumerate() {
        assert_eq!(a.messages, b.messages, "channel {c} messages");
        assert_eq!(a.bytes, b.bytes, "channel {c} bytes");
    }
}

/// Debug-build overhead smoke: best-of-3 recorded vs unrecorded on a
/// longer FDTD run, interleaved so machine noise hits both sides. The
/// bound is 5% plus a flat 100 ms that absorbs scheduler jitter at this
/// scale.
#[test]
fn recorder_overhead_stays_small() {
    let params = Arc::new(Params { steps: 48, ..Params::tiny() });
    let plan = plan_a(&params);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_a(params.clone());

    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        run_msg_threaded_slack(&plan, pg, &init, None, watchdog()).unwrap();
        best_off = best_off.min(t.elapsed());

        let t = Instant::now();
        run_msg_threaded_slack(&plan, pg, &init, None, watchdog().with_flight(1 << 14))
            .unwrap();
        best_on = best_on.min(t.elapsed());
    }
    let bound = best_off.mul_f64(1.05) + Duration::from_millis(100);
    assert!(
        best_on <= bound,
        "recorded best {best_on:?} exceeds unrecorded best {best_off:?} + 5% + 100ms"
    );
}
