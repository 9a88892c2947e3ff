//! Flight recorder on the FDTD application: recording a real mesh
//! workload changes no result byte under any schedule or slack bound,
//! leaves the schedule-invariant communication profile untouched, and
//! costs little enough that the recorder can stay on for whole runs.
//!
//! (What the recorder costs at full scale is `ledger`'s
//! `trace.overhead_ratio`; the timing assertion here is a debug-build
//! smoke with an absolute epsilon so tier-1 stays unflaky.)
//!
//! Every threaded run through `run_msg_threaded_slack` here pins a pool of
//! [`WORKERS`] = 2, below the rank count, so the tiny grid runs grouped:
//! W = 2 processes of contiguous ranks, whose halos cross one channel
//! pair. The last two tests run the per-rank program instead, and compare
//! the simulator's events with the pool's flight log process by process:
//! both backends report their actions in one vocabulary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fdtd::par::{init_a, plan_a};
use fdtd::Params;
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode};
use mesh_archetype::{run_msg_simulated, run_msg_threaded_slack};
use meshgrid::ProcGrid3;
use ssp_runtime::{
    run_threaded_with, Adversary, AdversarialPolicy, ChannelId, Effect, FlightEvent, FlightKind,
    JsonValue, Process, RandomPolicy, RoundRobin, RunError, SchedulePolicy, Simulator,
    ThreadedConfig, Topology, FLIGHT_DUMP_ENV,
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

/// A process's actions as both backends report them: `(kind, chan, bytes)`
/// of its `Compute`, `Send`, `Recv`, `Halt` and `Fault` events, in order.
///
/// `Park` is left out because the backends park at different moments: the
/// simulator posts every receive (a `Park` before each `Recv`), but the
/// pool parks only when it finds the ring empty (or full), which depends
/// on timing. Scheduler transitions (`Run`, `Wake`, `Steal`, `Yield`) are
/// the pool's alone.
fn actions(events: &[FlightEvent], n_procs: usize) -> Vec<Vec<(FlightKind, u32, u64)>> {
    let mut per_proc = vec![Vec::new(); n_procs];
    for e in events {
        use FlightKind::*;
        if matches!(e.kind, Compute | Send | Recv | Halt | Fault) {
            per_proc[e.rank as usize].push((e.kind, e.chan, e.bytes));
        }
    }
    per_proc
}

/// One vocabulary, two backends: on the per-rank FDTD program at three
/// rank counts, both slack bounds and two pool sizes, every process's
/// actions in the simulator's events equal those in the pool's flight log.
#[test]
fn simulator_and_pool_log_the_same_actions_per_process() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let init = init_a(params.clone());
    for p in [2, 4, 8] {
        let pg = ProcGrid3::choose(params.n, p);
        for slack in [None, Some(1)] {
            let build =
                || build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, slack);
            let (topo, procs) = build();
            let mut events = Vec::new();
            Simulator::new(topo, procs)
                .run_observed(&mut RoundRobin::new(), &mut |e| events.push(e))
                .unwrap();
            assert!(events.iter().all(|e| e.nanos == 0), "the simulator has no clock");
            let simulated = actions(&events, p);
            for workers in [1, 2] {
                let (topo, procs) = build();
                let cfg = ThreadedConfig::with_watchdog(Duration::from_secs(30))
                    .with_workers(workers)
                    .with_flight(1 << 16);
                let log = run_threaded_with(&topo, procs, cfg).unwrap().flight.unwrap();
                assert!(log.lanes.iter().all(|l| l.dropped == 0), "the window kept every event");
                let pooled = actions(&log.merged(), p);
                for (rank, (sim, pool)) in simulated.iter().zip(&pooled).enumerate() {
                    assert!(sim.len() > 2 && sim.last().unwrap().0 == FlightKind::Halt);
                    assert_eq!(
                        sim, pool,
                        "P={p}, slack {slack:?}, {workers} workers: process {rank}"
                    );
                }
            }
        }
    }
}

/// Computes, sends, receives, then faults (rank 0); or receives, sends,
/// computes and halts (rank 1).
struct FaultsAfterExchange {
    rank: usize,
    out: ChannelId,
    inp: ChannelId,
    pc: u32,
}

impl Process for FaultsAfterExchange {
    type Msg = u64;
    fn resume(&mut self, _delivery: Option<u64>) -> Effect<u64> {
        self.pc += 1;
        match (self.rank, self.pc) {
            (0, 1) => Effect::Compute { units: 3 },
            (0, 2) => Effect::Send { chan: self.out, msg: 7 },
            (0, 3) => Effect::Recv { chan: self.inp },
            (0, _) => {
                Effect::Fault { error: RunError::Protocol { proc: 0, detail: "bad reply".into() } }
            }
            (_, 1) => Effect::Recv { chan: self.inp },
            (_, 2) => Effect::Send { chan: self.out, msg: 8 },
            (_, 3) => Effect::Compute { units: 2 },
            _ => Effect::Halt,
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn msg_size_bytes(_: &u64) -> u64 {
        8
    }
}

/// A process that returns `Effect::Fault` ends its stream with `Fault` at
/// the same position on both backends. A failed pool run returns no log,
/// so the pool's side is read back from its post-mortem dump; this is the
/// only test in the binary that sets [`FLIGHT_DUMP_ENV`].
#[test]
fn a_process_fault_ends_both_streams_at_the_same_position() {
    let build = || {
        let topo = Topology::fully_connected(2);
        let chan = |a, b| topo.find(a, b).unwrap();
        let procs = (0..2)
            .map(|rank| FaultsAfterExchange {
                rank,
                out: chan(rank, 1 - rank),
                inp: chan(1 - rank, rank),
                pc: 0,
            })
            .collect::<Vec<_>>();
        (topo, procs)
    };
    let fault = RunError::Protocol { proc: 0, detail: "bad reply".into() };
    let (topo, procs) = build();
    let mut events = Vec::new();
    let err = Simulator::new(topo, procs)
        .run_observed(&mut RoundRobin::new(), &mut |e| events.push(e))
        .unwrap_err();
    assert_eq!(err, fault);
    let simulated = actions(&events, 2).swap_remove(0);
    let faulted = (FlightKind::Fault, 0, 0);
    assert_eq!(simulated.last(), Some(&faulted));

    let dir = std::env::temp_dir().join(format!("ssp-vocabulary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("postmortem.json");
    std::env::set_var(FLIGHT_DUMP_ENV, &path);
    for workers in [1, 2] {
        let (topo, procs) = build();
        let cfg = ThreadedConfig::default().with_workers(workers).with_flight(256);
        assert_eq!(run_threaded_with(&topo, procs, cfg).unwrap_err(), fault);
        let doc = std::fs::read_to_string(&path).unwrap();
        let pooled = actions(&postmortem_events(&doc), 2).swap_remove(0);
        assert_eq!(pooled, simulated, "{workers} workers");
    }
    std::env::remove_var(FLIGHT_DUMP_ENV);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The events of a post-mortem dump (`[nanos, "kind", rank, chan, bytes]`
/// per event), every lane merged in time order.
fn postmortem_events(doc: &str) -> Vec<FlightEvent> {
    use FlightKind::*;
    let kinds = [Run, Park, Wake, Steal, Yield, Send, Recv, Compute, Halt, Fault];
    let parsed = ssp_runtime::json::parse(doc).unwrap();
    let mut events = Vec::new();
    for lane in parsed.get("lanes").and_then(JsonValue::as_arr).unwrap() {
        for e in lane.get("events").and_then(JsonValue::as_arr).unwrap() {
            let e = e.as_arr().unwrap();
            let num = |i: usize| e[i].as_u64().unwrap();
            let JsonValue::Str(label) = &e[1] else { panic!("event kind is not a string") };
            let kind = *kinds.iter().find(|k| k.label() == label).unwrap();
            let (rank, chan) = (num(2) as u32, num(3) as u32);
            events.push(FlightEvent { nanos: num(0), kind, rank, chan, bytes: num(4) });
        }
    }
    events.sort_by_key(|e| e.nanos);
    events
}
