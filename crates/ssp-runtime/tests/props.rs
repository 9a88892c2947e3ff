//! Property-based tests of the runtime: Theorem 1 on randomly generated
//! process systems, FIFO channel discipline, schedule replay, and the
//! binary metrics reader.

use proptest::prelude::*;
use ssp_runtime::proc::Reader;
use ssp_runtime::trace::push_run_metrics;
use ssp_runtime::{
    ChannelId, Effect, FixedSchedule, FlightEvent, Process, RandomPolicy, RoundRobin, RunError,
    SchedMetrics, SchedulePolicy, Simulator, Topology,
};

/// A deterministic scripted process: a list of primitive actions.
#[derive(Debug, Clone)]
enum Act {
    Work(u8),
    Send { chan: usize, val: u64 },
    Recv { chan: usize },
}

#[derive(Debug, Clone)]
struct Scripted {
    acts: Vec<Act>,
    pc: usize,
    chans: Vec<ChannelId>,
    acc: u64,
}

impl Process for Scripted {
    type Msg = u64;
    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        if let Some(v) = delivery {
            // Fold the received value order-sensitively.
            self.acc = self.acc.wrapping_mul(1_000_003).wrapping_add(v);
        }
        if self.pc >= self.acts.len() {
            return Effect::Halt;
        }
        let act = self.acts[self.pc].clone();
        self.pc += 1;
        match act {
            Act::Work(u) => {
                self.acc = self.acc.wrapping_add(u as u64);
                Effect::Compute { units: u as u64 }
            }
            Act::Send { chan, val } => Effect::Send { chan: self.chans[chan], msg: val },
            Act::Recv { chan } => Effect::Recv { chan: self.chans[chan] },
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        self.acc.to_le_bytes().to_vec()
    }
}

/// Build a 2-process system with matched send/receive counts so every run
/// terminates: process 0 sends `k` values then receives `m`; process 1
/// receives `k` then sends `m`; interleaved with local work.
fn matched_pair(k: usize, m: usize, salt: u64) -> (Topology, Vec<Scripted>) {
    let mut topo = Topology::new(2);
    let c01 = topo.connect(0, 1);
    let c10 = topo.connect(1, 0);
    let mut a0 = Vec::new();
    let mut a1 = Vec::new();
    for i in 0..k {
        a0.push(Act::Work((i % 7) as u8));
        a0.push(Act::Send { chan: 0, val: salt.wrapping_add(i as u64) });
        a1.push(Act::Recv { chan: 0 });
    }
    for j in 0..m {
        a1.push(Act::Send { chan: 1, val: salt.wrapping_mul(3).wrapping_add(j as u64) });
        a1.push(Act::Work((j % 5) as u8));
        a0.push(Act::Recv { chan: 1 });
    }
    let procs = vec![
        Scripted { acts: a0, pc: 0, chans: vec![c01, c10], acc: 1 },
        Scripted { acts: a1, pc: 0, chans: vec![c01, c10], acc: 2 },
    ];
    (topo, procs)
}

proptest! {
    /// Theorem 1 on random matched systems: every random schedule reaches
    /// the round-robin final state.
    #[test]
    fn random_schedules_reach_one_state(
        k in 0usize..10, m in 0usize..10, salt in 0u64..1000, seed in 0u64..1000,
    ) {
        let (topo, procs) = matched_pair(k, m, salt);
        let reference = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap();
        let (topo, procs) = matched_pair(k, m, salt);
        let out = Simulator::new(topo, procs)
            .run(&mut RandomPolicy::seeded(seed))
            .unwrap();
        prop_assert!(reference.same_final_state(&out));
    }

    /// Replaying a run's picks reproduces the identical picks, metrics and
    /// final state (determinism of the simulated runner).
    #[test]
    fn schedule_replay_is_exact(k in 1usize..8, m in 1usize..8, seed in 0u64..500) {
        let (topo, procs) = matched_pair(k, m, 7);
        let first = Simulator::new(topo, procs)
            .run(&mut RandomPolicy::seeded(seed))
            .unwrap();
        let (topo, procs) = matched_pair(k, m, 7);
        let mut replay = FixedSchedule::new(first.picks.clone());
        let second = Simulator::new(topo, procs).run(&mut replay).unwrap();
        prop_assert_eq!(replay.deviations, 0, "a recorded schedule replays verbatim");
        prop_assert_eq!(first.picks, second.picks);
        prop_assert_eq!(first.metrics, second.metrics);
        prop_assert_eq!(first.snapshots, second.snapshots);
    }

    /// Messages arrive in FIFO order regardless of scheduling: the
    /// receiver's order-sensitive accumulator matches round-robin's.
    #[test]
    fn fifo_under_any_schedule(k in 2usize..12, seed in 0u64..500) {
        let (topo, procs) = matched_pair(k, 0, 99);
        let rr = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap();
        let (topo, procs) = matched_pair(k, 0, 99);
        let rnd = Simulator::new(topo, procs)
            .run(&mut RandomPolicy::seeded(seed))
            .unwrap();
        prop_assert_eq!(rr.snapshots[1].clone(), rnd.snapshots[1].clone());
    }

    /// The binary metrics reader (`GROUP_DONE` carries this encoding) reads
    /// a real run's metrics back exactly, refuses every truncation with a
    /// typed error, and is total over single-byte mutations.
    #[test]
    fn metrics_reader_is_total(
        k in 0usize..8,
        m in 0usize..8,
        workers in 0usize..64,
        pos_frac in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let (topo, procs) = matched_pair(k, m, 11);
        let run = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap();
        let mut metrics = run.metrics;
        metrics.sched = SchedMetrics { workers, steals: k as u64, yields: m as u64, task_parks: 3 };
        let mut full = Vec::new();
        push_run_metrics(&mut full, &metrics);
        let back = Reader::new("metrics", &full).run_metrics().unwrap();
        prop_assert_eq!(back.counters(), metrics.counters());
        prop_assert_eq!(&back.procs, &metrics.procs);
        prop_assert_eq!(back.sched, metrics.sched);
        for cut in 0..full.len() {
            let r = Reader::new("metrics", &full[..cut]).run_metrics();
            prop_assert!(matches!(r, Err(RunError::Protocol { .. })), "cut {}: {:?}", cut, r);
        }
        let mut bytes = full.clone();
        let pos = (bytes.len() as f64 * pos_frac) as usize % bytes.len();
        bytes[pos] = byte as u8;
        let _ = Reader::new("metrics", &bytes).run_metrics();
    }

    /// Per-process projections of the simulator's events (every kind,
    /// `Park` included) are identical across interleavings (the
    /// determinism premise of the theorem's proof).
    #[test]
    fn projections_are_schedule_invariant(k in 1usize..8, m in 1usize..8, seed in 0u64..300) {
        let events = |policy: &mut dyn SchedulePolicy| {
            let (topo, procs) = matched_pair(k, m, 5);
            let mut events = Vec::new();
            Simulator::new(topo, procs).run_observed(policy, &mut |e| events.push(e)).unwrap();
            events
        };
        let a = events(&mut RoundRobin::new());
        let b = events(&mut RandomPolicy::seeded(seed));
        for p in 0..2 {
            let projection = |evs: &[FlightEvent]| -> Vec<FlightEvent> {
                evs.iter().copied().filter(|e| e.rank == p).collect()
            };
            prop_assert_eq!(projection(&a), projection(&b));
        }
    }
}
