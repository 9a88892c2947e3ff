//! The real parallel runner: rank tasks on an M:N work-stealing pool.
//!
//! This is the target of the paper's final transformation — the "real
//! parallel" left-hand side of its Figure 1. Processes written against
//! [`crate::proc::Process`] run here unchanged. Since PR 6 the execution
//! model is M:N: the `N` ranks of the program are lightweight tasks
//! multiplexed over a core-sized pool of worker threads with per-worker
//! deques and work stealing (see [`crate::sched`]), so rank count is a
//! *program-structure* choice and oversubscription hides latency instead
//! of paying per-rank context-switch tax. Theorem 1 is what licenses not
//! caring which worker runs which rank when: the final state equals the
//! simulated runs' final state, which the `spsc_invariance` suite pins
//! bitwise.
//!
//! Channels are lock-free SPSC rings ([`crate::spsc::SpscRing`]) — the
//! single-reader single-writer restriction Theorem 1 already demands means
//! no channel ever has contending senders or receivers, so the hot path is
//! one release/acquire pair per transfer. A rank that blocks (recv on an
//! empty ring, send on a full one) parks *its task*, yielding the worker
//! back to the pool; the peer's next transfer requeues it (DESIGN.md §12).
//!
//! Real threads cannot inspect each other's state to prove a deadlock, so
//! detection here is a *watchdog*: a monitor thread samples the run and, if
//! every unfinished rank has been parked on a channel edge with no traffic
//! and empty run queues for [`ThreadedConfig::watchdog`], poisons the run
//! and reports the same typed [`RunError::Deadlock`] (with its wait-for
//! cycle) the simulator would have produced. Every whole-program run has
//! one, so a deadlocked program returns an error instead of hanging. Still
//! `std::sync` only: no external lock or executor crates.

use std::time::Duration;

use crate::chan::Topology;
use crate::error::RunError;
use crate::fault::FaultPlan;
use crate::proc::Process;
use crate::sched::{self, PartialSeed};
use crate::trace::RunMetrics;

/// The default [`ThreadedConfig::watchdog`] window.
///
/// The watchdog fires only when every unfinished rank is parked on a
/// channel edge, nothing is queued and no transfer has completed. A
/// computing rank is running, not parked, so no compute step can hold that
/// state. In a whole-program run nothing outside the pool can undo it
/// either: only a rank's transfer wakes a parked rank, and none can run.
/// So the window only has to outlast a race in the watchdog's sampling (a
/// wake landing between two of its reads), which a rescue sweep and a
/// re-check also guard against. One second is that with a wide margin.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(1);

/// Options for [`run_threaded_with`].
#[derive(Debug, Clone, Copy)]
pub struct ThreadedConfig {
    /// The deadlock watchdog's window: the watchdog declares a deadlock
    /// after the whole system has been parked with zero progress and empty
    /// run queues for this long, aborting the run with a typed
    /// [`RunError::Deadlock`] instead of hanging. One second by default
    /// (why that suffices: the firing condition cannot arise in a live
    /// whole-program run, so the window need not outlast any compute step).
    pub watchdog: Duration,
    /// Worker-pool size. `None` (the default) falls back to the
    /// `SSP_WORKERS` environment variable, then to the host's available
    /// parallelism. Always clamped to `1..=n_ranks`.
    pub workers: Option<usize>,
    /// Flight-recorder window: `Some(cap)` records the last `cap`
    /// scheduler/channel/lifecycle events per writer thread into
    /// lock-free overwrite-oldest rings ([`crate::flight::FlightRecorder`])
    /// and drains them into [`ThreadedOutcome::flight`] at run end. `None`
    /// (the default) monomorphizes the scheduler over
    /// [`crate::flight::NoFlight`] — the exact pre-recorder code, with no
    /// timestamp reads, branches, or ring state anywhere on the hot path.
    pub flight: Option<usize>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { watchdog: DEFAULT_WATCHDOG, workers: None, flight: None }
    }
}

impl ThreadedConfig {
    /// Config with a deadlock watchdog of the given window.
    pub fn with_watchdog(window: Duration) -> Self {
        ThreadedConfig { watchdog: window, ..ThreadedConfig::default() }
    }

    /// Same config with an explicit worker-pool size (clamped to at least
    /// 1 and at most the number of ranks at run time).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The worker-pool size a run of `n_ranks` processes gets under this
    /// config: [`ThreadedConfig::workers`], else `SSP_WORKERS`, else the
    /// host's available parallelism, clamped to `1..=n_ranks`.
    pub fn pool_size(&self, n_ranks: usize) -> usize {
        sched::resolve_workers(self.workers, n_ranks)
    }

    /// Same config with the flight recorder enabled at a per-lane window
    /// of `cap` events (clamped to at least 1).
    pub fn with_flight(mut self, cap: usize) -> Self {
        self.flight = Some(cap);
        self
    }

    /// Same config with the flight recorder enabled at the default
    /// per-lane window ([`crate::flight::DEFAULT_FLIGHT_CAP`]).
    pub fn with_flight_default(self) -> Self {
        self.with_flight(crate::flight::DEFAULT_FLIGHT_CAP)
    }
}

/// Result of a successful threaded run.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// Byte snapshot of each rank's final state: every process's
    /// [`crate::proc::Process::rank_snapshots`], processes in id order — so
    /// indexed by process id when every process is one rank.
    pub snapshots: Vec<Vec<u8>>,
    /// Per-channel, per-process, and scheduler execution metrics.
    /// `blocked_nanos` is real wall-clock time a rank spent parked;
    /// `blocked_steps` counts block episodes; `metrics.sched` describes
    /// the worker pool (size, steals, yields, task parks).
    pub metrics: RunMetrics,
    /// Flight-recorder log: `Some` iff [`ThreadedConfig::flight`] was set,
    /// holding the last-N timestamped events per writer thread, drained
    /// after the pool joined. Feed to `perf-sim`'s overlay tooling for a
    /// measured-vs-predicted Chrome trace, or inspect directly.
    pub flight: Option<crate::trace::FlightLog>,
}

/// Run a process collection on the worker pool to termination.
///
/// Channel endpoint violations, [`crate::proc::Effect::Fault`]s, process
/// panics, and deadlocks (after [`ThreadedConfig::watchdog`]) all abort the
/// run with a typed error and release the pool, so an erroneous run
/// returns instead of hanging.
pub fn run_threaded_with<P>(
    topo: &Topology,
    procs: Vec<P>,
    config: ThreadedConfig,
) -> Result<ThreadedOutcome, RunError>
where
    P: Process + 'static,
{
    run_threaded_faulted(topo, procs, config, &FaultPlan::none())
}

/// [`run_threaded_with`] under a deterministic [`FaultPlan`].
///
/// A crash keyed to a process's own step count fires at the same point of
/// that process's action sequence as on the simulated backend — the M:N
/// scheduler retries a blocked channel operation without re-stepping the
/// process, so local step counts are schedule-independent exactly as in
/// the paper's model. The crashed run aborts with [`RunError::Injected`]
/// and releases the pool. A channel stall makes the reader sleep before
/// the matching delivery — delaying, never changing, the result.
pub fn run_threaded_faulted<P>(
    topo: &Topology,
    procs: Vec<P>,
    config: ThreadedConfig,
    faults: &FaultPlan,
) -> Result<ThreadedOutcome, RunError>
where
    P: Process + 'static,
{
    let seed = PartialSeed::fresh(topo, procs.into_iter().enumerate().collect());
    sched::run_full(topo, seed, config, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::ChannelId;
    use crate::policy::RoundRobin;
    use crate::proc::{push_u64, Effect};
    use crate::sim::run_simulated;
    use crate::waitgraph::BlockKind;

    /// A ring of processes circulating an incrementing token. Node 0 injects
    /// the token with value 1; every node forwards `token + 1`; each node
    /// handles the token `laps` times, and node 0 keeps (rather than
    /// forwards) the final token. The final token value is `n * laps`.
    #[derive(Clone)]
    struct RingNode {
        id: usize,
        laps: u64,
        inp: ChannelId,
        out: ChannelId,
        sent_initial: bool,
        handled: u64,
        state: u64,
    }

    impl Process for RingNode {
        type Msg = u64;
        fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
            if let Some(tok) = delivery {
                self.handled += 1;
                if self.id == 0 && self.handled == self.laps {
                    self.state = tok;
                    return Effect::Halt;
                }
                return Effect::Send { chan: self.out, msg: tok + 1 };
            }
            if self.id == 0 && !self.sent_initial {
                self.sent_initial = true;
                return Effect::Send { chan: self.out, msg: 1 };
            }
            if self.handled < self.laps {
                Effect::Recv { chan: self.inp }
            } else {
                Effect::Halt
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = Vec::new();
            push_u64(&mut b, self.state);
            b
        }
    }

    fn ring(n: usize, laps: u64) -> (Topology, Vec<RingNode>) {
        let mut topo = Topology::new(n);
        let mut outs = Vec::new();
        for i in 0..n {
            outs.push(topo.connect(i, (i + 1) % n));
        }
        let procs = (0..n)
            .map(|i| RingNode {
                id: i,
                laps,
                inp: outs[(i + n - 1) % n],
                out: outs[i],
                sent_initial: false,
                handled: 0,
                state: 0,
            })
            .collect();
        (topo, procs)
    }

    #[test]
    fn ring_token_value_is_n_times_laps() {
        let (topo, procs) = ring(4, 3);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let mut expect = Vec::new();
        push_u64(&mut expect, 4 * 3);
        assert_eq!(out.snapshots[0], expect);
    }

    #[test]
    fn threaded_matches_simulated_on_a_token_ring() {
        let (topo, procs) = ring(4, 3);
        let sim = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();

        let (topo2, procs2) = ring(4, 3);
        let thr = run_threaded_with(&topo2, procs2, ThreadedConfig::default()).unwrap();
        assert_eq!(sim.snapshots, thr.snapshots);
    }

    #[test]
    fn threaded_bounded_channels_block_and_wake() {
        // A bounded channel on the pool: the sender's task must park when
        // the queue is full and be requeued as the receiver drains — the
        // run completes and the receiver sees FIFO order.
        use crate::chan::ChannelSpec;
        enum Role {
            Burst { out: ChannelId, n: u64, sent: u64 },
            Drain { inp: ChannelId, n: u64, got: u64, sum: u64 },
        }
        impl Process for Role {
            type Msg = u64;
            fn resume(&mut self, d: Option<u64>) -> Effect<u64> {
                match self {
                    Role::Burst { out, n, sent } => {
                        if *sent < *n {
                            *sent += 1;
                            Effect::Send { chan: *out, msg: *sent }
                        } else {
                            Effect::Halt
                        }
                    }
                    Role::Drain { inp, n, got, sum } => {
                        if let Some(v) = d {
                            *got += 1;
                            // Order-sensitive fold proves FIFO.
                            *sum = sum.wrapping_mul(31).wrapping_add(v);
                        }
                        if *got < *n {
                            Effect::Recv { chan: *inp }
                        } else {
                            Effect::Halt
                        }
                    }
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                match self {
                    Role::Burst { sent, .. } => sent.to_le_bytes().to_vec(),
                    Role::Drain { sum, .. } => sum.to_le_bytes().to_vec(),
                }
            }
            fn msg_size_bytes(_msg: &u64) -> u64 {
                8
            }
        }
        let n = 200u64;
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 2)); // tiny capacity
        let out = run_threaded_with(
            &topo,
            vec![
                Role::Burst { out: c, n, sent: 0 },
                Role::Drain { inp: c, n, got: 0, sum: 0 },
            ],
            ThreadedConfig::default(),
        )
        .unwrap();
        let mut expect: u64 = 0;
        for v in 1..=n {
            expect = expect.wrapping_mul(31).wrapping_add(v);
        }
        assert_eq!(out.snapshots[1], expect.to_le_bytes().to_vec());
        // Metrics: 200 messages of 8 bytes, queue never above capacity.
        assert_eq!(out.metrics.channels[0].messages, 200);
        assert_eq!(out.metrics.channels[0].bytes, 1600);
        assert!(out.metrics.channels[0].max_queue_depth <= 2);
        assert_eq!(out.metrics.procs[0].sends, 200);
        assert_eq!(out.metrics.procs[1].receives, 200);
        // The pool reports its shape in the metrics.
        assert!(out.metrics.sched.workers >= 1);
    }

    #[test]
    fn threaded_repeated_runs_are_identical() {
        // "…identical to those of the corresponding sequential
        // simulated-parallel versions, on the first and every execution."
        let run = || {
            let (topo, procs) = ring(5, 2);
            run_threaded_with(&topo, procs, ThreadedConfig::default()).unwrap().snapshots
        };
        let reference = run();
        for _ in 0..10 {
            assert_eq!(run(), reference);
        }
    }

    #[test]
    fn threaded_result_is_identical_across_pool_sizes() {
        // Theorem 1 at the scheduler level: 1, 2, and 4 workers produce
        // bitwise-identical snapshots (different interleavings, same
        // final state).
        let reference = {
            let (topo, procs) = ring(6, 4);
            run_threaded_with(&topo, procs, ThreadedConfig::default().with_workers(1))
                .unwrap()
                .snapshots
        };
        for workers in [2, 4] {
            let (topo, procs) = ring(6, 4);
            let out = run_threaded_with(
                &topo,
                procs,
                ThreadedConfig::default().with_workers(workers),
            )
            .unwrap();
            assert_eq!(out.snapshots, reference, "pool size {workers} changed the result");
            assert_eq!(out.metrics.sched.workers, workers.min(6));
        }
    }

    #[test]
    fn every_cut_of_the_ring_launches_to_the_simulators_final_state() {
        use crate::sched::launch_partial;
        use crate::sim::Simulator;
        use crate::NoFlight;
        let (topo, procs) = ring(4, 3);
        let reference = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let expect: Vec<_> = reference.snapshots.iter().cloned().enumerate().collect();

        for workers in [1, 2, 4] {
            // The trivial cut, through the whole-program door.
            let (topo, procs) = ring(4, 3);
            let config = ThreadedConfig::default().with_workers(workers);
            let out = run_threaded_with(&topo, procs, config).unwrap();
            assert_eq!(out.snapshots, reference.snapshots, "workers={workers}");

            // Every cut: stop the simulator after each pick prefix (the
            // empty one included) and resume the rest on the pool.
            for cut in 0..=reference.picks.len() {
                let (topo, procs) = ring(4, 3);
                let mut sim = Simulator::new(topo.clone(), procs);
                for &p in &reference.picks[..cut] {
                    sim.step_process_with(p, &mut |_| {}).unwrap();
                }
                let seed = sim.into_seed();
                let none = FaultPlan::none();
                let out = launch_partial(&topo, seed, Some(workers), &none, None, |_| NoFlight)
                    .join()
                    .unwrap();
                assert_eq!(out.snapshots, expect, "workers={workers}, cut {cut}");
                for (got, want) in out.metrics.channels.iter().zip(&reference.metrics.channels) {
                    let (got, want) = ((got.messages, got.bytes), (want.messages, want.bytes));
                    assert_eq!(got, want, "workers={workers}, cut {cut}");
                }
            }
        }
    }

    /// Receive-first symmetric exchange: deadlocks in any runtime.
    struct RecvFirst {
        out: ChannelId,
        inp: ChannelId,
        received: Option<u64>,
        sent: bool,
    }

    impl Process for RecvFirst {
        type Msg = u64;
        fn resume(&mut self, d: Option<u64>) -> Effect<u64> {
            if let Some(v) = d {
                self.received = Some(v);
            }
            if self.received.is_none() {
                return Effect::Recv { chan: self.inp };
            }
            if !self.sent {
                self.sent = true;
                return Effect::Send { chan: self.out, msg: 7 };
            }
            Effect::Halt
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    #[test]
    fn watchdog_turns_a_threaded_deadlock_into_a_typed_error() {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let procs = vec![
            RecvFirst { out: c01, inp: c10, received: None, sent: false },
            RecvFirst { out: c10, inp: c01, received: None, sent: false },
        ];
        let err = run_threaded_with(
            &topo,
            procs,
            ThreadedConfig::with_watchdog(Duration::from_millis(100)),
        )
        .unwrap_err();
        let RunError::Deadlock { blocked, cycle } = err else {
            panic!("expected a typed deadlock, not a hang");
        };
        assert_eq!(blocked.len(), 2);
        assert_eq!(cycle.len(), 2, "the 0↔1 receive cycle is named");
        assert!(cycle.iter().all(|w| w.kind == BlockKind::Recv));
    }

    #[test]
    fn a_default_run_reports_a_deadlock_instead_of_hanging() {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let procs = vec![
            RecvFirst { out: c01, inp: c10, received: None, sent: false },
            RecvFirst { out: c10, inp: c01, received: None, sent: false },
        ];
        let t0 = std::time::Instant::now();
        let err = run_threaded_with(&topo, procs, ThreadedConfig::default()).unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(10), "took {:?}", t0.elapsed());
        let RunError::Deadlock { cycle, .. } = err else {
            panic!("expected a typed deadlock, got {err}");
        };
        let mut names: Vec<_> = cycle.iter().map(|w| (w.proc, w.chan, w.kind)).collect();
        names.sort_by_key(|n| n.0);
        assert_eq!(names, [(0, c10, BlockKind::Recv), (1, c01, BlockKind::Recv)]);
    }

    #[test]
    fn watchdog_does_not_fire_on_a_healthy_run() {
        let (topo, procs) = ring(4, 3);
        let out = run_threaded_with(
            &topo,
            procs,
            ThreadedConfig::with_watchdog(Duration::from_millis(200)),
        )
        .unwrap();
        let mut expect = Vec::new();
        push_u64(&mut expect, 4 * 3);
        assert_eq!(out.snapshots[0], expect);
    }

    #[test]
    fn injected_crash_aborts_the_threaded_run_with_typed_error() {
        let (topo, procs) = ring(4, 3);
        // Node 2's second resume is a blocking receive; kill it there. The
        // other nodes block on the broken ring and must be released.
        let faults = FaultPlan::none().crash(2, 2);
        let err = run_threaded_faulted(&topo, procs, ThreadedConfig::default(), &faults)
            .unwrap_err();
        assert_eq!(err, RunError::Injected { proc: 2, step: 2 });
    }

    #[test]
    fn injected_crash_step_is_pool_size_independent() {
        // Local step counts key fault injection; they must not depend on
        // how many workers the pool has (blocked-op retries don't
        // re-step the process).
        for workers in [1, 2, 4] {
            let (topo, procs) = ring(4, 3);
            let faults = FaultPlan::none().crash(2, 2);
            let err = run_threaded_faulted(
                &topo,
                procs,
                ThreadedConfig::default().with_workers(workers),
                &faults,
            )
            .unwrap_err();
            assert_eq!(err, RunError::Injected { proc: 2, step: 2 }, "workers={workers}");
        }
    }

    #[test]
    fn fault_poisons_the_run_and_releases_blocked_peers() {
        // Process 0 faults immediately; process 1 blocks receiving from it.
        // Without poisoning, 1 would hang forever.
        enum Pair {
            Faulty,
            Waiter { inp: ChannelId },
        }
        impl Process for Pair {
            type Msg = u64;
            fn resume(&mut self, _d: Option<u64>) -> Effect<u64> {
                match self {
                    Pair::Faulty => Effect::Fault {
                        error: RunError::Protocol { proc: 0, detail: "bad".into() },
                    },
                    Pair::Waiter { inp } => Effect::Recv { chan: *inp },
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                Vec::new()
            }
        }
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let err = run_threaded_with(
            &topo,
            vec![Pair::Faulty, Pair::Waiter { inp: c }],
            ThreadedConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, RunError::Protocol { proc: 0, detail: "bad".into() });
    }
}
