//! M:N work-stealing rank scheduler — the threaded runner's execution core.
//!
//! The paper's target program fixes the *number of processes* from the
//! problem decomposition, not from the machine; a 64-rank mesh is a
//! perfectly good program on a 4-core host. One OS thread per rank makes
//! that structure expensive: oversubscription pays context-switch tax on
//! every blocking receive instead of hiding latency. This module runs the
//! same process collection as `N` lightweight *tasks* multiplexed over `M`
//! worker threads (`M` ≈ cores), with per-worker deques and work stealing.
//!
//! Theorem 1 is what licenses the whole design: every maximal fair
//! interleaving of the processes reaches the same final state, so the
//! scheduler may interleave rank tasks arbitrarily — run them to their next
//! blocking edge, requeue them in steal order, migrate them across workers
//! — and the snapshots are still bitwise identical to the simulator's.
//! (The `spsc_invariance` suite pins exactly that.)
//!
//! The task model is cheap because a [`Process`] is already a resumable
//! state machine: a rank's continuation is simply its `Process` value plus
//! a possible pending channel operation, boxed in a per-rank slot. No stack
//! switching, no unsafe continuation capture.
//!
//! ## Yield-on-block protocol
//!
//! A rank that cannot complete a channel operation (recv on an empty ring,
//! send on a full bounded ring) *parks the task, not the worker*:
//!
//! 1. record the pending operation and the wait edge, and return the task
//!    box to its slot;
//! 2. raise the channel-side waiting flag (`Chan::reader_waiting` /
//!    `writer_waiting`), then re-check the ring non-destructively;
//! 3. if still not ready, CAS the rank's state `RUN → PARKED` and hand the
//!    worker back to the pool.
//!
//! The peer's transfer does the mirror image — push/pop, fence, consume the
//! waiting flag, `Shared::wake_task` — so a wake can only be lost if both
//! sides' re-checks miss, which the SeqCst fences forbid (Dekker pattern).
//! A `RUN/PARKED/NOTIFIED` state machine makes wakes exactly-once: only the
//! CAS winner enqueues the rank, and a wake that races a running task
//! leaves a `NOTIFIED` token that forces one spurious (harmless) re-check
//! at the task's next park attempt. As defense in depth, idle workers and
//! the watchdog run a *rescue sweep* (`Shared::rescue`) that requeues any
//! parked rank whose wait condition is already satisfied — sound because it
//! wakes only genuinely ready ranks, so it can never mask a real deadlock.
//!
//! ## Watchdog under M:N
//!
//! "No progress for the window" is no longer evidence of deadlock: with
//! more ranks than workers, runnable ranks sit *queued* while nothing
//! happens to the progress counter. The revised firing condition is:
//! progress unchanged for the window **and** every unfinished rank is
//! `PARKED` on a channel edge **and** the run queues are empty — i.e. no
//! rank can run and none ever will. A rescue sweep runs first; if it
//! requeues anything the stall clock resets instead of firing.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chan::{ChannelId, Topology};
use crate::error::RunError;
use crate::fault::FaultPlan;
use crate::flight::{FlightRecorder, FlightSink, NoFlight};
use crate::proc::{Effect, ProcId, Process};
use crate::sim::ProcState;
use crate::spsc::{ParkSlot, SpscRing};
use crate::threaded::{ThreadedConfig, ThreadedOutcome};
use crate::trace::{FlightKind, FlightLog, ProcMetrics, RunMetrics};
use crate::waitgraph::{self, BlockKind};

/// Environment variable overriding the worker-pool size (useful for CI on
/// single-core runners, where stealing would otherwise never be exercised).
pub const WORKERS_ENV: &str = "SSP_WORKERS";

/// How long an idle worker sleeps between re-checks when the system is
/// quiescent; bounds the staleness of poison/done checks exactly like the
/// old per-thread wait slice.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Consecutive actions a rank may take before yielding its worker, so a
/// compute-heavy rank cannot starve queued peers (the fairness half of
/// "maximal *fair* interleaving").
const YIELD_BUDGET: u32 = 64;

/// Task states for the exactly-once wake protocol.
const RUN: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

/// Lock that tolerates poisoning: a panicking worker must not wedge
/// harvest or peer workers (the run is aborting via the verdict anyway).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Pick the worker-pool size: [`pool_share`] of the whole host, never more
/// than the number of ranks.
pub(crate) fn resolve_workers(configured: Option<usize>, n_ranks: usize) -> usize {
    pool_share(configured, 1).min(n_ranks.max(1))
}

/// The worker-pool size of one of `processes` processes sharing this host:
/// explicit config, then the `SSP_WORKERS` environment variable, then
/// ⌊available parallelism ÷ `processes`⌋; always at least 1.
pub fn pool_share(configured: Option<usize>, processes: usize) -> usize {
    configured
        .or_else(|| std::env::var(WORKERS_ENV).ok().and_then(|v| v.parse().ok()))
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |p| p.get()) / processes.max(1)
        })
        .max(1)
}

/// A channel operation a parked rank retries when rescheduled.
enum Pending<M> {
    Recv { chan: ChannelId },
    Send { chan: ChannelId, msg: M, bytes: u64 },
}

/// One rank as a schedulable task: the process (its own continuation), the
/// pending delivery/operation, and its private accounting. Owned by
/// whichever worker popped the rank's id from a queue; stored in
/// [`Shared::slots`] while parked or queued.
struct Task<P: Process> {
    proc: P,
    delivery: Option<P::Msg>,
    pending: Option<Pending<P::Msg>>,
    pm: ProcMetrics,
    /// Per-channel deliveries completed, for stall-fault ordinals.
    recvs_done: Vec<u64>,
    /// Set when the task parks; drained into `blocked_nanos` on resume.
    parked_since: Option<Instant>,
    /// Final snapshots ([`Process::rank_snapshots`]), filled at
    /// [`Effect::Halt`].
    result: Option<Vec<Vec<u8>>>,
}

/// Carries a message whose reader lives in another process: called by the
/// sending worker inside the send; returns the route that carried it
/// (`DataStar`, `DataDirect` or `DataShm`). An error aborts the run.
pub type EgressSink<M> = Box<dyn FnMut(ChannelId, M) -> Result<FlightKind, RunError> + Send>;

/// How one channel is realized by this scheduler instance. A full-program
/// run hosts both endpoints of every channel (`Direct`); a *partial* run
/// ([`launch_partial`], the distributed backend's worker side) hosts a
/// subset of the ranks, and a channel whose peer rank lives in another
/// process becomes a port: `Egress` (local writer, remote reader — a send
/// is the sending worker's own call of the run's [`EgressSink`]; the ring
/// stays empty) or `Ingress` (remote writer, local reader — the ring is fed
/// by the transport's inbound thread via [`Gateway::push_inbound`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChanKind {
    /// Both endpoints hosted here: the normal task-to-task ring.
    Direct,
    /// Writer hosted here; a send calls the run's [`EgressSink`].
    Egress,
    /// Reader hosted here; messages arrive via [`Gateway::push_inbound`].
    Ingress,
    /// Neither endpoint hosted here; the ring exists but is never touched.
    Absent,
}

/// A single-reader single-writer channel: lock-free ring, the two endpoint
/// ranks, their task-level waiting flags, and relaxed traffic counters
/// (only the writer bumps them, so relaxed ordering is exact).
struct Chan<M> {
    ring: SpscRing<M>,
    writer: ProcId,
    reader: ProcId,
    /// How this instance hosts the channel's endpoints (fixed at launch).
    kind: ChanKind,
    /// The reader rank parked (or is about to park) on the empty edge.
    reader_waiting: AtomicBool,
    /// The writer rank parked (or is about to park) on the full edge.
    writer_waiting: AtomicBool,
    messages: AtomicU64,
    bytes: AtomicU64,
    max_depth: AtomicUsize,
}

impl<M> Chan<M> {
    /// Non-destructive "a push would succeed" check. Sound for the parked
    /// writer's re-check: only that writer can push, so space cannot be
    /// consumed out from under it.
    fn has_space(&self) -> bool {
        match self.ring.capacity() {
            Some(cap) => self.ring.len() < cap,
            None => true,
        }
    }
}

/// One worker's scheduling state: its deque (owner pops the front,
/// stealers pop the back) and the OS-level park slot it sleeps on when the
/// whole system is quiescent.
struct WorkerState {
    deque: Mutex<VecDeque<ProcId>>,
    park: ParkSlot,
}

/// Everything shared between workers and the watchdog. Generic over the
/// flight-recorder sink so the disabled path ([`NoFlight`], zero-sized)
/// monomorphizes to exactly the pre-recorder scheduler.
struct Shared<P: Process, F: FlightSink> {
    topo: Topology,
    chans: Vec<Chan<P::Msg>>,
    /// Task boxes, one per rank. Possession of a rank id popped from a
    /// queue grants exclusive run rights; the mutex is the (uncontended)
    /// handoff point that moves the box between workers.
    slots: Vec<Mutex<Option<Task<P>>>>,
    /// Per-rank `RUN`/`PARKED`/`NOTIFIED` for the wake protocol.
    states: Vec<AtomicU8>,
    /// What each rank is blocked on; meaningful only while the rank's
    /// state is `PARKED` (written before the parking CAS publishes it).
    waits: Mutex<Vec<Option<(ChannelId, BlockKind)>>>,
    workers: Vec<WorkerState>,
    /// Overflow queue for wakes issued by non-worker threads.
    injector: Mutex<VecDeque<ProcId>>,
    /// Ranks hosted by this instance; a full run hosts all of them. The
    /// run is over when `finished` reaches this.
    target: usize,
    /// The sink of sends on [`ChanKind::Egress`] channels, one at a time.
    egress: Mutex<Option<EgressSink<P::Msg>>>,
    faults: FaultPlan,
    /// Set when the run is aborted; workers drop their task and exit.
    poisoned: AtomicBool,
    /// Set when the run is over (all ranks halted, or aborted).
    done: AtomicBool,
    /// Bumped on every completed transfer: the watchdog's notion of "the
    /// system is still moving".
    progress: AtomicU64,
    /// Ranks that have halted (reached [`Effect::Halt`]).
    finished: AtomicUsize,
    /// Workers currently in the idle dance; enqueuers wake the pool only
    /// when this is nonzero, keeping the busy-path cost one load.
    idle_workers: AtomicUsize,
    steals: AtomicU64,
    yields: AtomicU64,
    task_parks: AtomicU64,
    /// The error that aborted the run, if any. First writer wins.
    verdict: Mutex<Option<RunError>>,
    /// Where the watchdog sleeps between polls; `finish` force-wakes it so
    /// run teardown never waits out a poll interval.
    watchdog_park: ParkSlot,
    /// Flight-recorder sink. [`NoFlight`] (zero-sized, all methods empty)
    /// when recording is disabled; [`FlightRecorder`] lanes are indexed
    /// `0..n_workers` for workers, then `control` (watchdog + pre-spawn
    /// lifecycle), then `gateway` (arrivals through
    /// [`Gateway::push_inbound`]).
    flight: F,
}

impl<P: Process, F: FlightSink> Shared<P, F> {
    /// The flight lane owned by the watchdog/control side.
    fn control_lane(&self) -> usize {
        self.workers.len()
    }

    /// The flight lane owned by the transport's inbound thread.
    fn gateway_lane(&self) -> usize {
        self.workers.len() + 1
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Abort the run with `err` (first error wins) and release the pool.
    fn fail(&self, err: RunError) {
        lock(&self.verdict).get_or_insert(err);
        self.poisoned.store(true, Ordering::SeqCst);
        self.finish();
    }

    /// Mark the run over and wake every worker so it can observe that.
    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.park.force_wake();
        }
        self.watchdog_park.force_wake();
    }

    /// Put a runnable rank on a queue: the waking worker's own deque when
    /// known (locality), the injector otherwise. Wakes sleeping workers.
    fn enqueue(&self, rank: ProcId, home: Option<usize>) {
        match home {
            Some(w) => lock(&self.workers[w].deque).push_back(rank),
            None => lock(&self.injector).push_back(rank),
        }
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            for w in &self.workers {
                w.park.wake();
            }
        }
    }

    /// Make a parked rank runnable, exactly once. Returns `true` if this
    /// call won the `PARKED → RUN` transition (and enqueued the rank);
    /// a wake racing a running task leaves a `NOTIFIED` token instead,
    /// which the task consumes at its next park attempt. `lane` is the
    /// *caller's* flight lane — a wake is recorded against the thread
    /// that issued it.
    fn wake_task(&self, rank: ProcId, home: Option<usize>, lane: usize) -> bool {
        loop {
            match self.states[rank].compare_exchange(
                PARKED,
                RUN,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.flight.record(lane, FlightKind::Wake, rank, 0, 0);
                    self.enqueue(rank, home);
                    return true;
                }
                Err(NOTIFIED) => return false,
                Err(_) => {
                    // RUN: leave a token; retry if the task parked meanwhile.
                    if self.states[rank]
                        .compare_exchange(RUN, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return false;
                    }
                }
            }
        }
    }

    /// Requeue every parked rank whose wait condition is already satisfied.
    /// Defense in depth against a lost wake; sound because only genuinely
    /// ready ranks move, so a real deadlock is never masked. Returns how
    /// many ranks it woke. `lane` is the sweeping thread's flight lane.
    fn rescue(&self, lane: usize) -> usize {
        let waits: Vec<Option<(ChannelId, BlockKind)>> = lock(&self.waits).clone();
        let mut woken = 0;
        for (rank, wait) in waits.iter().enumerate() {
            let Some((chan, kind)) = *wait else { continue };
            if self.states[rank].load(Ordering::SeqCst) != PARKED {
                continue;
            }
            let c = &self.chans[chan.0];
            let ready = match kind {
                BlockKind::Recv => !c.ring.is_empty(),
                BlockKind::Send => c.has_space(),
            };
            if ready && self.wake_task(rank, None, lane) {
                woken += 1;
            }
        }
        woken
    }

    /// Total ranks sitting in run queues right now (racy snapshot).
    fn queued_tasks(&self) -> usize {
        let mut q = lock(&self.injector).len();
        for w in &self.workers {
            q += lock(&w.deque).len();
        }
        q
    }

    /// Reclaim the task box after a failed park (lost race or `NOTIFIED`),
    /// still holding the pending operation it was parked with — a send's
    /// message lives there, so the caller takes it back.
    fn reclaim(&self, rank: ProcId) -> Task<P> {
        let mut task = lock(&self.slots[rank])
            .take()
            .expect("rank still owned by this worker");
        if let Some(t0) = task.parked_since.take() {
            task.pm.blocked_nanos += t0.elapsed().as_nanos() as u64;
        }
        task
    }
}

/// What a channel-operation attempt left the worker with.
enum After<P: Process> {
    /// The operation completed; keep running this rank.
    Run(Task<P>),
    /// The rank parked (task re-slotted) or the run ended; the worker
    /// should look for other work.
    Release,
}

/// Build the channel fabric for one scheduler instance. `hosted` marks the
/// ranks this instance runs. A channel with both endpoints hosted is
/// [`ChanKind::Direct`] (spec capacity honored) — every channel, when all
/// ranks are hosted; one with a remote endpoint becomes `Egress`/`Ingress`
/// — forced *unbounded*, because flow control across the process boundary
/// belongs to the transport — or `Absent`.
fn build_chans<M>(topo: &Topology, hosted: &[bool]) -> Vec<Chan<M>> {
    topo.specs()
        .iter()
        .map(|s| {
            let kind = match (hosted[s.writer], hosted[s.reader]) {
                (true, true) => ChanKind::Direct,
                (true, false) => ChanKind::Egress,
                (false, true) => ChanKind::Ingress,
                (false, false) => ChanKind::Absent,
            };
            let capacity = if kind == ChanKind::Direct { s.capacity } else { None };
            Chan {
                ring: SpscRing::new(capacity),
                writer: s.writer,
                reader: s.reader,
                kind,
                reader_waiting: AtomicBool::new(false),
                writer_waiting: AtomicBool::new(false),
                messages: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                max_depth: AtomicUsize::new(0),
            }
        })
        .collect()
}

/// Assemble the shared state for a pool of `n_workers` over `slots` (one
/// box per rank; `None` for ranks this instance does not host).
#[allow(clippy::too_many_arguments)]
fn build_shared<P: Process, F: FlightSink>(
    topo: &Topology,
    slots: Vec<Option<Task<P>>>,
    chans: Vec<Chan<P::Msg>>,
    egress: Option<EgressSink<P::Msg>>,
    target: usize,
    finished: usize,
    n_workers: usize,
    faults: &FaultPlan,
    flight: F,
) -> Arc<Shared<P, F>> {
    let n = slots.len();
    Arc::new(Shared {
        topo: topo.clone(),
        chans,
        slots: slots.into_iter().map(Mutex::new).collect(),
        states: (0..n).map(|_| AtomicU8::new(RUN)).collect(),
        waits: Mutex::new(vec![None; n]),
        workers: (0..n_workers)
            .map(|_| WorkerState { deque: Mutex::new(VecDeque::new()), park: ParkSlot::new() })
            .collect(),
        injector: Mutex::new(VecDeque::new()),
        target,
        egress: Mutex::new(egress),
        faults: faults.clone(),
        poisoned: AtomicBool::new(false),
        done: AtomicBool::new(false),
        progress: AtomicU64::new(0),
        finished: AtomicUsize::new(finished),
        idle_workers: AtomicUsize::new(0),
        steals: AtomicU64::new(0),
        yields: AtomicU64::new(0),
        task_parks: AtomicU64::new(0),
        verdict: Mutex::new(None),
        watchdog_park: ParkSlot::new(),
        flight,
    })
}

/// Spawn the worker pool (and the watchdog, if a window is given).
fn spawn_pool<P: Process + 'static, F: FlightSink>(
    shared: &Arc<Shared<P, F>>,
    n_workers: usize,
    watchdog: Option<Duration>,
) -> (Vec<JoinHandle<()>>, Option<JoinHandle<()>>) {
    let handles = (0..n_workers)
        .map(|w| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                // A panic here would be a scheduler bug, not a process
                // panic (those are caught per-resume); still convert it to
                // a verdict so sibling workers and harvest are released.
                if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, w))).is_err() {
                    shared.fail(RunError::ThreadPanic { proc: 0 });
                }
            })
        })
        .collect();
    let watchdog = watchdog.map(|window| {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || watchdog_loop(&shared, window))
    });
    (handles, watchdog)
}

/// Join the pool and harvest the verdict, metrics, and snapshots. The
/// verdict describes the root cause better than any secondary state the
/// tasks were left in, so it wins over partial results. An abnormal end
/// with the recorder enabled writes a post-mortem black box if
/// [`crate::flight::FLIGHT_DUMP_ENV`] names a path.
fn harvest<P: Process, F: FlightSink>(
    shared: &Arc<Shared<P, F>>,
    handles: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    n_workers: usize,
) -> Result<Harvest, RunError> {
    for h in handles {
        let _ = h.join();
    }
    if let Some(h) = watchdog {
        let _ = h.join();
    }
    if let Some(v) = lock(&shared.verdict).take() {
        if F::ENABLED {
            if let Some(log) = shared.flight.drain() {
                crate::flight::write_postmortem(&v, &log);
            }
        }
        return Err(v);
    }
    let n = shared.topo.n_procs();
    let mut metrics = RunMetrics::for_topology(&shared.topo);
    metrics.sched.workers = n_workers;
    metrics.sched.steals = shared.steals.load(Ordering::Relaxed);
    metrics.sched.yields = shared.yields.load(Ordering::Relaxed);
    metrics.sched.task_parks = shared.task_parks.load(Ordering::Relaxed);
    let mut snapshots = vec![vec![Vec::new()]; n];
    for (rank, snap_slot) in snapshots.iter_mut().enumerate() {
        if let Some(mut task) = lock(&shared.slots[rank]).take() {
            if let Some(t0) = task.parked_since.take() {
                task.pm.blocked_nanos += t0.elapsed().as_nanos() as u64;
            }
            metrics.procs[rank] = task.pm;
            if let Some(snap) = task.result.take() {
                *snap_slot = snap;
            }
        }
    }
    for (i, c) in shared.chans.iter().enumerate() {
        metrics.channels[i].messages = c.messages.load(Ordering::Relaxed);
        metrics.channels[i].bytes = c.bytes.load(Ordering::Relaxed);
        metrics.channels[i].max_queue_depth = c.max_depth.load(Ordering::Relaxed);
    }
    Ok(Harvest { snapshots, metrics, flight: shared.flight.drain() })
}

/// A joined pool's results: per process, the snapshots of the ranks it
/// runs ([`Process::rank_snapshots`]; one empty snapshot for a process that
/// did not halt here), then the metrics and flight log.
struct Harvest {
    snapshots: Vec<Vec<Vec<u8>>>,
    metrics: RunMetrics,
    flight: Option<FlightLog>,
}

impl Harvest {
    /// The whole-run outcome: one snapshot per rank, processes in order.
    fn into_outcome(self) -> ThreadedOutcome {
        let snapshots = self.snapshots.into_iter().flatten().collect();
        ThreadedOutcome { snapshots, metrics: self.metrics, flight: self.flight }
    }
}

/// Run a whole program — `seed` hosts every rank of `topo` — over a worker
/// pool and harvest it. The entry point behind every
/// [`crate::threaded`] `run_threaded_*`: a fresh start passes
/// [`PartialSeed::fresh`], a resumed run a simulator's
/// [`crate::sim::Simulator::into_seed`]. Chooses between the two
/// monomorphizations: [`NoFlight`] (the default — the compile-time no-op
/// path) and [`FlightRecorder`] when [`ThreadedConfig::flight`] is set.
pub(crate) fn run_full<P>(
    topo: &Topology,
    seed: PartialSeed<P>,
    config: ThreadedConfig,
    faults: &FaultPlan,
) -> Result<ThreadedOutcome, RunError>
where
    P: Process + 'static,
{
    assert_eq!(seed.procs.len(), topo.n_procs(), "process count must match topology");
    let n_workers = resolve_workers(config.workers, seed.procs.len());
    let watchdog = Some(config.watchdog);
    match config.flight {
        None => launch(topo, seed, n_workers, watchdog, faults, None, NoFlight).harvest(),
        Some(cap) => {
            let flight = FlightRecorder::new(n_workers, cap);
            launch(topo, seed, n_workers, watchdog, faults, None, flight).harvest()
        }
    }
    .map(Harvest::into_outcome)
}

/// A running scheduler instance. One hosting a *subset* of a topology's
/// ranks is the distributed backend's worker side: obtain it from
/// [`launch_partial`], feed its ingress channels through
/// [`PartialRun::gateway`], then collect the hosted ranks' results with
/// [`PartialRun::join`].
pub struct PartialRun<P: Process, F: FlightSink = NoFlight> {
    shared: Arc<Shared<P, F>>,
    hosted: Vec<ProcId>,
    n_workers: usize,
    handles: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// Final state of a partial run: snapshots for the hosted ranks only, plus
/// this instance's *slice* of the run metrics (its ranks' step counts, and
/// traffic counters for every channel whose writer it hosts). The
/// supervisor sums slices across workers to reconstruct full-run metrics.
pub struct PartialOutcome {
    /// `(rank, snapshot)` for each hosted rank, in assignment order (a
    /// process running several ranks contributes one per rank, in rank
    /// order, each under the process's id: [`Process::rank_snapshots`]).
    pub snapshots: Vec<(ProcId, Vec<u8>)>,
    /// This instance's metrics slice.
    pub metrics: RunMetrics,
    /// This instance's flight log (`Some` iff launched with the recorder).
    pub flight: Option<FlightLog>,
}

impl<P: Process, F: FlightSink> PartialRun<P, F> {
    /// A transport-side handle to this run; clone one per bridge thread.
    pub fn gateway(&self) -> Gateway<P, F> {
        Gateway { shared: Arc::clone(&self.shared) }
    }

    /// Block until the run is over and harvest it, snapshots indexed by
    /// global rank.
    fn harvest(self) -> Result<Harvest, RunError> {
        harvest(&self.shared, self.handles, self.watchdog, self.n_workers)
    }

    /// Block until every hosted rank halts (or the run is poisoned) and
    /// harvest snapshots and the local metrics slice.
    pub fn join(self) -> Result<PartialOutcome, RunError> {
        let hosted = self.hosted.clone();
        let Harvest { mut snapshots, metrics, flight } = self.harvest()?;
        let snapshots = hosted
            .iter()
            .flat_map(|&r| std::mem::take(&mut snapshots[r]).into_iter().map(move |s| (r, s)))
            .collect();
        Ok(PartialOutcome { snapshots, metrics, flight })
    }
}

/// A consistent cut of a rank subset, ready to seed a scheduler instance —
/// the one typed form of a cut, and what every launch starts from. A fresh
/// start is the trivial cut ([`PartialSeed::fresh`]);
/// [`crate::sim::Simulator::into_seed`] exports the cut of a whole
/// program; the distributed backend decodes its checkpoint-resumed
/// migration payload (a sealed [`crate::recover::GroupManifest`]) into
/// one. Theorem 1 licenses resuming per subset:
/// given every hosted rank's state, the contents of internal queues, and
/// the delivery ordinals of cross channels, the cut plus the steps after it
/// is just another maximal interleaving.
pub struct PartialSeed<P: Process> {
    /// `(global rank, process, scheduler status, prefix metrics)` for each
    /// hosted rank.
    pub procs: Vec<(ProcId, P, ProcState<P::Msg>, ProcMetrics)>,
    /// Queue contents at the cut for channels *internal* to the hosted
    /// set: `(chan, messages front-to-back)`.
    pub queues: Vec<(usize, Vec<P::Msg>)>,
    /// Deliveries completed before the cut, per channel (full topology
    /// length) — seeds hosted readers' receive ordinals so stall-fault
    /// keys and dedup gates stay aligned across the cut.
    pub consumed: Vec<u64>,
    /// Writer-side traffic counters at the cut, per channel:
    /// `(messages, bytes, max_depth)`. Applied to channels whose writer
    /// is hosted; `messages` also tells the transport where the channel's
    /// outbound sequence numbering resumes.
    pub counters: Vec<(u64, u64, u64)>,
}

impl<P: Process> PartialSeed<P> {
    /// The cut before any step: `procs` — pairs of *global* rank id and
    /// process — at their initial states, nothing in flight on `topo`.
    pub fn fresh(topo: &Topology, procs: Vec<(ProcId, P)>) -> Self {
        let n_chans = topo.n_channels();
        PartialSeed {
            procs: procs
                .into_iter()
                .map(|(r, p)| (r, p, ProcState::Ready, ProcMetrics::default()))
                .collect(),
            queues: Vec::new(),
            consumed: vec![0; n_chans],
            counters: vec![(0, 0, 0); n_chans],
        }
    }
}

/// Launch a scheduler instance that hosts only `seed`'s ranks out of
/// `topo`'s, starting each from the seed's cut ([`PartialSeed::fresh`] for
/// a start from the initial states; a decoded migration payload to resume
/// a group). Channels whose peer rank is not hosted become ports: a send
/// is the sending worker's own call of `egress` (under one per-run lock and
/// no other, so it may take transport locks), made before its rank halts;
/// a receive blocks until the transport feeds the ring via
/// [`Gateway::push_inbound`]. `egress` is `None` only if no channel leaves
/// the hosted set.
///
/// Global ids are used throughout — rank ids and channel ids mean the same
/// here as in the full topology, so checkpoints and wire frames never
/// renumber anything.
///
/// `flight` builds the recorder sink from the resolved pool size: `|_|
/// NoFlight` for the no-op build, `|w| FlightRecorder::new(w, cap)` to
/// record — the instance's scheduler events then land in per-worker lanes
/// and drain into [`PartialOutcome::flight`] at join. A cross-process send
/// is marked `Send`, then the route `egress` returned, in the sender's own
/// lane. The `gateway` lane is written by [`Gateway::push_inbound`]; the
/// transport must call that from one thread at a time (the ring is
/// single-writer), which the distributed worker's router lock ensures.
///
/// No watchdog runs: a partial instance blocked on a remote peer is locally
/// indistinguishable from deadlock — every hosted rank parked, nothing
/// queued, no progress is exactly what waiting on a slow peer looks like,
/// and the peer's next frame undoes it — so liveness belongs to the
/// supervisor (socket EOF / heartbeat).
pub fn launch_partial<P, F>(
    topo: &Topology,
    seed: PartialSeed<P>,
    workers: Option<usize>,
    faults: &FaultPlan,
    egress: Option<EgressSink<P::Msg>>,
    flight: impl FnOnce(usize) -> F,
) -> PartialRun<P, F>
where
    P: Process + 'static,
    F: FlightSink,
{
    let n_workers = resolve_workers(workers, seed.procs.len());
    launch(topo, seed, n_workers, None, faults, egress, flight(n_workers))
}

/// The one launcher: seed tasks, rings and counters from `seed`'s cut, then
/// start `n_workers` workers (and the watchdog, if a window is given) on
/// the remainder. The prefix's metrics are carried forward, so
/// process-local step ordinals (which key fault injection) and traffic
/// counters continue rather than restart — and by Theorem 1 the final
/// snapshots are the same as if the whole run had happened on one backend.
fn launch<P, F>(
    topo: &Topology,
    seed: PartialSeed<P>,
    n_workers: usize,
    watchdog: Option<Duration>,
    faults: &FaultPlan,
    egress: Option<EgressSink<P::Msg>>,
    flight: F,
) -> PartialRun<P, F>
where
    P: Process + 'static,
    F: FlightSink,
{
    let PartialSeed { procs, queues, consumed, counters } = seed;
    let n = topo.n_procs();
    let mut hosted_mask = vec![false; n];
    let hosted: Vec<ProcId> = procs.iter().map(|t| t.0).collect();
    for &r in &hosted {
        assert!(r < n, "hosted rank {r} outside topology");
        assert!(!hosted_mask[r], "rank {r} hosted twice");
        hosted_mask[r] = true;
    }
    let target = hosted.len();
    let chans = build_chans::<P::Msg>(topo, &hosted_mask);
    assert!(
        egress.is_some() || chans.iter().all(|c| c.kind != ChanKind::Egress),
        "a launch whose channels leave the hosted ranks needs an egress sink"
    );
    let n_chans = chans.len();
    assert_eq!(consumed.len(), n_chans, "seed consumed vector must cover the topology");
    assert_eq!(counters.len(), n_chans, "seed counter vector must cover the topology");

    // Seed writer-side counters for hosted-writer channels (the slice this
    // instance reports; the supervisor takes channel totals from the final
    // hosting group), then pre-fill internal rings single-threaded.
    for (i, c) in chans.iter().enumerate() {
        if matches!(c.kind, ChanKind::Direct | ChanKind::Egress) {
            let (m, b, d) = counters[i];
            c.messages.store(m, Ordering::Relaxed);
            c.bytes.store(b, Ordering::Relaxed);
            c.max_depth.store(d as usize, Ordering::Relaxed);
        }
    }
    for (i, q) in queues {
        assert!(
            chans.get(i).is_some_and(|c| c.kind == ChanKind::Direct),
            "seed queue {i} is not an internal channel of the hosted set"
        );
        for m in q {
            assert!(
                chans[i].ring.try_push(m).is_ok(),
                "seed queue exceeds channel capacity (state/topology mismatch)"
            );
        }
    }

    let mut finished = 0usize;
    let mut prefix_steps = 0u64;
    let mut runnable: Vec<ProcId> = Vec::new();
    let mut slots: Vec<Option<Task<P>>> = (0..n).map(|_| None).collect();
    for (rank, proc, st, pm) in procs {
        prefix_steps += pm.steps;
        let mut task = Task {
            proc,
            delivery: None,
            pending: None,
            pm,
            recvs_done: vec![0; n_chans],
            parked_since: None,
            result: None,
        };
        for (i, c) in chans.iter().enumerate() {
            if c.reader == rank {
                task.recvs_done[i] = consumed[i];
            }
        }
        match st {
            ProcState::Ready => runnable.push(rank),
            ProcState::BlockedRecv(chan) => {
                // Retried as a pending op with `fresh = false`: the block
                // episode was already counted by the prefix.
                task.pending = Some(Pending::Recv { chan });
                runnable.push(rank);
            }
            ProcState::BlockedSend(chan, msg) => {
                let bytes = P::msg_size_bytes(&msg);
                task.pending = Some(Pending::Send { chan, msg, bytes });
                runnable.push(rank);
            }
            ProcState::Halted => {
                task.result = Some(task.proc.rank_snapshots());
                finished += 1;
            }
        }
        slots[rank] = Some(task);
    }

    let shared = build_shared(topo, slots, chans, egress, target, finished, n_workers, faults, flight);
    if prefix_steps > 0 {
        // A resumed cut. No worker thread exists yet, so the control lane
        // is safely ours for this single lifecycle mark (spawn establishes
        // the happens-before).
        shared.flight.record(shared.control_lane(), FlightKind::Restore, 0, 0, finished as u64);
    }
    if finished == target {
        shared.finish();
    }
    // Seed the deques round-robin so every worker starts with local work.
    for (i, &rank) in runnable.iter().enumerate() {
        lock(&shared.workers[i % n_workers].deque).push_back(rank);
    }
    let (handles, watchdog) = spawn_pool(&shared, n_workers, watchdog);
    PartialRun { shared, hosted, n_workers, handles, watchdog }
}

/// Transport-side handle to a partial run: where the messages that arrive
/// for its ingress channels go in (the distributed backend's socket
/// threads), plus live telemetry. All clones address the same run.
pub struct Gateway<P: Process, F: FlightSink = NoFlight> {
    shared: Arc<Shared<P, F>>,
}

impl<P: Process, F: FlightSink> Clone for Gateway<P, F> {
    fn clone(&self) -> Self {
        Gateway { shared: Arc::clone(&self.shared) }
    }
}

/// Live scheduler telemetry snapshot, cheap enough for a heartbeat: every
/// field is one relaxed/SeqCst atomic load. The distributed worker embeds
/// one per PONG so the supervisor sees per-worker liveness between runs'
/// end-of-run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveTelemetry {
    /// Hosted ranks that have not yet halted.
    pub ranks_live: u64,
    /// Completed channel transfers so far (the watchdog's progress
    /// counter) — a flatline between heartbeats with `ranks_live > 0`
    /// means the instance is blocked on remote peers or wedged.
    pub progress: u64,
    /// Work-steal count so far.
    pub steals: u64,
    /// Flight-recorder events currently retained across lanes (0 when
    /// recording is disabled).
    pub flight_occupancy: u64,
}

/// Field-wise totals: the live counters of several instances (a
/// distributed worker's groups) as one row.
impl std::iter::Sum for LiveTelemetry {
    fn sum<I: Iterator<Item = LiveTelemetry>>(iter: I) -> LiveTelemetry {
        iter.fold(LiveTelemetry::default(), |a, b| LiveTelemetry {
            ranks_live: a.ranks_live + b.ranks_live,
            progress: a.progress + b.progress,
            steals: a.steals + b.steals,
            flight_occupancy: a.flight_occupancy + b.flight_occupancy,
        })
    }
}

impl<P: Process, F: FlightSink> Gateway<P, F> {
    /// Snapshot live scheduler telemetry (racy but internally harmless:
    /// each field is an independent atomic read).
    pub fn telemetry(&self) -> LiveTelemetry {
        let finished = self.shared.finished.load(Ordering::SeqCst) as u64;
        LiveTelemetry {
            ranks_live: (self.shared.target as u64).saturating_sub(finished),
            progress: self.shared.progress.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            flight_occupancy: self.shared.flight.occupancy(),
        }
    }

    /// Deliver a message that arrived from a remote writer into its ingress
    /// channel, waking the hosted reader if it is parked — the transport's
    /// copy of the send path's push → fence → consume-flag → wake
    /// discipline, so the Dekker argument for lost-wake freedom carries
    /// over unchanged. Local traffic counters are *not* bumped: the remote
    /// writer's instance counts the send, and the supervisor sums slices.
    /// The arrival is marked `route` in the gateway lane, under the
    /// channel's reader (a rank this instance hosts).
    ///
    /// Errors with [`RunError::Protocol`] if `chan` is not an ingress
    /// channel of this instance (a routing bug or a corrupted frame) —
    /// never panics, since this path is network-facing.
    pub fn push_inbound(
        &self,
        chan: ChannelId,
        msg: P::Msg,
        route: FlightKind,
    ) -> Result<(), RunError> {
        let Some(c) = self.shared.chans.get(chan.0) else {
            return Err(RunError::Protocol {
                proc: 0,
                detail: format!("inbound frame for unknown channel {chan}"),
            });
        };
        if c.kind != ChanKind::Ingress {
            return Err(RunError::Protocol {
                proc: c.reader,
                detail: format!("inbound frame for non-ingress channel {chan} ({:?})", c.kind),
            });
        }
        let bytes = if F::ENABLED { P::msg_size_bytes(&msg) } else { 0 };
        if c.ring.try_push(msg).is_err() {
            // Ingress rings are unbounded, so this is unreachable — but a
            // typed error beats a panic on a network-facing path.
            return Err(RunError::Protocol {
                proc: c.reader,
                detail: format!("ingress ring for {chan} rejected a push"),
            });
        }
        // One caller at a time by contract — see `launch_partial`.
        let lane = self.shared.gateway_lane();
        self.shared.flight.record(lane, route, c.reader, chan.0, bytes);
        fence(Ordering::SeqCst);
        if c.reader_waiting.swap(false, Ordering::SeqCst) {
            self.shared.wake_task(c.reader, None, lane);
        }
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn worker_loop<P: Process, F: FlightSink>(shared: &Shared<P, F>, me: usize) {
    shared.workers[me].park.register();
    loop {
        if shared.done.load(Ordering::SeqCst) {
            return;
        }
        match find_task(shared, me) {
            Some(rank) => run_task(shared, me, rank),
            None => idle(shared, me),
        }
    }
}

/// Own deque first (FIFO — the fairness order), then the injector, then
/// steal from the back of a sibling's deque.
fn find_task<P: Process, F: FlightSink>(shared: &Shared<P, F>, me: usize) -> Option<ProcId> {
    if let Some(r) = lock(&shared.workers[me].deque).pop_front() {
        return Some(r);
    }
    if let Some(r) = lock(&shared.injector).pop_front() {
        return Some(r);
    }
    let n = shared.workers.len();
    for i in 1..n {
        let victim = (me + i) % n;
        if let Some(r) = lock(&shared.workers[victim].deque).pop_back() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            // `chan` field carries the victim worker index for steals.
            shared.flight.record(me, FlightKind::Steal, r, victim, 0);
            return Some(r);
        }
    }
    None
}

/// The idle dance: publish the intent to sleep, re-check for work (the
/// enqueue side checks `idle_workers` *after* pushing, so one of the two
/// sides always notices), run a rescue sweep, then park briefly.
fn idle<P: Process, F: FlightSink>(shared: &Shared<P, F>, me: usize) {
    shared.idle_workers.fetch_add(1, Ordering::SeqCst);
    let park = &shared.workers[me].park;
    park.prepare_park();
    if shared.done.load(Ordering::SeqCst) || shared.queued_tasks() > 0 || shared.rescue(me) > 0 {
        park.cancel_park();
    } else {
        park.park(WAIT_SLICE);
    }
    shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Run one rank until it parks, halts, faults, exhausts its yield budget,
/// or the run is poisoned.
fn run_task<P: Process, F: FlightSink>(shared: &Shared<P, F>, me: usize, rank: ProcId) {
    let mut task = lock(&shared.slots[rank])
        .take()
        .expect("a queued rank always has its task in the slot");
    if let Some(t0) = task.parked_since.take() {
        task.pm.blocked_nanos += t0.elapsed().as_nanos() as u64;
    }
    shared.flight.record(me, FlightKind::Run, rank, 0, 0);
    let mut budget = YIELD_BUDGET;
    loop {
        if shared.is_poisoned() {
            *lock(&shared.slots[rank]) = Some(task);
            return;
        }
        // A pending operation is retried without re-stepping the process:
        // the rank's action sequence (and so its step count, which keys
        // fault injection) is identical to the thread-per-rank runner's.
        let after = match task.pending.take() {
            Some(Pending::Recv { chan }) => attempt_recv(shared, me, rank, task, chan, false),
            Some(Pending::Send { chan, msg, bytes }) => {
                attempt_send(shared, me, rank, task, chan, msg, bytes, false)
            }
            None => step_task(shared, me, rank, task),
        };
        match after {
            After::Run(t) => task = t,
            After::Release => return,
        }
        budget -= 1;
        if budget == 0 {
            // Yield: requeue at the back of our own deque so queued peers
            // get the worker (fair interleaving under oversubscription).
            shared.yields.fetch_add(1, Ordering::Relaxed);
            shared.flight.record(me, FlightKind::Yield, rank, 0, 0);
            *lock(&shared.slots[rank]) = Some(task);
            shared.enqueue(rank, Some(me));
            return;
        }
    }
}

/// Perform the rank's next atomic action and dispatch its effect.
fn step_task<P: Process, F: FlightSink>(
    shared: &Shared<P, F>,
    me: usize,
    rank: ProcId,
    mut task: Task<P>,
) -> After<P> {
    task.pm.steps += 1;
    if shared.faults.crash_at(rank, task.pm.steps) {
        let step = task.pm.steps;
        *lock(&shared.slots[rank]) = Some(task);
        shared.flight.record(me, FlightKind::Fault, rank, 0, step);
        shared.fail(RunError::Injected { proc: rank, step });
        return After::Release;
    }
    let delivery = task.delivery.take();
    let effect = match catch_unwind(AssertUnwindSafe(|| task.proc.resume(delivery))) {
        Ok(e) => e,
        Err(_) => {
            *lock(&shared.slots[rank]) = Some(task);
            shared.fail(RunError::ThreadPanic { proc: rank });
            return After::Release;
        }
    };
    match effect {
        Effect::Compute { units } => {
            task.pm.compute_units += units;
            shared.flight.record(me, FlightKind::Compute, rank, 0, units);
            After::Run(task)
        }
        Effect::Send { chan, msg } => {
            if let Err(e) = shared.topo.check_writer(chan, rank) {
                *lock(&shared.slots[rank]) = Some(task);
                shared.fail(e);
                return After::Release;
            }
            let bytes = P::msg_size_bytes(&msg);
            attempt_send(shared, me, rank, task, chan, msg, bytes, true)
        }
        Effect::Recv { chan } => {
            if let Err(e) = shared.topo.check_reader(chan, rank) {
                *lock(&shared.slots[rank]) = Some(task);
                shared.fail(e);
                return After::Release;
            }
            // An injected stall delays this delivery; the message still
            // arrives, so the result cannot change (Theorem 1). The sleep
            // briefly occupies the worker, which is exactly the latency
            // the stealing pool is there to hide.
            if let Some(d) = shared.faults.stall_sleep(chan, task.recvs_done[chan.0]) {
                std::thread::sleep(d);
            }
            attempt_recv(shared, me, rank, task, chan, true)
        }
        Effect::Halt => {
            match catch_unwind(AssertUnwindSafe(|| task.proc.rank_snapshots())) {
                Ok(snap) => task.result = Some(snap),
                Err(_) => {
                    *lock(&shared.slots[rank]) = Some(task);
                    shared.fail(RunError::ThreadPanic { proc: rank });
                    return After::Release;
                }
            }
            *lock(&shared.slots[rank]) = Some(task);
            shared.flight.record(me, FlightKind::Halt, rank, 0, 0);
            if shared.finished.fetch_add(1, Ordering::SeqCst) + 1 == shared.target {
                shared.finish();
            }
            After::Release
        }
        Effect::Fault { error } => {
            *lock(&shared.slots[rank]) = Some(task);
            shared.flight.record(me, FlightKind::Fault, rank, 0, 0);
            shared.fail(error);
            After::Release
        }
    }
}

/// Try to deliver from `chan`; park the task on the empty edge.
fn attempt_recv<P: Process, F: FlightSink>(
    shared: &Shared<P, F>,
    me: usize,
    rank: ProcId,
    mut task: Task<P>,
    chan: ChannelId,
    fresh: bool,
) -> After<P> {
    let c = &shared.chans[chan.0];
    // A block "episode" is counted once, on the fresh attempt that first
    // finds the ring empty — same accounting as the thread-per-rank runner.
    let mut count_block = fresh;
    loop {
        if let Some(m) = c.ring.try_pop() {
            task.pm.receives += 1;
            task.recvs_done[chan.0] += 1;
            // `F::ENABLED` gates the byte sizing out of the no-op build.
            let bytes = if F::ENABLED { P::msg_size_bytes(&m) } else { 0 };
            shared.flight.record(me, FlightKind::Recv, rank, chan.0, bytes);
            task.delivery = Some(m);
            // Release the writer if it parked (or is parking) on the full
            // edge: pop, fence, consume the flag — the Dekker mirror of
            // the parking sequence below.
            fence(Ordering::SeqCst);
            if c.writer_waiting.swap(false, Ordering::SeqCst) {
                shared.wake_task(c.writer, Some(me), me);
            }
            shared.progress.fetch_add(1, Ordering::Relaxed);
            return After::Run(task);
        }
        if count_block {
            task.pm.blocked_steps += 1;
            count_block = false;
        }
        // Park the task: publish the wait edge and the pending op, return
        // the box to its slot (it may be stolen the instant the CAS below
        // lands), raise the flag, re-check, CAS RUN → PARKED.
        lock(&shared.waits)[rank] = Some((chan, BlockKind::Recv));
        task.pending = Some(Pending::Recv { chan });
        task.parked_since = Some(Instant::now());
        *lock(&shared.slots[rank]) = Some(task);
        c.reader_waiting.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !c.ring.is_empty() {
            // Lost race: the message landed between check and flag.
            c.reader_waiting.store(false, Ordering::SeqCst);
            task = shared.reclaim(rank);
            task.pending = None;
            continue;
        }
        match shared.states[rank].compare_exchange(RUN, PARKED, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                shared.task_parks.fetch_add(1, Ordering::Relaxed);
                // `bytes = 0` tags a recv-wait park (1 = send-wait).
                shared.flight.record(me, FlightKind::Park, rank, chan.0, 0);
                return After::Release;
            }
            Err(_) => {
                // NOTIFIED: a wake raced us; consume the token and retry.
                shared.states[rank].store(RUN, Ordering::SeqCst);
                task = shared.reclaim(rank);
                task.pending = None;
            }
        }
    }
}

/// Try to push onto `chan`; park the task on the full edge. A send on an
/// egress channel never parks: it is one call of the run's sink.
#[allow(clippy::too_many_arguments)]
fn attempt_send<P: Process, F: FlightSink>(
    shared: &Shared<P, F>,
    me: usize,
    rank: ProcId,
    mut task: Task<P>,
    chan: ChannelId,
    mut msg: P::Msg,
    bytes: u64,
    fresh: bool,
) -> After<P> {
    let c = &shared.chans[chan.0];
    if c.kind == ChanKind::Egress {
        let route = {
            let mut sink = lock(&shared.egress);
            sink.as_mut().expect("launch checks that egress channels have a sink")(chan, msg)
        };
        return match route {
            Ok(route) => {
                c.messages.fetch_add(1, Ordering::Relaxed);
                c.bytes.fetch_add(bytes, Ordering::Relaxed);
                c.max_depth.fetch_max(1, Ordering::Relaxed);
                task.pm.sends += 1;
                shared.flight.record(me, FlightKind::Send, rank, chan.0, bytes);
                shared.flight.record(me, route, rank, chan.0, bytes);
                shared.progress.fetch_add(1, Ordering::Relaxed);
                After::Run(task)
            }
            Err(e) => {
                *lock(&shared.slots[rank]) = Some(task);
                shared.fail(e);
                After::Release
            }
        };
    }
    let mut count_block = fresh;
    loop {
        match c.ring.try_push(msg) {
            Ok(depth) => {
                // Writer-side counters: exact under relaxed ordering
                // (single writer); `depth` is the producer-observed bound.
                c.messages.fetch_add(1, Ordering::Relaxed);
                c.bytes.fetch_add(bytes, Ordering::Relaxed);
                if depth > c.max_depth.load(Ordering::Relaxed) {
                    c.max_depth.store(depth, Ordering::Relaxed);
                }
                task.pm.sends += 1;
                shared.flight.record(me, FlightKind::Send, rank, chan.0, bytes);
                fence(Ordering::SeqCst);
                if c.reader_waiting.swap(false, Ordering::SeqCst) {
                    shared.wake_task(c.reader, Some(me), me);
                }
                shared.progress.fetch_add(1, Ordering::Relaxed);
                return After::Run(task);
            }
            Err(back) => {
                msg = back;
                if count_block {
                    task.pm.blocked_steps += 1;
                    count_block = false;
                }
                lock(&shared.waits)[rank] = Some((chan, BlockKind::Send));
                task.pending = Some(Pending::Send { chan, msg, bytes });
                task.parked_since = Some(Instant::now());
                *lock(&shared.slots[rank]) = Some(task);
                c.writer_waiting.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if c.has_space() {
                    c.writer_waiting.store(false, Ordering::SeqCst);
                    task = shared.reclaim(rank);
                    let Some(Pending::Send { msg: m, .. }) = task.pending.take() else {
                        unreachable!("reclaimed task keeps its pending send")
                    };
                    msg = m;
                    continue;
                }
                match shared.states[rank].compare_exchange(
                    RUN,
                    PARKED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        shared.task_parks.fetch_add(1, Ordering::Relaxed);
                        // `bytes = 1` tags a send-wait park (0 = recv-wait).
                        shared.flight.record(me, FlightKind::Park, rank, chan.0, 1);
                        return After::Release;
                    }
                    Err(_) => {
                        shared.states[rank].store(RUN, Ordering::SeqCst);
                        task = shared.reclaim(rank);
                        let Some(Pending::Send { msg: m, .. }) = task.pending.take() else {
                            unreachable!("reclaimed task keeps its pending send")
                        };
                        msg = m;
                    }
                }
            }
        }
    }
}

/// Deadlock watchdog for the M:N pool. Fires only when progress has been
/// flat for the whole window *and* every unfinished rank is `PARKED` *and*
/// the run queues are empty — queued-but-runnable ranks (oversubscription)
/// never trip it. A rescue sweep gets the last word before declaring.
fn watchdog_loop<P: Process, F: FlightSink>(shared: &Shared<P, F>, window: Duration) {
    let poll = (window / 4).clamp(Duration::from_millis(1), WAIT_SLICE);
    shared.watchdog_park.register();
    let n = shared.topo.n_procs();
    let mut last_progress = shared.progress.load(Ordering::SeqCst);
    let mut stalled_since: Option<Instant> = None;
    loop {
        shared.watchdog_park.prepare_park();
        if shared.done.load(Ordering::SeqCst) {
            shared.watchdog_park.cancel_park();
            return;
        }
        shared.watchdog_park.park(poll);
        if shared.done.load(Ordering::SeqCst) {
            return;
        }
        let progress = shared.progress.load(Ordering::SeqCst);
        let parked =
            (0..n).filter(|&r| shared.states[r].load(Ordering::SeqCst) == PARKED).count();
        let finished = shared.finished.load(Ordering::SeqCst);
        let wedged = progress == last_progress
            && parked + finished == n
            && shared.queued_tasks() == 0;
        if !wedged {
            last_progress = progress;
            stalled_since = None;
            continue;
        }
        let t0 = *stalled_since.get_or_insert_with(Instant::now);
        if t0.elapsed() < window {
            continue;
        }
        // Last line of defense against a lost wake: requeue any parked
        // rank whose channel is actually ready. A real deadlock has none.
        if shared.rescue(shared.control_lane()) > 0 {
            stalled_since = None;
            continue;
        }
        // Declare it: snapshot the wait edges (valid while PARKED — they
        // are written before the parking CAS), re-verify nothing moved,
        // and poison the run with the same typed error the simulator
        // produces.
        let waits: Vec<(ProcId, ChannelId, BlockKind)> = {
            let w = lock(&shared.waits);
            (0..n)
                .filter(|&r| shared.states[r].load(Ordering::SeqCst) == PARKED)
                .filter_map(|r| w[r].map(|(c, k)| (r, c, k)))
                .collect()
        };
        if shared.progress.load(Ordering::SeqCst) != last_progress
            || waits.len() + shared.finished.load(Ordering::SeqCst) != n
            || shared.queued_tasks() != 0
        {
            stalled_since = None;
            continue;
        }
        shared.fail(waitgraph::deadlock_error(&shared.topo, &waits));
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal process for scheduler-internal tests.
    struct Nop;
    impl Process for Nop {
        type Msg = u64;
        fn resume(&mut self, _d: Option<u64>) -> Effect<u64> {
            Effect::Halt
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    /// One side of a 2-rank exchange: `rounds` times, send the round's
    /// number on `out`, then receive on `inp`; the snapshot is the sum of
    /// what arrived.
    struct Exchange {
        out: ChannelId,
        inp: ChannelId,
        rounds: u64,
        sent: u64,
        received: u64,
        acc: u64,
    }

    impl Process for Exchange {
        type Msg = u64;
        fn resume(&mut self, d: Option<u64>) -> Effect<u64> {
            if let Some(m) = d {
                self.acc += m;
                self.received += 1;
            }
            if self.received < self.sent {
                Effect::Recv { chan: self.inp }
            } else if self.sent == self.rounds {
                Effect::Halt
            } else {
                self.sent += 1;
                Effect::Send { chan: self.out, msg: self.sent }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.acc.to_le_bytes().to_vec()
        }
        fn msg_size_bytes(_: &u64) -> u64 {
            8
        }
    }

    /// A 2-rank exchange with only rank 0 hosted: its send channel is an
    /// egress port, its receive channel an ingress port.
    fn exchange(rounds: u64) -> (Topology, PartialSeed<Exchange>, ChannelId, ChannelId) {
        let mut topo = Topology::new(2);
        let out = topo.connect(0, 1);
        let inp = topo.connect(1, 0);
        let rank0 = Exchange { out, inp, rounds, sent: 0, received: 0, acc: 0 };
        let seed = PartialSeed::fresh(&topo, vec![(0, rank0)]);
        (topo, seed, out, inp)
    }

    #[test]
    fn every_egress_send_reaches_the_sink_once_in_order_before_join() {
        const ROUNDS: u64 = 16;
        let (topo, seed, out, inp) = exchange(ROUNDS);
        let (tx, rx) = std::sync::mpsc::channel();
        let sink: EgressSink<u64> = Box::new(move |chan, msg| {
            tx.send((chan, msg)).unwrap();
            Ok(FlightKind::DataDirect)
        });
        let recorder = |w| FlightRecorder::new(w, 1024);
        let run = launch_partial(&topo, seed, Some(2), &FaultPlan::none(), Some(sink), recorder);
        // The test is rank 1: it answers each message the sink carried, so
        // rank 0 only gets on once its send has reached the sink.
        let gateway = run.gateway();
        let mut carried = Vec::new();
        for _ in 0..ROUNDS {
            let (chan, msg) =
                rx.recv_timeout(Duration::from_secs(5)).expect("a send never reached the sink");
            carried.push((chan, msg));
            gateway.push_inbound(inp, 100 * msg, FlightKind::DataStar).unwrap();
        }
        let outcome = run.join().unwrap();
        assert_eq!(carried, (1..=ROUNDS).map(|m| (out, m)).collect::<Vec<_>>());
        assert!(rx.try_recv().is_err(), "the sink was called after the last send");
        let acc: u64 = (1..=ROUNDS).map(|m| 100 * m).sum();
        assert_eq!(outcome.snapshots, vec![(0, acc.to_le_bytes().to_vec())]);
        assert_eq!(outcome.metrics.channels[out.0].messages, ROUNDS);
        assert_eq!(outcome.metrics.channels[out.0].bytes, ROUNDS * 8);
        assert_eq!(outcome.metrics.procs[0].sends, ROUNDS);

        // The sender's lane marks each send, then its route, under the
        // sender; the gateway lane marks each arrival under its reader and
        // holds no send.
        let log = outcome.flight.expect("recorded run");
        let marks = |label: &str, kinds: &[FlightKind]| -> Vec<(FlightKind, u32, u32)> {
            let lanes = log.lanes.iter().filter(|l| l.label.starts_with(label));
            lanes
                .flat_map(|l| &l.events)
                .filter(|e| kinds.contains(&e.kind))
                .map(|e| (e.kind, e.rank, e.chan))
                .collect()
        };
        let sent = [FlightKind::Send, FlightKind::DataDirect];
        let want: Vec<_> =
            sent.iter().map(|&k| (k, 0, out.0 as u32)).cycle().take(2 * ROUNDS as usize).collect();
        assert_eq!(marks("worker-", &sent), want);
        let arrived = [FlightKind::Send, FlightKind::DataStar];
        let want = vec![(FlightKind::DataStar, 0, inp.0 as u32); ROUNDS as usize];
        assert_eq!(marks("gateway", &arrived), want);
    }

    #[test]
    fn a_failing_sink_aborts_the_run_with_its_error() {
        for k in 1..=3u64 {
            let (topo, seed, _, inp) = exchange(8);
            let mut calls = 0;
            let sink: EgressSink<u64> = Box::new(move |_, _| {
                calls += 1;
                if calls == k {
                    Err(RunError::Protocol { proc: 0, detail: format!("sink call {k} failed") })
                } else {
                    Ok(FlightKind::DataStar)
                }
            });
            let faults = FaultPlan::none();
            let run = launch_partial(&topo, seed, Some(2), &faults, Some(sink), |_| NoFlight);
            // Answers for the k - 1 sends that succeed and no more: unless
            // the k-th send aborts the run, rank 0 waits forever.
            let gateway = run.gateway();
            for m in 1..k {
                gateway.push_inbound(inp, m, FlightKind::DataStar).unwrap();
            }
            let (tx, rx) = std::sync::mpsc::channel();
            let joiner = std::thread::spawn(move || tx.send(run.join().err()).unwrap());
            let err =
                rx.recv_timeout(Duration::from_secs(5)).expect("join hung after a sink error");
            joiner.join().unwrap();
            let want = RunError::Protocol { proc: 0, detail: format!("sink call {k} failed") };
            assert_eq!(err, Some(want), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "needs an egress sink")]
    fn a_launch_with_egress_channels_and_no_sink_is_refused() {
        let (topo, seed, _, _) = exchange(1);
        launch_partial(&topo, seed, None, &FaultPlan::none(), None, |_| NoFlight);
    }

    #[test]
    fn resolve_workers_clamps_to_rank_count() {
        assert_eq!(resolve_workers(Some(8), 3), 3);
        assert_eq!(resolve_workers(Some(0), 3), 1);
        assert_eq!(resolve_workers(Some(2), 64), 2);
    }

    #[test]
    fn pool_share_divides_the_host_between_processes() {
        assert_eq!(pool_share(Some(3), 8), 3, "explicit config wins over the share");
        assert_eq!(pool_share(Some(0), 1), 1);
        if std::env::var(WORKERS_ENV).is_err() {
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            assert_eq!(pool_share(None, 1), cores);
            assert_eq!(pool_share(None, 0), cores);
            assert_eq!(pool_share(None, 2), (cores / 2).max(1));
            assert_eq!(pool_share(None, cores + 1), 1, "never below one thread");
        }
    }

    #[test]
    fn a_program_of_no_ranks_finishes_at_launch() {
        let topo = Topology::new(0);
        let watched = ThreadedConfig::with_watchdog(Duration::from_secs(5));
        for config in [ThreadedConfig::default(), watched.with_flight(8)] {
            let seed = PartialSeed::<Nop>::fresh(&topo, Vec::new());
            let out = run_full(&topo, seed, config, &FaultPlan::none()).unwrap();
            assert!(out.snapshots.is_empty());
            assert_eq!(out.flight.is_some(), config.flight.is_some());
        }
    }

    #[test]
    fn reclaim_hands_back_the_pending_send() {
        // `attempt_send`'s lost-race paths take the message back out of the
        // reclaimed box; a reclaim that cleared it would lose the message.
        let mut topo = Topology::new(2);
        let chan = topo.connect(0, 1);
        let chans = build_chans::<u64>(&topo, &[true, true]);
        let task = Task {
            proc: Nop,
            delivery: None,
            pending: Some(Pending::Send { chan, msg: 7, bytes: 8 }),
            pm: ProcMetrics::default(),
            recvs_done: vec![0],
            parked_since: Some(Instant::now()),
            result: None,
        };
        let slots = vec![Some(task), None];
        let shared = build_shared(&topo, slots, chans, None, 1, 0, 1, &FaultPlan::none(), NoFlight);
        let task = shared.reclaim(0);
        assert!(matches!(task.pending, Some(Pending::Send { msg: 7, .. })));
        assert!(task.parked_since.is_none());
    }

    #[test]
    fn wake_protocol_is_exactly_once() {
        // Two wakes of a parked rank enqueue it exactly once; the second
        // leaves at most a NOTIFIED token.
        let shared: Shared<Nop, NoFlight> = Shared {
            topo: Topology::new(1),
            chans: Vec::new(),
            slots: vec![Mutex::new(None)],
            states: vec![AtomicU8::new(PARKED)],
            waits: Mutex::new(vec![None]),
            workers: vec![WorkerState {
                deque: Mutex::new(VecDeque::new()),
                park: ParkSlot::new(),
            }],
            injector: Mutex::new(VecDeque::new()),
            target: 1,
            egress: Mutex::new(None),
            faults: FaultPlan::none(),
            poisoned: AtomicBool::new(false),
            done: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            finished: AtomicUsize::new(0),
            idle_workers: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            yields: AtomicU64::new(0),
            task_parks: AtomicU64::new(0),
            verdict: Mutex::new(None),
            watchdog_park: ParkSlot::new(),
            flight: NoFlight,
        };
        assert!(shared.wake_task(0, None, 0));
        assert!(!shared.wake_task(0, None, 0));
        assert_eq!(shared.queued_tasks(), 1);
        assert_eq!(shared.states[0].load(Ordering::SeqCst), NOTIFIED);
    }
}
