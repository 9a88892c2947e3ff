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
//!
//! ## Who runs a rank
//!
//! Whoever holds its id; by Theorem 1 that cannot change the final state.
//! A partial run ([`launch_partial`]) has a *seat* beside its `k` workers:
//! a [`Gateway::push_inbound`] that wakes a rank while all `k` idle returns
//! it as a [`Handoff`], whose runner takes the seat and runs it and the
//! ranks it wakes from the seat's deque (which the pool may steal from). It
//! stands in for an idle worker, so its wakes rouse at most `k − 1` more.
//!
//! A partial run launched with a [`Seal`] copies its own cut while it runs:
//! the send that completes each `every`-th cross-process send pauses the
//! pool, every worker and the seat stop at their next step boundary
//! (finishing at most the action they are in), and the sealer thread
//! copies the slots, queues and counters into a [`PartialSeed`]. A rank
//! whose input is always ready never idles, so the pause is taken, not
//! waited for.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chan::{ChannelId, Topology};
use crate::error::RunError;
use crate::flight::FlightRecorder;
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
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
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

/// A single-reader single-writer channel: its queue, the two endpoint
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
    /// Deliveries taken on an `Ingress` channel, the seed's included (its
    /// writer's counters live in another process).
    consumed: AtomicU64,
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

/// Everything shared between workers and the watchdog.
struct Shared<P: Process> {
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
    /// The `pool` workers, then a partial run's seat (deque and lane `pool`).
    workers: Vec<WorkerState>,
    pool: usize,
    /// Held from a handoff's creation until it is run or dropped.
    seat_taken: AtomicBool,
    /// Overflow queue for wakes issued by non-worker threads.
    injector: Mutex<VecDeque<ProcId>>,
    /// Ranks hosted by this instance; a full run hosts all of them. The
    /// run is over when `finished` reaches this.
    target: usize,
    /// The sink of sends on [`ChanKind::Egress`] channels, one at a time.
    egress: Mutex<Option<EgressSink<P::Msg>>>,
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
    /// A partial run's seal ([`Seal`]): its cadence and its pause.
    seal: Option<Pause>,
    /// The flight recorder, `None` when recording is off: every record
    /// site is one branch on it. Its lanes are indexed `0..pool` for
    /// workers, then `helper` (the seat), `control` (the watchdog and
    /// pre-spawn lifecycle) and `gateway` (arrivals through
    /// [`Gateway::push_inbound`]).
    flight: Option<FlightRecorder>,
}

/// A seal's pause: requested at every `every`-th of `sends`, pool workers
/// wait at the barrier (counted in `waiting`) while it lasts, and `cv` is
/// signalled on a request, an arrival, the seat's release and either end.
struct Pause {
    every: u64,
    sends: AtomicU64,
    requested: AtomicBool,
    waiting: Mutex<usize>,
    cv: Condvar,
}

impl Pause {
    fn notify(&self) {
        drop(lock(&self.waiting));
        self.cv.notify_all();
    }
}

/// A partial run's checkpoint cadence and hook ([`launch_partial`]): every
/// `.0` of the run's cross-process sends, its pool pauses while the run's
/// sealer thread copies the cut, then the hook gets the copy there as the
/// run goes on. The last call returns before the run's join does.
pub type Seal<P> = (u64, Box<dyn FnMut(PartialSeed<P>) + Send>);

impl<P: Process> Shared<P> {
    /// Whether a seal's pause is requested: workers stop at their next step
    /// boundary.
    fn pausing(&self) -> bool {
        self.seal.as_ref().is_some_and(|p| p.requested.load(Ordering::SeqCst))
    }

    /// Count one cross-process send; at every `every`-th, request the pause
    /// and rouse the sealer and any parked worker.
    fn count_egress(&self) {
        let Some(p) = &self.seal else { return };
        let n = p.sends.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(p.every) && !p.requested.swap(true, Ordering::SeqCst) {
            p.notify();
            self.workers[..self.pool].iter().for_each(|w| w.park.force_wake());
        }
    }

    /// A pool worker's wait at the barrier, until the pause or the run ends.
    fn wait_out_pause(&self, p: &Pause) {
        let mut waiting = lock(&p.waiting);
        *waiting += 1;
        p.cv.notify_all();
        while p.requested.load(Ordering::SeqCst) && !self.done.load(Ordering::SeqCst) {
            waiting = p.cv.wait(waiting).unwrap_or_else(|e| e.into_inner());
        }
        *waiting -= 1;
    }

    /// Record one event in `lane` if the recorder is on.
    #[inline]
    fn record(&self, lane: usize, kind: FlightKind, rank: ProcId, chan: usize, bytes: u64) {
        if let Some(f) = &self.flight {
            f.record(lane, kind, rank, chan, bytes);
        }
    }

    /// The flight lane owned by the watchdog/control side.
    fn control_lane(&self) -> usize {
        self.pool + 1
    }

    /// The flight lane owned by the transport's inbound thread.
    fn gateway_lane(&self) -> usize {
        self.pool + 2
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
        self.seal.iter().for_each(Pause::notify);
    }

    /// Put a runnable rank on a queue: the waking worker's own deque when
    /// known (locality), the injector otherwise. Wakes the other sleeping
    /// workers (the seat counts as one).
    fn enqueue(&self, rank: ProcId, home: Option<usize>) {
        match home {
            Some(w) => lock(&self.workers[w].deque).push_back(rank),
            None => lock(&self.injector).push_back(rank),
        }
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            let rouse = if home == Some(self.pool) { self.pool - 1 } else { self.pool };
            for w in &self.workers[..rouse] {
                w.park.wake();
            }
        }
    }

    /// Make a parked rank runnable, exactly once: claim it, enqueue it.
    fn wake_task(&self, rank: ProcId, home: Option<usize>, lane: usize) -> bool {
        let won = self.claim(rank, lane);
        if won {
            self.enqueue(rank, home);
        }
        won
    }

    /// Win a parked rank's `PARKED → RUN` transition, which the caller must
    /// follow by enqueueing or running it; a wake racing a running task leaves
    /// a `NOTIFIED` token instead. `lane` is the *caller's* flight lane.
    fn claim(&self, rank: ProcId, lane: usize) -> bool {
        loop {
            match self.states[rank].compare_exchange(
                PARKED,
                RUN,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.record(lane, FlightKind::Wake, rank, 0, 0);
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
/// [`ChanKind::Direct`] (spec capacity honored: a lock-free ring when
/// bounded) — every channel, when all ranks are hosted; one with a remote
/// endpoint becomes `Egress`/`Ingress`, or `Absent`. Those three are forced
/// onto the *unbounded* locked queue: flow control across the process
/// boundary belongs to the transport, and an `Ingress` queue is fed by the
/// transport's inbound thread, which must never wait on one reader
/// ([`Gateway::push_inbound`]).
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
                consumed: AtomicU64::new(0),
            }
        })
        .collect()
}

/// Assemble the shared state for a pool of `n_workers` over `slots` (one
/// box per rank; `None` for ranks this instance does not host), plus a seat.
#[allow(clippy::too_many_arguments)]
fn build_shared<P: Process>(
    topo: &Topology,
    slots: Vec<Option<Task<P>>>,
    chans: Vec<Chan<P::Msg>>,
    egress: Option<EgressSink<P::Msg>>,
    target: usize,
    finished: usize,
    n_workers: usize,
    seat: bool,
    seal_every: Option<u64>,
    flight: Option<usize>,
) -> Arc<Shared<P>> {
    let n = slots.len();
    Arc::new(Shared {
        topo: topo.clone(),
        chans,
        slots: slots.into_iter().map(Mutex::new).collect(),
        states: (0..n).map(|_| AtomicU8::new(RUN)).collect(),
        waits: Mutex::new(vec![None; n]),
        workers: (0..n_workers + usize::from(seat))
            .map(|_| WorkerState { deque: Mutex::new(VecDeque::new()), park: ParkSlot::new() })
            .collect(),
        pool: n_workers,
        seat_taken: AtomicBool::new(false),
        injector: Mutex::new(VecDeque::new()),
        target,
        egress: Mutex::new(egress),
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
        seal: seal_every.map(|every| Pause {
            every,
            sends: AtomicU64::new(0),
            requested: AtomicBool::new(false),
            waiting: Mutex::new(0),
            cv: Condvar::new(),
        }),
        flight: flight.map(|cap| FlightRecorder::new(n_workers, cap)),
    })
}

/// Spawn the worker pool (and the watchdog, if a window is given).
fn spawn_pool<P: Process + 'static>(
    shared: &Arc<Shared<P>>,
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
fn harvest<P: Process>(
    shared: &Arc<Shared<P>>,
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
    // Done: no new handoff is made; a running one leaves the seat quiet.
    while shared.seat_taken.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    if let Some(v) = lock(&shared.verdict).take() {
        if let Some(f) = &shared.flight {
            crate::flight::write_postmortem(&v, &f.drain());
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
    Ok(Harvest { snapshots, metrics, flight: shared.flight.as_ref().map(FlightRecorder::drain) })
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
/// [`crate::sim::Simulator::into_seed`]. Records a flight log when
/// [`ThreadedConfig::flight`] is set.
pub(crate) fn run_full<P>(
    topo: &Topology,
    seed: PartialSeed<P>,
    config: ThreadedConfig,
) -> Result<ThreadedOutcome, RunError>
where
    P: Process + 'static,
{
    assert_eq!(seed.procs.len(), topo.n_procs(), "process count must match topology");
    let n_workers = resolve_workers(config.workers, seed.procs.len());
    let watchdog = Some(config.watchdog);
    launch(topo, seed, n_workers, watchdog, false, None, None, config.flight)
        .harvest()
        .map(Harvest::into_outcome)
}

/// A running scheduler instance. One hosting a *subset* of a topology's
/// ranks is the distributed backend's worker side: obtain it from
/// [`launch_partial`], feed its ingress channels through
/// [`PartialRun::gateway`], then collect the hosted ranks' results with
/// [`PartialRun::join`].
pub struct PartialRun<P: Process> {
    shared: Arc<Shared<P>>,
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

impl<P: Process> PartialRun<P> {
    /// A transport-side handle to this run; clone one per bridge thread.
    pub fn gateway(&self) -> Gateway<P> {
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
    /// length) — where a transport's dedup gates resume, so they stay
    /// aligned across the cut.
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
/// `flight` is the recorder's window, events per lane, or `None` not to
/// record; a recording instance's scheduler events land in per-worker
/// lanes and drain into [`PartialOutcome::flight`] at join. A
/// cross-process send is marked `Send`, then the route `egress` returned,
/// in the sender's own lane. The `gateway` lane is written by [`Gateway::push_inbound`]; the
/// transport must call that from one thread at a time (the ring is
/// single-writer), which the distributed worker's router lock ensures. A
/// [`Handoff`]'s runner (lane `helper`) calls `egress` too: its sends must
/// not wait on a peer that waits to be read.
///
/// With a [`Seal`], the run exports its own cut every so many cross-process
/// sends, pausing only its own pool (module docs).
///
/// No watchdog runs: a partial instance blocked on a remote peer is locally
/// indistinguishable from deadlock — every hosted rank parked, nothing
/// queued, no progress is exactly what waiting on a slow peer looks like,
/// and the peer's next frame undoes it — so liveness belongs to the
/// supervisor, which learns of a worker's death from its socket's EOF.
pub fn launch_partial<P>(
    topo: &Topology,
    seed: PartialSeed<P>,
    workers: Option<usize>,
    egress: Option<EgressSink<P::Msg>>,
    seal: Option<Seal<P>>,
    flight: Option<usize>,
) -> PartialRun<P>
where
    P: Process + Clone + 'static,
    P::Msg: Clone,
{
    let n_workers = resolve_workers(workers, seed.procs.len());
    let every = seal.as_ref().map(|s| s.0.max(1));
    let mut run = launch(topo, seed, n_workers, None, true, egress, every, flight);
    if let Some((_, hook)) = seal {
        let shared = Arc::clone(&run.shared);
        run.handles.push(std::thread::spawn(move || seal_loop(&shared, hook)));
    }
    run
}

/// The one launcher: seed tasks, rings and counters from `seed`'s cut, then
/// start `n_workers` workers (and the watchdog, if a window is given) on
/// the remainder, with a seat if `seat` and a pause at every `seal_every`-th
/// cross-process send if given. The prefix's metrics are carried forward,
/// so process-local step ordinals and traffic counters continue rather than
/// restart — and by Theorem 1 the final snapshots are the same as if the
/// whole run had happened on one backend.
#[allow(clippy::too_many_arguments)]
fn launch<P>(
    topo: &Topology,
    seed: PartialSeed<P>,
    n_workers: usize,
    watchdog: Option<Duration>,
    seat: bool,
    egress: Option<EgressSink<P::Msg>>,
    seal_every: Option<u64>,
    flight: Option<usize>,
) -> PartialRun<P>
where
    P: Process + 'static,
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
        c.consumed.store(consumed[i], Ordering::Relaxed);
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
        let mut task =
            Task { proc, delivery: None, pending: None, pm, parked_since: None, result: None };
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

    let shared = build_shared(
        topo, slots, chans, egress, target, finished, n_workers, seat, seal_every, flight,
    );
    if prefix_steps > 0 {
        // A resumed cut. No worker thread exists yet, so the control lane
        // is safely ours for this single lifecycle mark (spawn establishes
        // the happens-before).
        shared.record(shared.control_lane(), FlightKind::Restore, 0, 0, finished as u64);
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

/// The sealer thread of a run launched with a [`Seal`]: once a pause is
/// requested and every pool worker waits at the barrier with the seat free
/// (no handoff is made meanwhile: that needs the pool idle), copy the cut,
/// lift the pause and run the hook; until the run is over. A pause
/// requested while the hook runs waits for it.
fn seal_loop<P>(shared: &Shared<P>, mut hook: Box<dyn FnMut(PartialSeed<P>) + Send>)
where
    P: Process + Clone,
    P::Msg: Clone,
{
    let p = shared.seal.as_ref().expect("a sealed run has a pause");
    loop {
        let mut waiting = lock(&p.waiting);
        while !(p.requested.load(Ordering::SeqCst)
            && *waiting == shared.pool
            && !shared.seat_taken.load(Ordering::SeqCst))
        {
            if shared.done.load(Ordering::SeqCst) {
                return;
            }
            waiting = p.cv.wait(waiting).unwrap_or_else(|e| e.into_inner());
        }
        drop(waiting);
        let seed = export(shared);
        p.requested.store(false, Ordering::SeqCst);
        p.notify();
        hook(seed);
    }
}

/// Copy a paused run's cut: every hosted task from its slot (none is out,
/// none holds a delivery), each internal queue (popped and pushed back:
/// both of its ends are paused), and the counters.
fn export<P>(shared: &Shared<P>) -> PartialSeed<P>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    let mut procs = Vec::new();
    for (rank, slot) in shared.slots.iter().enumerate() {
        let Some(task) = &*lock(slot) else { continue };
        let status = match &task.pending {
            _ if task.result.is_some() => ProcState::Halted,
            None => ProcState::Ready,
            Some(Pending::Recv { chan }) => ProcState::BlockedRecv(*chan),
            Some(Pending::Send { chan, msg, .. }) => ProcState::BlockedSend(*chan, msg.clone()),
        };
        procs.push((rank, task.proc.clone(), status, task.pm));
    }
    let (mut queues, mut consumed, mut counters) = (Vec::new(), Vec::new(), Vec::new());
    for (i, c) in shared.chans.iter().enumerate() {
        let (m, b, d) = (&c.messages, &c.bytes, c.max_depth.load(Ordering::Relaxed) as u64);
        let writes = matches!(c.kind, ChanKind::Direct | ChanKind::Egress);
        let (m, b) =
            if writes { (m.load(Ordering::Relaxed), b.load(Ordering::Relaxed)) } else { (0, 0) };
        counters.push((m, b, if writes { d } else { 0 }));
        consumed.push(match c.kind {
            ChanKind::Direct => {
                let q: Vec<P::Msg> = std::iter::from_fn(|| c.ring.try_pop()).collect();
                q.iter().for_each(|x| assert!(c.ring.try_push(x.clone()).is_ok()));
                let taken = m - q.len() as u64;
                if !q.is_empty() {
                    queues.push((i, q));
                }
                taken
            }
            ChanKind::Ingress => c.consumed.load(Ordering::Relaxed),
            ChanKind::Egress | ChanKind::Absent => 0,
        });
    }
    PartialSeed { procs, queues, consumed, counters }
}

/// Transport-side handle to a partial run: where the messages that arrive
/// for its ingress channels go in (the distributed backend's socket
/// threads). All clones address the same run.
pub struct Gateway<P: Process> {
    shared: Arc<Shared<P>>,
}

impl<P: Process> Clone for Gateway<P> {
    fn clone(&self) -> Self {
        Gateway { shared: Arc::clone(&self.shared) }
    }
}

impl<P: Process> Gateway<P> {
    /// Deliver a message that arrived from a remote writer into its ingress
    /// channel, waking the hosted reader if it is parked — the transport's
    /// copy of the send path's push → fence → consume-flag → wake
    /// discipline, so the Dekker argument for lost-wake freedom carries
    /// over unchanged. Local traffic counters are *not* bumped: the remote
    /// writer's instance counts the send, and the supervisor sums slices.
    /// The arrival is marked `route` in the gateway lane, under the
    /// channel's reader (a rank this instance hosts).
    ///
    /// A reader woken while the pool idles comes back as a [`Handoff`].
    ///
    /// Errors with [`RunError::Protocol`] if `chan` is not an ingress
    /// channel of this instance (a routing bug or a corrupted frame) —
    /// never panics, since this path is network-facing.
    #[must_use = "a handoff must be run or dropped"]
    pub fn push_inbound(
        &self,
        chan: ChannelId,
        msg: P::Msg,
        route: FlightKind,
    ) -> Result<Option<Handoff>, RunError>
    where
        P: 'static,
    {
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
        let shared = &self.shared;
        // Sized before the ring takes the message, and only to record it.
        let sized = shared.flight.as_ref().map(|f| (f, P::msg_size_bytes(&msg)));
        if c.ring.try_push(msg).is_err() {
            // Ingress queues are unbounded (`build_chans`) so that this
            // thread never waits on the reader; a push cannot fail. A typed
            // error still beats a panic on a network-facing path.
            return Err(RunError::Protocol {
                proc: c.reader,
                detail: format!("ingress ring for {chan} rejected a push"),
            });
        }
        // One caller at a time by contract — see `launch_partial`.
        let lane = shared.gateway_lane();
        if let Some((f, bytes)) = sized {
            f.record(lane, route, c.reader, chan.0, bytes);
        }
        fence(Ordering::SeqCst);
        let woke = c.reader_waiting.swap(false, Ordering::SeqCst) && shared.claim(c.reader, lane);
        shared.progress.fetch_add(1, Ordering::Relaxed);
        if !woke {
            return Ok(None);
        }
        if shared.workers.len() > shared.pool
            && shared.idle_workers.load(Ordering::SeqCst) == shared.pool
            && !shared.seat_taken.swap(true, Ordering::SeqCst)
        {
            return Ok(Some(Handoff { seat: Some(Arc::clone(shared) as _), rank: c.reader }));
        }
        shared.enqueue(c.reader, None);
        Ok(None)
    }
}

/// A rank [`Gateway::push_inbound`] woke while its pool was idle, held by
/// the pushing thread: [`Handoff::run`] runs it there; dropping it enqueues
/// the rank and wakes the pool, as a push without a handoff does.
#[must_use = "a dropped handoff wakes the pool to run its rank"]
pub struct Handoff {
    seat: Option<Arc<dyn Seat>>,
    rank: ProcId,
}

impl Handoff {
    /// Take the run's seat: run the rank, then the ranks it woke that the
    /// pool has not stolen, until the seat's deque is empty.
    pub fn run(mut self) {
        if let Some(seat) = self.seat.take() {
            seat.leave(self.rank, true);
        }
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        if let Some(seat) = self.seat.take() {
            seat.leave(self.rank, false);
        }
    }
}

/// A [`Handoff`]'s run, with the process type erased.
trait Seat: Send + Sync {
    /// Leave the seat after running `rank` (and the seat's deque) if `run`,
    /// or at once, enqueueing `rank`.
    fn leave(&self, rank: ProcId, run: bool);
}

impl<P: Process> Seat for Shared<P> {
    fn leave(&self, rank: ProcId, run: bool) {
        // Under a seal's pause the seat takes nothing new: a rank it paused
        // waits in its deque, which the pool steals from afterwards.
        let run = run && !self.pausing();
        let mut next = Some(rank).filter(|_| run);
        // Nothing runs once the run is done: `harvest` drains the lanes.
        while let Some(r) = next.filter(|_| !self.done.load(Ordering::SeqCst)) {
            run_task(self, self.pool, r);
            next = if self.pausing() {
                None
            } else {
                lock(&self.workers[self.pool].deque).pop_front()
            };
        }
        self.seat_taken.store(false, Ordering::SeqCst);
        self.seal.iter().for_each(Pause::notify);
        if !run {
            self.enqueue(rank, None);
        }
    }
}

fn worker_loop<P: Process>(shared: &Shared<P>, me: usize) {
    shared.workers[me].park.register();
    loop {
        if shared.done.load(Ordering::SeqCst) {
            return;
        }
        if let Some(p) = shared.seal.as_ref().filter(|_| shared.pausing()) {
            shared.wait_out_pause(p);
            continue;
        }
        match find_task(shared, me) {
            Some(rank) => run_task(shared, me, rank),
            None => idle(shared, me),
        }
    }
}

/// Own deque first (FIFO — the fairness order), then the injector, then
/// steal from the back of a sibling's deque.
fn find_task<P: Process>(shared: &Shared<P>, me: usize) -> Option<ProcId> {
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
            shared.record(me, FlightKind::Steal, r, victim, 0);
            return Some(r);
        }
    }
    None
}

/// The idle dance: publish the intent to sleep, re-check for work (the
/// enqueue side checks `idle_workers` *after* pushing, so one of the two
/// sides always notices), run a rescue sweep, then park briefly.
fn idle<P: Process>(shared: &Shared<P>, me: usize) {
    shared.idle_workers.fetch_add(1, Ordering::SeqCst);
    let park = &shared.workers[me].park;
    park.prepare_park();
    if shared.done.load(Ordering::SeqCst)
        || shared.pausing()
        || shared.queued_tasks() > 0
        || shared.rescue(me) > 0
    {
        park.cancel_park();
    } else {
        park.park(WAIT_SLICE);
    }
    shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Run one rank until it parks, halts, faults, exhausts its yield budget,
/// or the run is poisoned.
fn run_task<P: Process>(shared: &Shared<P>, me: usize, rank: ProcId) {
    let mut task = lock(&shared.slots[rank])
        .take()
        .expect("a queued rank always has its task in the slot");
    if let Some(t0) = task.parked_since.take() {
        task.pm.blocked_nanos += t0.elapsed().as_nanos() as u64;
    }
    shared.record(me, FlightKind::Run, rank, 0, 0);
    let mut budget = YIELD_BUDGET;
    loop {
        if shared.is_poisoned() {
            *lock(&shared.slots[rank]) = Some(task);
            return;
        }
        // A seal's pause stops the rank at a step boundary where it holds
        // no delivery, so its state is one `ProcState` names.
        if task.delivery.is_none() && shared.pausing() {
            *lock(&shared.slots[rank]) = Some(task);
            shared.enqueue(rank, Some(me));
            return;
        }
        // A pending operation is retried without re-stepping the process:
        // the rank's action sequence (and so its step count) is identical
        // to the thread-per-rank runner's.
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
        budget = budget.saturating_sub(1);
        if budget == 0 && task.delivery.is_none() {
            // Yield: requeue at the back of our own deque so queued peers
            // get the worker (fair interleaving under oversubscription),
            // never between a delivery and the resume that takes it.
            shared.yields.fetch_add(1, Ordering::Relaxed);
            shared.record(me, FlightKind::Yield, rank, 0, 0);
            *lock(&shared.slots[rank]) = Some(task);
            shared.enqueue(rank, Some(me));
            return;
        }
    }
}

/// Perform the rank's next atomic action and dispatch its effect.
fn step_task<P: Process>(
    shared: &Shared<P>,
    me: usize,
    rank: ProcId,
    mut task: Task<P>,
) -> After<P> {
    task.pm.steps += 1;
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
            shared.record(me, FlightKind::Compute, rank, 0, units);
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
            shared.record(me, FlightKind::Halt, rank, 0, 0);
            if shared.finished.fetch_add(1, Ordering::SeqCst) + 1 == shared.target {
                shared.finish();
            }
            After::Release
        }
        Effect::Fault { error } => {
            *lock(&shared.slots[rank]) = Some(task);
            shared.record(me, FlightKind::Fault, rank, 0, 0);
            shared.fail(error);
            After::Release
        }
    }
}

/// Try to deliver from `chan`; park the task on the empty edge.
fn attempt_recv<P: Process>(
    shared: &Shared<P>,
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
            if c.kind == ChanKind::Ingress {
                c.consumed.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(f) = &shared.flight {
                f.record(me, FlightKind::Recv, rank, chan.0, P::msg_size_bytes(&m));
            }
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
                shared.record(me, FlightKind::Park, rank, chan.0, 0);
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
fn attempt_send<P: Process>(
    shared: &Shared<P>,
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
                shared.record(me, FlightKind::Send, rank, chan.0, bytes);
                shared.record(me, route, rank, chan.0, bytes);
                shared.progress.fetch_add(1, Ordering::Relaxed);
                shared.count_egress();
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
                // (single writer). `depth` is an upper bound on a bounded
                // ring, so re-read the queue before it raises the mark; the
                // pushed message counts even if it is already popped.
                c.messages.fetch_add(1, Ordering::Relaxed);
                c.bytes.fetch_add(bytes, Ordering::Relaxed);
                let high = c.max_depth.load(Ordering::Relaxed);
                if depth > high {
                    let exact = c.ring.len().max(1);
                    if exact > high {
                        c.max_depth.store(exact, Ordering::Relaxed);
                    }
                }
                task.pm.sends += 1;
                shared.record(me, FlightKind::Send, rank, chan.0, bytes);
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
                        shared.record(me, FlightKind::Park, rank, chan.0, 1);
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
fn watchdog_loop<P: Process>(shared: &Shared<P>, window: Duration) {
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
    #[derive(Clone)]
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

    /// A ring of `n` [`Exchange`] ranks over slack-1 channels: rank `i`
    /// sends on `i → i+1` and receives on `i−1 → i`. The partial run hosts
    /// ranks `0..n−1`; rank `n−1` is played by [`drive_ring`].
    fn ring(n: usize, rounds: u64) -> (Topology, Vec<Exchange>) {
        let mut topo = Topology::new(n);
        let chans: Vec<ChannelId> = (0..n)
            .map(|i| topo.add(crate::chan::ChannelSpec::bounded(i, (i + 1) % n, 1)))
            .collect();
        let procs = (0..n)
            .map(|i| Exchange {
                out: chans[i],
                inp: chans[(i + n - 1) % n],
                rounds,
                sent: 0,
                received: 0,
                acc: 0,
            })
            .collect();
        (topo, procs)
    }

    /// Run `seed` (a cut of ranks `0..n−1` of [`ring`]) to its end, playing
    /// rank `n−1`: it sends round `r` once it has received round `r − 1`,
    /// so a resumed drive first re-sends the rounds the seed's rank 0 has
    /// not consumed. Handoffs run on this thread, in the seat.
    fn drive_ring(
        topo: &Topology,
        seed: PartialSeed<Exchange>,
        rounds: u64,
        seal: Option<Seal<Exchange>>,
    ) -> Vec<(ProcId, Vec<u8>)> {
        let n = topo.n_procs();
        let (egress, ingress) = (ChannelId(n - 2), ChannelId(n - 1));
        let (tx, rx) = std::sync::mpsc::channel();
        let sink: EgressSink<u64> = Box::new(move |_, msg| {
            tx.send(msg).unwrap();
            Ok(FlightKind::DataDirect)
        });
        let (mut pushed, carried) = (seed.consumed[ingress.0], seed.counters[egress.0].0);
        let run = launch_partial(topo, seed, None, Some(sink), seal, None);
        let gateway = run.gateway();
        let mut push_to = |upto: u64| {
            while pushed < upto.min(rounds) {
                pushed += 1;
                if let Some(h) =
                    gateway.push_inbound(ingress, pushed, FlightKind::DataStar).unwrap()
                {
                    h.run();
                }
            }
        };
        push_to(carried + 1);
        for round in carried + 1..=rounds {
            let got = rx.recv_timeout(Duration::from_secs(5)).expect("rank n−2 stopped sending");
            assert_eq!(got, round);
            push_to(round + 1);
        }
        run.join().unwrap().snapshots
    }

    #[test]
    fn a_sealed_cut_resumes_to_the_uninterrupted_result_bitwise() {
        // Seal every K-th cross-process send, K = 1 (every step boundary
        // the egress rank reaches), 2, 3 and 7, while the run goes on; the
        // sealed run and a relaunch from every cut it exported must each
        // end where the uninterrupted simulation does. CI runs this on a
        // 2-worker pool, so some seals land while a steal is in progress.
        const N: usize = 5;
        const ROUNDS: u64 = 40;
        let (topo, procs) = ring(N, ROUNDS);
        let reference = crate::run_simulated(
            topo.clone(),
            procs.clone(),
            &mut crate::policy::RoundRobin::new(),
        )
        .unwrap()
        .snapshots;
        let want: Vec<(ProcId, Vec<u8>)> = reference[..N - 1].iter().cloned().enumerate().collect();
        let hosted = || procs[..N - 1].iter().cloned().enumerate().collect::<Vec<_>>();
        for every in [1, 2, 3, 7] {
            let cuts = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&cuts);
            let seal: Seal<Exchange> = (every, Box::new(move |seed| lock(&sink).push(seed)));
            let seed = PartialSeed::fresh(&topo, hosted());
            assert_eq!(drive_ring(&topo, seed, ROUNDS, Some(seal)), want, "sealed every {every}");
            let cuts = std::mem::take(&mut *lock(&cuts));
            assert!(
                cuts.len() as u64 >= (ROUNDS - 1) / every,
                "every {every}: {} cuts",
                cuts.len()
            );
            let mut sent_before = 0;
            for (i, cut) in cuts.into_iter().enumerate() {
                // A cut is taken at the `every`-th send or at most one send
                // per other pool thread after it, and the cuts move forward.
                let sent = cut.counters[N - 2].0;
                assert!(sent >= every * (i as u64 + 1) && sent > sent_before, "every {every}");
                sent_before = sent;
                assert_eq!(cut.procs.len(), N - 1);
                assert_eq!(drive_ring(&topo, cut, ROUNDS, None), want, "every {every}, cut {i}");
            }
        }
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
        let run = launch_partial(&topo, seed, Some(2), Some(sink), None, Some(1024));
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

    /// One rank of a four-rank all-to-all: each round it sends a digest of
    /// its history to every other rank, then receives one message from
    /// each. Its snapshot is that digest, which a lost, repeated or
    /// reordered message changes.
    #[derive(Clone)]
    struct Mix {
        outs: Vec<ChannelId>,
        ins: Vec<ChannelId>,
        rounds: u64,
        round: u64,
        /// Actions taken this round: the sends, then the receives.
        at: usize,
        acc: u64,
    }

    impl Process for Mix {
        type Msg = u64;
        fn resume(&mut self, d: Option<u64>) -> Effect<u64> {
            if let Some(m) = d {
                self.acc = (self.acc ^ m).wrapping_mul(0x100_0000_01b3);
            }
            if self.at == self.outs.len() + self.ins.len() {
                self.at = 0;
                self.round += 1;
            }
            if self.round == self.rounds {
                return Effect::Halt;
            }
            self.at += 1;
            match self.outs.get(self.at - 1) {
                Some(&chan) => Effect::Send { chan, msg: self.acc.wrapping_add(self.round) },
                None => Effect::Recv { chan: self.ins[self.at - 1 - self.outs.len()] },
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.acc.to_le_bytes().to_vec()
        }
        fn msg_size_bytes(_: &u64) -> u64 {
            8
        }
    }

    /// Ranks 0 and 1 form one group, 2 and 3 the other. Channels inside a
    /// group hold one message, so sends park and wake too.
    fn mix4(rounds: u64) -> (Topology, Vec<Mix>) {
        let mut topo = Topology::new(4);
        for w in 0..4 {
            for r in (0..4).filter(|&r| r != w) {
                let cap = (w / 2 == r / 2).then_some(1);
                topo.add(crate::chan::ChannelSpec { writer: w, reader: r, capacity: cap });
            }
        }
        let ends = |rank: ProcId, writer: bool| -> Vec<ChannelId> {
            let specs = topo.specs().iter().enumerate();
            let mine = specs.filter(|(_, s)| if writer { s.writer } else { s.reader } == rank);
            mine.map(|(c, _)| ChannelId(c)).collect()
        };
        let procs = (0..4)
            .map(|r| Mix {
                outs: ends(r, true),
                ins: ends(r, false),
                rounds,
                round: 0,
                at: 0,
                acc: r as u64 + 1,
            })
            .collect();
        (topo, procs)
    }

    /// How a group's gateway threads fared: handoffs run, handoffs
    /// dropped, and pushes made while the other thread held the seat.
    #[derive(Default, Clone, Copy)]
    struct Fared {
        ran: u64,
        dropped: u64,
        seat_taken: u64,
    }

    /// Both groups of `mix4` as partial runs, each fed by two gateway
    /// threads (one per remote writer, so each channel keeps its order)
    /// that share a lock around `push_inbound`, as a transport's router
    /// does, then run or drop what they are handed as `seed` says.
    /// Returns the snapshots by rank and the gateway threads' tallies.
    fn race(
        seed: u64,
        workers: usize,
        rounds: u64,
        flight: Option<usize>,
    ) -> (Vec<Vec<u8>>, Fared, Vec<Option<FlightLog>>) {
        let (topo, procs) = mix4(rounds);
        let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
        let feeds: Vec<_> =
            (0..4).map(|_| std::sync::mpsc::channel::<(ChannelId, u64)>()).collect();
        let mut runs = Vec::new();
        for g in 0..2 {
            let txs: Vec<_> = feeds.iter().map(|(tx, _)| tx.clone()).collect();
            let spec_topo = topo.clone();
            let mut jitter = crate::rng::SplitMix64::seed_from_u64(rng.next_u64());
            let sink: EgressSink<u64> = Box::new(move |chan, msg| {
                if jitter.gen_range(4) == 0 {
                    std::thread::yield_now();
                }
                txs[spec_topo.spec(chan).writer].send((chan, msg)).unwrap();
                Ok(FlightKind::DataDirect)
            });
            let hosted = procs.iter().cloned().enumerate().skip(2 * g).take(2).collect();
            let seed = PartialSeed::fresh(&topo, hosted);
            runs.push(launch_partial(&topo, seed, Some(workers), Some(sink), None, flight));
        }
        let routers = [Arc::new(Mutex::new(())), Arc::new(Mutex::new(()))];
        let gates: Vec<_> = feeds
            .into_iter()
            .enumerate()
            .map(|(w, (_, rx))| {
                let target = 1 - w / 2;
                let (gateway, router) = (runs[target].gateway(), Arc::clone(&routers[target]));
                let mut rng = crate::rng::SplitMix64::seed_from_u64(rng.next_u64());
                std::thread::spawn(move || {
                    let mut fared = Fared::default();
                    for _ in 0..2 * rounds {
                        let (chan, msg) = rx
                            .recv_timeout(Duration::from_secs(10))
                            .expect("a message never left its sender");
                        if rng.gen_range(4) == 0 {
                            std::thread::yield_now();
                        }
                        let handoff = {
                            let _router = lock(&router);
                            gateway.push_inbound(chan, msg, FlightKind::DataDirect).unwrap()
                        };
                        match handoff {
                            Some(h) if rng.gen_range(3) > 0 => {
                                h.run();
                                fared.ran += 1;
                            }
                            Some(h) => {
                                drop(h);
                                fared.dropped += 1;
                            }
                            None if gateway.shared.seat_taken.load(Ordering::SeqCst) => {
                                fared.seat_taken += 1;
                            }
                            None => {}
                        }
                    }
                    fared
                })
            })
            .collect();
        let mut snapshots = vec![Vec::new(); 4];
        let mut logs = Vec::new();
        for run in runs {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(run.join()).unwrap());
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a wake was lost: the group never finished")
                .unwrap();
            for (rank, snap) in outcome.snapshots {
                snapshots[rank] = snap;
            }
            logs.push(outcome.flight);
        }
        let fared = gates.into_iter().map(|g| g.join().unwrap()).fold(Fared::default(), |a, b| {
            Fared {
                ran: a.ran + b.ran,
                dropped: a.dropped + b.dropped,
                seat_taken: a.seat_taken + b.seat_taken,
            }
        });
        (snapshots, fared, logs)
    }

    #[test]
    fn handoffs_racing_the_pool_deliver_every_message_once() {
        const ROUNDS: u64 = 12;
        let (topo, procs) = mix4(ROUNDS);
        let mut policy = crate::policy::RoundRobin::new();
        let reference = crate::sim::run_simulated(topo, procs, &mut policy).unwrap().snapshots;
        let mut total = Fared::default();
        for seed in 0..200 {
            for workers in [1, 2] {
                let flight = Some(4096).filter(|_| seed % 2 == 1);
                let (snapshots, fared, logs) = race(seed, workers, ROUNDS, flight);
                assert_eq!(snapshots, reference, "seed {seed}, {workers} pool workers");
                // The seat's lane holds events of its own group's ranks only.
                for (g, log) in logs.into_iter().enumerate().filter_map(|(g, l)| Some((g, l?))) {
                    let helper = &log.lanes[workers];
                    assert_eq!(helper.label, "helper");
                    assert!(helper.events.iter().all(|e| e.rank as usize / 2 == g), "seed {seed}");
                }
                total.ran += fared.ran;
                total.dropped += fared.dropped;
                total.seat_taken += fared.seat_taken;
            }
        }
        // Every path was taken somewhere in the sweep.
        assert!(total.ran > 0, "no handoff ran");
        assert!(total.dropped > 0, "no handoff was dropped");
        assert!(total.seat_taken > 0, "no push found the seat taken");
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
            let run = launch_partial(&topo, seed, Some(2), Some(sink), None, None);
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
        launch_partial(&topo, seed, None, None, None, None);
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
            let out = run_full(&topo, seed, config).unwrap();
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
            parked_since: Some(Instant::now()),
            result: None,
        };
        let slots = vec![Some(task), None];
        let shared = build_shared(&topo, slots, chans, None, 1, 0, 1, false, None, None);
        let task = shared.reclaim(0);
        assert!(matches!(task.pending, Some(Pending::Send { msg: 7, .. })));
        assert!(task.parked_since.is_none());
    }

    #[test]
    fn wake_protocol_is_exactly_once() {
        // Two wakes of a parked rank enqueue it exactly once; the second
        // leaves at most a NOTIFIED token.
        let shared: Arc<Shared<Nop>> = build_shared(
            &Topology::new(1),
            vec![None],
            Vec::new(),
            None,
            1,
            0,
            1,
            false,
            None,
            None,
        );
        shared.states[0].store(PARKED, Ordering::SeqCst);
        assert!(shared.wake_task(0, None, 0));
        assert!(!shared.wake_task(0, None, 0));
        assert_eq!(shared.queued_tasks(), 1);
        assert_eq!(shared.states[0].load(Ordering::SeqCst), NOTIFIED);
    }
}
