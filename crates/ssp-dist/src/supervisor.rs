//! The supervisor: topology owner, peer broker, checkpointer, and
//! migration driver.
//!
//! One supervisor process spawns N worker processes, connects to each over
//! a Unix-domain socket, and partitions the program's ranks into *groups*
//! (one scheduler instance per group, initially one group per worker).
//!
//! ## Data planes
//!
//! PR 7 routed every cross-group message through the supervisor — a star
//! topology, two hops per message. Phase 2 keeps the star's *logging* role
//! but moves steady-state payload traffic off it:
//!
//! * In [`TransportMode::Direct`] (the default, without shm) the
//!   supervisor brokers a peer table
//!   (worker addresses from their HELLOs, rank placement from its own
//!   group map) inside every ASSIGN and re-broadcasts it as PEERS after a
//!   membership change. Workers then deliver to each other directly —
//!   worker↔worker sockets, or, with `shm`, shared-memory rings with
//!   socket doorbells —
//!   and send the supervisor a `DATA` **mirror** of every message, which
//!   is logged but *not forwarded*. Only `DATA_RELAY` frames (a worker's
//!   direct delivery failed) are logged *and* forwarded; the
//!   steady-state star-routed frame count is ~0, measured by
//!   [`DistStats::star_frames`].
//! * In [`TransportMode::Star`] every `DATA` frame is forwarded exactly as
//!   in PR 7 — the fallback mode, still exercised by CI.
//!
//! Every DATA/RELAY frame carries an absolute per-channel sequence number.
//! The supervisor's per-channel log is indexed by it, which makes the
//! duplicate/dedup/determinism logic uniform: a mirror below the log head
//! is byte-compared against the logged original (re-executed senders are a
//! live determinism check, Theorem 1 applied); a mirror at the head is
//! appended; a gap is a protocol violation.
//!
//! ## Checkpoint-resumed migration
//!
//! With [`DistConfig::checkpoint_every`] set, the supervisor maintains a
//! whole-program **shadow execution** ([`crate::registry::ProgramShadow`]):
//! deterministic replicas of every rank, advanced on the supervisor using
//! the logged mirrors as *credits* for cross-group sends — so the shadow
//! never runs ahead of what actually happened on any cross-group channel,
//! and any state it reaches is a consistent global cut (the paper's
//! Theorem 1 argument). Every `checkpoint_every` shadow steps it clones a
//! cut. On a worker death the dead ranks resume *from the latest cut*: the
//! supervisor's ASSIGN carries a sealed [`ssp_runtime::GroupManifest`] of
//! the cut state, it replays only the logged in-flight window
//! `[cut consumed .. head)` per inbound channel, and it truncates every
//! channel log at the cut's consumed frontier — making both replay cost
//! and log retention O(checkpoint interval) instead of O(history).
//!
//! Without `checkpoint_every` the PR 7 behavior is preserved: migrated
//! groups rebuild from their initial state and the full logs replay.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ssp_runtime::json::JsonValue;
use ssp_runtime::{FlightKind, FlightLog, RunError, RunMetrics, Topology};

use crate::frame::{
    decode_data, read_frame, write_frame_parts, Frame, FrameError, FrameType, DATA_HEADER_LEN,
};
use crate::proto::{decode_bye, decode_hello, Assign, GroupDone, PeerTable, WorkerTelemetry};
use crate::registry::{ProgramShadow, WorkloadSpec};

fn proto_err(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

fn wlock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Where a dead worker's ranks go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Merge onto the surviving worker with the fewest active ranks
    /// (elastic shrink). Falls back to spawning if none survive.
    Survivor,
    /// Spawn a fresh worker process for the orphaned ranks (elastic grow).
    Spawn,
}

/// How cross-group payload traffic travels in steady state. The default
/// is `Direct { shm: false }`, the plane that measures fastest (EXPERIMENTS
/// E16, E20); `Star` and `Direct { shm: true }` are selected by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Every DATA frame is routed through the supervisor (PR 7).
    Star,
    /// Workers deliver to each other over brokered peer sockets and only
    /// mirror to the supervisor for logging. With `shm`, co-located pairs
    /// move payloads through shared-memory rings (socket doorbells).
    Direct {
        /// Enable the shared-memory plane on top of peer sockets.
        shm: bool,
    },
}

/// The environment variable that names the data plane.
const TRANSPORT_ENV: &str = "SSP_DIST_TRANSPORT";

impl TransportMode {
    /// The plane a run uses when `SSP_DIST_TRANSPORT` is unset.
    const DEFAULT: TransportMode = TransportMode::Direct { shm: false };

    /// A plane by its `SSP_DIST_TRANSPORT` spelling: `star`, `direct` or
    /// `direct+shm`. Anything else is `None`.
    pub fn parse(name: &str) -> Option<TransportMode> {
        match name {
            "star" => Some(TransportMode::Star),
            "direct" => Some(TransportMode::Direct { shm: false }),
            "direct+shm" => Some(TransportMode::Direct { shm: true }),
            _ => None,
        }
    }

    /// Read `SSP_DIST_TRANSPORT` ([`TransportMode::parse`]); unset means
    /// the default, `direct`. A value that names no plane also runs the
    /// default, after one warning on stderr per process.
    pub fn from_env() -> TransportMode {
        let value = match std::env::var(TRANSPORT_ENV) {
            Err(std::env::VarError::NotPresent) => return TransportMode::DEFAULT,
            Err(std::env::VarError::NotUnicode(v)) => v.to_string_lossy().into_owned(),
            Ok(v) => v,
        };
        TransportMode::parse(&value).unwrap_or_else(|| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "ssp-dist: {TRANSPORT_ENV}={value:?} names no data plane \
                     (accepted: star, direct, direct+shm); running direct"
                )
            });
            TransportMode::DEFAULT
        })
    }
}

/// Fault-injection knob: SIGKILL a worker after the supervisor has seen
/// a given number of DATA frames — a mid-run, non-graceful death.
#[derive(Debug, Clone, Copy)]
pub struct ChaosKill {
    /// Index of the worker to kill.
    pub worker: usize,
    /// Kill once this many DATA frames have been seen.
    pub after_frames: u64,
}

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of initial worker processes.
    pub workers: usize,
    /// Path to the `ssp-worker` binary.
    pub worker_bin: PathBuf,
    /// OS threads per group scheduler inside each worker. `None` means
    /// `SSP_WORKERS` if set, else the worker's share of the host:
    /// ⌊available cores ÷ [`DistConfig::workers`]⌋, at least 1
    /// ([`ssp_runtime::sched::pool_share`]). The workers run on the
    /// supervisor's host, so the share is the supervisor's to compute.
    pub group_workers: Option<usize>,
    /// Where orphaned ranks migrate.
    pub policy: MigrationPolicy,
    /// Migration budget; exceeding it aborts with [`RunError::WorkerLost`].
    pub max_migrations: u64,
    /// Abort the whole run after this long.
    pub timeout: Duration,
    /// Optional mid-run SIGKILL (for recovery tests).
    pub chaos_kill: Option<ChaosKill>,
    /// Flight-recorder window (events per lane) to enable on every
    /// group's scheduler; workers send their drained logs back inside
    /// GROUP_DONE and the supervisor merges them into
    /// [`DistOutcome::flight`]. `None` = recording off everywhere.
    pub flight: Option<usize>,
    /// Steady-state data plane. [`DistConfig::new`] seeds it from
    /// `SSP_DIST_TRANSPORT`.
    pub transport: TransportMode,
    /// Take a shadow checkpoint every this many shadow steps; migrations
    /// then resume from the latest cut and channel logs are truncated at
    /// its consumed frontiers. `None` = PR 7 from-zero resume, full logs.
    pub checkpoint_every: Option<u64>,
    /// Use loopback TCP instead of Unix-domain sockets for the direct
    /// worker↔worker plane. [`DistConfig::new`] seeds it from
    /// `SSP_DIST_PEER_TCP=1`.
    pub peer_tcp: bool,
}

impl DistConfig {
    /// A config with the given worker count and worker binary, Survivor
    /// migration, a 2-minute timeout, pools sized to each worker's share of
    /// the host, and the transport selected by `SSP_DIST_TRANSPORT`
    /// (default: `direct`, [`TransportMode::from_env`]).
    pub fn new(workers: usize, worker_bin: impl Into<PathBuf>) -> DistConfig {
        DistConfig {
            workers,
            worker_bin: worker_bin.into(),
            group_workers: None,
            policy: MigrationPolicy::Survivor,
            max_migrations: 4,
            timeout: Duration::from_secs(120),
            chaos_kill: None,
            flight: None,
            transport: TransportMode::from_env(),
            checkpoint_every: None,
            peer_tcp: std::env::var("SSP_DIST_PEER_TCP").as_deref() == Ok("1"),
        }
    }
}

/// Live telemetry the supervisor has accumulated about one worker from
/// its PONG heartbeat replies.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerRow {
    /// PONG replies received.
    pub pongs: u64,
    /// The worker's most recent counters.
    pub last: WorkerTelemetry,
    /// PING→PONG round trip of the most recent reply, in nanoseconds.
    pub rtt_nanos: u64,
    /// Heartbeat intervals in which the worker reported live ranks but
    /// its progress counter did not move (logged as a stall warning).
    pub flatlines: u64,
}

/// Counters describing what the supervisor (and, via BYE reports, the
/// worker fleet) did.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Dead-worker group migrations performed.
    pub migrations: u64,
    /// Worker processes spawned beyond the initial fleet.
    pub workers_spawned: u64,
    /// DATA/RELAY frames seen by the supervisor (mirrors included,
    /// replays excluded).
    pub frames_routed: u64,
    /// DATA frames replayed into migrated groups from the channel logs.
    pub frames_replayed: u64,
    /// Duplicate sends byte-verified against the log and dropped.
    pub duplicates_dropped: u64,
    /// Frames appended to the supervisor's channel logs.
    pub frames_logged: u64,
    /// Frames the supervisor actually forwarded to a reader's worker —
    /// every frame in star mode, only relays (broken peer fallback) in
    /// direct modes, where steady state keeps this ~0.
    pub star_frames: u64,
    /// Worker-reported direct-plane frames (from BYE).
    pub direct_frames: u64,
    /// Worker-reported direct-plane payload bytes (from BYE).
    pub direct_bytes: u64,
    /// Worker-reported shm-plane frames (from BYE).
    pub shm_frames: u64,
    /// Worker-reported shm-plane payload bytes (from BYE).
    pub shm_bytes: u64,
    /// Channel-log bytes freed by truncation at checkpoint frontiers.
    pub log_bytes_truncated: u64,
    /// Shadow checkpoints taken (excluding the implicit initial cut).
    pub checkpoints_taken: u64,
    /// Per migration: shadow steps between the resumed cut and the crash
    /// frontier — the re-execution cost, bounded by `checkpoint_every`.
    pub migration_replay_steps: Vec<u64>,
    /// Per-worker heartbeat telemetry, indexed by worker slot. Workers
    /// that never answered a PING keep a zeroed row.
    pub per_worker: Vec<WorkerRow>,
}

/// The result of a distributed run.
#[derive(Debug)]
pub struct DistOutcome {
    /// Final snapshot of every rank, indexed by rank — bitwise comparable
    /// with [`ssp_runtime::run_simulated`]'s.
    pub snapshots: Vec<Vec<u8>>,
    /// Aggregated run metrics (per-rank from each rank's final group;
    /// per-channel from the final group of the channel's writer).
    pub metrics: RunMetrics,
    /// Supervisor counters.
    pub stats: DistStats,
    /// The merged cross-process flight log: every finished group's lanes
    /// relabeled `w<worker>/g<group>/<lane>`, plus a `lifecycle` lane of
    /// supervisor-side migration marks. `Some` iff
    /// [`DistConfig::flight`] was set. Per-worker timestamps share no
    /// clock — each group's lanes are relative to its own scheduler
    /// epoch (DESIGN.md §15 spells out the drift caveat).
    pub flight: Option<FlightLog>,
}

enum Event {
    Frame(usize, Frame),
    Dead(usize),
    Bad(usize, String),
}

struct Slot {
    child: Option<Child>,
    write: Option<Arc<Mutex<UnixStream>>>,
    alive: bool,
    /// The worker's direct-plane listening address from its HELLO.
    addr: String,
    /// When the most recent unanswered PING left, for RTT measurement.
    ping_sent: Option<Instant>,
}

struct GroupRec {
    ranks: Vec<usize>,
    worker: usize,
    done: bool,
}

/// One channel's message log, indexed by absolute sequence number. An
/// entry is the DATA payload as it arrived (`[chan][seq][message]`, see
/// [`crate::frame::encode_data`]): logged without a copy, replayed and
/// forwarded as is. Truncation advances `base` — the supervisor only ever
/// retains the in-flight window above the latest checkpoint's consumed
/// frontier.
#[derive(Default)]
struct ChanLog {
    base: u64,
    entries: VecDeque<Vec<u8>>,
}

/// The message bytes of a logged DATA payload.
fn message(entry: &[u8]) -> &[u8] {
    &entry[DATA_HEADER_LEN..]
}

impl ChanLog {
    /// The next sequence number to append (the log head).
    fn next(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn get(&self, seq: u64) -> Option<&Vec<u8>> {
        let i = seq.checked_sub(self.base)?;
        self.entries.get(i as usize)
    }

    fn push(&mut self, bytes: Vec<u8>) {
        self.entries.push_back(bytes);
    }

    /// Drop entries below `frontier`; returns payload bytes freed.
    fn truncate_to(&mut self, frontier: u64) -> u64 {
        let mut freed = 0;
        while self.base < frontier {
            match self.entries.pop_front() {
                Some(e) => {
                    freed += message(&e).len() as u64;
                    self.base += 1;
                }
                None => break,
            }
        }
        freed
    }

    /// Drop everything (the channel became group-internal); returns
    /// payload bytes freed.
    fn clear_all(&mut self) -> u64 {
        let freed: u64 = self.entries.iter().map(|e| message(e).len() as u64).sum();
        self.base = self.next();
        self.entries.clear();
        freed
    }
}

struct Supervisor<'a> {
    cfg: &'a DistConfig,
    spec: WorkloadSpec,
    topo: Topology,
    listener: UnixListener,
    sock_path: PathBuf,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    slots: Vec<Slot>,
    groups: Vec<GroupRec>,
    rank_group: Vec<usize>,
    /// rank → worker currently hosting it (maintained with rank_group).
    placement: Vec<usize>,
    /// Peer-table membership generation; bumped on every worker death.
    generation: u64,
    log: Vec<ChanLog>,
    /// The whole-program shadow execution, present iff
    /// [`DistConfig::checkpoint_every`] is set.
    shadow: Option<Box<dyn ProgramShadow>>,
    done_ranks: usize,
    snapshots: Vec<Option<Vec<u8>>>,
    metrics: RunMetrics,
    stats: DistStats,
    chaos_pending: Option<ChaosKill>,
    /// Merged cross-process flight lanes (empty when recording is off).
    flight_log: FlightLog,
}

impl Drop for Supervisor<'_> {
    fn drop(&mut self) {
        for s in &mut self.slots {
            if let Some(child) = &mut s.child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // The run directory also holds peer listener sockets and shm
        // ring files — sweep it whole.
        if let Some(dir) = self.sock_path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Disambiguates concurrent runs in one process (tests run in parallel).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Run `workload` (a registry name and its args, as for
/// [`crate::build_workload`]) across worker processes, surviving worker
/// deaths by live rank migration.
pub fn run_distributed(
    workload: &str,
    args: &JsonValue,
    cfg: &DistConfig,
) -> Result<DistOutcome, RunError> {
    if cfg.workers == 0 {
        return Err(proto_err("distributed run needs at least one worker".to_string()));
    }
    // Validate the workload and capture the topology before spawning
    // anything; the same spec goes to every worker in its ASSIGN.
    let spec = WorkloadSpec::from_args(workload, args)?;
    let w = spec.build();
    let topo = w.topology();
    let n = topo.n_procs();
    let shadow = cfg.checkpoint_every.map(|k| w.shadow(k.max(1)));
    drop(w);

    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ssp-dist-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| proto_err(format!("create socket dir {}: {e}", dir.display())))?;
    let sock_path = dir.join("sup.sock");
    let listener = UnixListener::bind(&sock_path)
        .map_err(|e| proto_err(format!("bind {}: {e}", sock_path.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| proto_err(format!("listener nonblocking: {e}")))?;

    let (tx, rx) = channel();
    let n_chans = topo.n_channels();
    let mut sup = Supervisor {
        cfg,
        spec,
        metrics: RunMetrics::for_topology(&topo),
        topo,
        listener,
        sock_path,
        tx,
        rx,
        slots: Vec::new(),
        groups: Vec::new(),
        rank_group: vec![usize::MAX; n],
        placement: vec![usize::MAX; n],
        generation: 0,
        log: (0..n_chans).map(|_| ChanLog::default()).collect(),
        shadow,
        done_ranks: 0,
        snapshots: vec![None; n],
        stats: DistStats::default(),
        chaos_pending: cfg.chaos_kill,
        flight_log: FlightLog::default(),
    };
    sup.metrics.sched.workers = 0;
    sup.run(n)
}

impl Supervisor<'_> {
    fn run(&mut self, n: usize) -> Result<DistOutcome, RunError> {
        let res = self.run_inner(n);
        if let Err(e) = &res {
            // Abnormal end (lost worker past the migration budget, timeout,
            // protocol violation): whatever merged flight lanes exist —
            // finished groups' traces plus the migration lifecycle — are
            // the distributed black box.
            if self.cfg.flight.is_some() && !self.flight_log.lanes.is_empty() {
                ssp_runtime::flight::write_postmortem(e, &self.flight_log);
            }
        }
        res
    }

    fn run_inner(&mut self, n: usize) -> Result<DistOutcome, RunError> {
        let deadline = Instant::now() + self.cfg.timeout;

        for _ in 0..self.cfg.workers {
            self.spawn_worker(deadline)?;
        }

        // Initial partition: contiguous rank blocks, one group per worker.
        // Placement is computed in full *before* the first ASSIGN so every
        // brokered peer table is complete from the start.
        let k = self.cfg.workers.min(n);
        let (base, rem) = (n / k, n % k);
        let mut plan: Vec<(usize, Vec<usize>)> = Vec::with_capacity(k);
        let mut next = 0;
        for w in 0..k {
            let len = base + usize::from(w < rem);
            let ranks: Vec<usize> = (next..next + len).collect();
            next += len;
            for &r in &ranks {
                self.placement[r] = w;
            }
            plan.push((w, ranks));
        }
        for (w, ranks) in plan {
            self.assign_group(w, ranks, false)?;
        }
        // Gate the shadow on the initial partition: cross-group sends
        // wait for mirror credits, internal channels free-run. This must
        // precede the first route_data (same thread, so it does).
        if let Some(sh) = &mut self.shadow {
            for c in 0..self.topo.n_channels() {
                let s = &self.topo.specs()[c];
                sh.set_gated(c, self.rank_group[s.writer] != self.rank_group[s.reader]);
            }
        }

        while self.done_ranks < n {
            if Instant::now() > deadline {
                return Err(RunError::WorkerLost {
                    worker: 0,
                    detail: format!("supervisor timed out after {:?}", self.cfg.timeout),
                });
            }
            match self.rx.recv_timeout(Duration::from_millis(100)) {
                Ok(Event::Frame(w, f)) => self.handle_frame(w, f, deadline)?,
                Ok(Event::Dead(w)) => self.worker_dead(w, deadline)?,
                Ok(Event::Bad(w, detail)) => {
                    return Err(proto_err(format!("worker {w} sent garbage: {detail}")));
                }
                Err(RecvTimeoutError::Timeout) => self.heartbeat(deadline)?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(proto_err("supervisor event channel closed".to_string()));
                }
            }
        }

        self.shutdown_workers();
        if let Some(sh) = &self.shadow {
            self.stats.checkpoints_taken = sh.cuts_taken().saturating_sub(1);
        }
        let snapshots = std::mem::take(&mut self.snapshots)
            .into_iter()
            .enumerate()
            .map(|(r, s)| s.ok_or_else(|| proto_err(format!("rank {r} finished without snapshot"))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DistOutcome {
            snapshots,
            metrics: self.metrics.clone(),
            stats: self.stats.clone(),
            flight: if self.cfg.flight.is_some() {
                Some(std::mem::take(&mut self.flight_log))
            } else {
                None
            },
        })
    }

    // -- worker lifecycle ---------------------------------------------------

    /// Spawn one worker process and complete its HELLO handshake.
    fn spawn_worker(&mut self, deadline: Instant) -> Result<usize, RunError> {
        let idx = self.slots.len();
        let gw = ssp_runtime::sched::pool_share(self.cfg.group_workers, self.cfg.workers);
        let flavor = if self.cfg.peer_tcp { "tcp" } else { "unix" };
        let child = Command::new(&self.cfg.worker_bin)
            .arg(&self.sock_path)
            .arg(idx.to_string())
            .arg(gw.to_string())
            .arg(flavor)
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| {
                proto_err(format!("spawn {}: {e}", self.cfg.worker_bin.display()))
            })?;
        self.slots.push(Slot {
            child: Some(child),
            write: None,
            alive: false,
            addr: String::new(),
            ping_sent: None,
        });

        let (hello_idx, addr, stream) = self.accept_hello(deadline)?;
        if hello_idx != idx {
            return Err(proto_err(format!(
                "expected HELLO from worker {idx}, got {hello_idx}"
            )));
        }
        let write = Arc::new(Mutex::new(
            stream.try_clone().map_err(|e| proto_err(format!("clone socket: {e}")))?,
        ));
        self.slots[idx].write = Some(write);
        self.slots[idx].alive = true;
        self.slots[idx].addr = addr;

        let tx = self.tx.clone();
        let mut read_half = stream;
        thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(f) => {
                    if tx.send(Event::Frame(idx, f)).is_err() {
                        return;
                    }
                }
                Err(FrameError::Malformed(m)) => {
                    let _ = tx.send(Event::Bad(idx, m));
                    return;
                }
                Err(_) => {
                    // EOF or torn frame: the worker is gone either way.
                    let _ = tx.send(Event::Dead(idx));
                    return;
                }
            }
        });
        Ok(idx)
    }

    /// Accept one connection and read its HELLO, polling the nonblocking
    /// listener until `deadline`.
    fn accept_hello(
        &mut self,
        deadline: Instant,
    ) -> Result<(usize, String, UnixStream), RunError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| proto_err(format!("stream blocking: {e}")))?;
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .map_err(|e| proto_err(format!("read timeout: {e}")))?;
                    let frame = read_frame(&mut (&stream))
                        .map_err(|e| e.into_run_error(0))?;
                    stream
                        .set_read_timeout(None)
                        .map_err(|e| proto_err(format!("read timeout: {e}")))?;
                    if frame.ty != FrameType::Hello {
                        return Err(proto_err(format!(
                            "first frame was {:?}, expected HELLO",
                            frame.ty
                        )));
                    }
                    let (idx, addr) = decode_hello(&frame.payload)?;
                    return Ok((idx, addr, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(proto_err("timed out waiting for worker HELLO".to_string()));
                    }
                    // A worker that died before connecting will never come.
                    for (i, s) in self.slots.iter_mut().enumerate() {
                        if let (false, Some(child)) = (s.alive, &mut s.child) {
                            if let Ok(Some(status)) = child.try_wait() {
                                return Err(proto_err(format!(
                                    "worker {i} exited before HELLO: {status}"
                                )));
                            }
                        }
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(proto_err(format!("accept: {e}"))),
            }
        }
    }

    /// Write a frame to worker `w`; `Err` means the worker is unreachable.
    fn send_to(&self, w: usize, ty: FrameType, payload: &[u8]) -> std::io::Result<()> {
        let slot = &self.slots[w];
        let mtx = slot.write.as_ref().expect("worker has no socket");
        let mut s = wlock(mtx);
        write_frame_parts(&mut *s, ty, payload)?;
        s.flush()
    }

    /// Gracefully stop all live workers, folding their BYE counter
    /// reports into the stats, then reap every child.
    fn shutdown_workers(&mut self) {
        let mut awaiting = 0usize;
        for w in 0..self.slots.len() {
            if self.slots[w].alive
                && self.send_to(w, FrameType::Shutdown, &[]).is_ok()
            {
                awaiting += 1;
            }
        }
        let grace = Instant::now() + Duration::from_secs(5);
        while awaiting > 0 && Instant::now() < grace {
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Frame(w, f))
                    if f.ty == FrameType::Bye && self.slots[w].alive =>
                {
                    if self.fold_bye(&f.payload).is_ok() {
                        awaiting -= 1;
                    }
                }
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let grace = Instant::now() + Duration::from_secs(5);
        for s in &mut self.slots {
            if let Some(child) = &mut s.child {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() > grace => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        Ok(None) => thread::sleep(Duration::from_millis(10)),
                        Err(_) => break,
                    }
                }
            }
            s.child = None;
        }
    }

    fn fold_bye(&mut self, payload: &[u8]) -> Result<(), RunError> {
        let (df, db, sf, sb) = decode_bye(payload)?;
        self.stats.direct_frames += df;
        self.stats.direct_bytes += db;
        self.stats.shm_frames += sf;
        self.stats.shm_bytes += sb;
        Ok(())
    }

    // -- peer brokering ------------------------------------------------------

    /// The current peer introduction table: rank placement plus every
    /// live worker's dialable address.
    fn peer_table(&self) -> PeerTable {
        PeerTable {
            gen: self.generation,
            placement: self.placement.clone(),
            peers: self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.alive && !s.addr.is_empty())
                .map(|(i, s)| (i, s.addr.clone()))
                .collect(),
        }
    }

    /// Re-broadcast the peer table to every live worker (after a
    /// membership change). A failed write is a death notice.
    fn broadcast_peers(&mut self, deadline: Instant) -> Result<(), RunError> {
        if self.cfg.transport == TransportMode::Star {
            return Ok(());
        }
        let table = self.peer_table().encode();
        for w in 0..self.slots.len() {
            if self.slots[w].alive && self.send_to(w, FrameType::Peers, &table).is_err() {
                self.worker_dead(w, deadline)?;
            }
        }
        Ok(())
    }

    // -- group assignment and migration -------------------------------------

    /// Create a group of `ranks` on worker `target`. For a migration with
    /// checkpointing on, the ASSIGN carries the latest cut's manifest for
    /// these ranks, and only the logged in-flight window above the cut's
    /// consumed frontier is replayed; otherwise the group starts from
    /// scratch and the full logs replay. Channels that become internal to
    /// the merged group are un-gated in the shadow and their logs dropped.
    fn assign_group(
        &mut self,
        target: usize,
        ranks: Vec<usize>,
        migration: bool,
    ) -> Result<(), RunError> {
        let gid = self.groups.len();
        let mut member = vec![false; self.topo.n_procs()];
        for &r in &ranks {
            member[r] = true;
            self.rank_group[r] = gid;
            self.placement[r] = target;
        }
        self.groups.push(GroupRec { ranks, worker: target, done: false });
        let deadline = Instant::now() + self.cfg.timeout;

        // Replay baseline per channel: the cut's consumed frontier when
        // resuming from a checkpoint, zero (full history) otherwise.
        let n_chans = self.topo.n_channels();
        let mut replay_from = vec![0u64; n_chans];
        let mut resume = None;
        if migration {
            if let Some(sh) = &mut self.shadow {
                let replay_steps = sh.steps().saturating_sub(sh.cut_steps());
                self.stats.migration_replay_steps.push(replay_steps);
                resume = Some(sh.manifest(&self.groups[gid].ranks));
                for (c, slot) in replay_from.iter_mut().enumerate() {
                    *slot = sh.cut_consumed(c);
                }
            }
        }

        let assign = Assign {
            group: gid as u64,
            spec: self.spec,
            ranks: self.groups[gid].ranks.clone(),
            flight: self.cfg.flight,
            plane: self.cfg.transport,
            table: (self.cfg.transport != TransportMode::Star).then(|| self.peer_table()),
            resume,
        };
        if self.send_to(target, FrameType::Assign, &assign.encode()).is_err() {
            // The target died under us; its own death handling re-migrates
            // everything it hosted, including the group just recorded.
            return self.worker_dead(target, deadline);
        }

        for (c, &replay_base) in replay_from.iter().enumerate() {
            let spec = &self.topo.specs()[c];
            let (win, rin) = (member[spec.writer], member[spec.reader]);
            if rin && !win {
                // Inbound edge: replay the logged window the seeded state
                // has not consumed. FIFO after the ASSIGN on the same
                // socket, and the worker's gates drop anything stale.
                let start = replay_base.max(self.log[c].base);
                let end = self.log[c].next();
                for seq in start..end {
                    let entry = self.log[c].get(seq).expect("seq in [base, next)");
                    if self.send_to(target, FrameType::Data, entry).is_err() {
                        return self.worker_dead(target, deadline);
                    }
                    self.stats.frames_replayed += 1;
                }
            }
            if win && rin {
                // Became internal to the merged group: regenerated and
                // consumed locally, never routed or logged again.
                if let Some(sh) = &mut self.shadow {
                    sh.set_gated(c, false);
                }
                self.stats.log_bytes_truncated += self.log[c].clear_all();
            }
        }
        Ok(())
    }

    /// Handle the death of worker `w`: migrate all its unfinished groups,
    /// merged, to a target chosen by policy, then re-broker the peer
    /// table under a bumped generation. Idempotent.
    fn worker_dead(&mut self, w: usize, deadline: Instant) -> Result<(), RunError> {
        if !self.slots[w].alive {
            return Ok(());
        }
        self.slots[w].alive = false;
        self.generation += 1;
        if let Some(child) = &mut self.slots[w].child {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[w].child = None;

        let mut merged: Vec<usize> = Vec::new();
        for g in &self.groups {
            if g.worker == w && !g.done {
                merged.extend_from_slice(&g.ranks);
            }
        }
        if merged.is_empty() {
            // Nothing hosted here — the survivors still need to learn the
            // membership change so they stop dialing the corpse.
            return self.broadcast_peers(deadline);
        }
        merged.sort_unstable();

        self.stats.migrations += 1;
        if self.stats.migrations > self.cfg.max_migrations {
            return Err(RunError::WorkerLost {
                worker: w,
                detail: format!(
                    "migration budget ({}) exhausted migrating ranks {merged:?}",
                    self.cfg.max_migrations
                ),
            });
        }

        let target = match self.cfg.policy {
            MigrationPolicy::Spawn => None,
            MigrationPolicy::Survivor => self.least_loaded_survivor(),
        };
        let target = match target {
            Some(t) => t,
            None => {
                self.stats.workers_spawned += 1;
                self.spawn_worker(deadline)?
            }
        };
        if self.cfg.flight.is_some() {
            // Lifecycle mark in the merged log: `chan` = source worker,
            // `bytes` = destination (the FlightKind::Migrate convention).
            // The ordinal stands in for a timestamp — supervisor marks
            // share no clock with the workers' lane epochs.
            self.flight_log.push_lifecycle(
                self.stats.migrations,
                FlightKind::Migrate,
                merged[0],
                w,
                target as u64,
            );
        }
        self.assign_group(target, merged, true)?;
        self.broadcast_peers(deadline)
    }

    /// The live worker currently hosting the fewest unfinished ranks.
    fn least_loaded_survivor(&self) -> Option<usize> {
        let mut load: HashMap<usize, usize> = HashMap::new();
        for (i, s) in self.slots.iter().enumerate() {
            if s.alive {
                load.insert(i, 0);
            }
        }
        for g in &self.groups {
            if !g.done {
                if let Some(l) = load.get_mut(&g.worker) {
                    *l += g.ranks.len();
                }
            }
        }
        load.into_iter().min_by_key(|&(i, l)| (l, i)).map(|(i, _)| i)
    }

    /// Probe live workers; a failed write is how we notice a peer whose
    /// EOF got lost. Also reaps children that exited without closing.
    fn heartbeat(&mut self, deadline: Instant) -> Result<(), RunError> {
        for w in 0..self.slots.len() {
            if !self.slots[w].alive {
                continue;
            }
            let exited = match &mut self.slots[w].child {
                Some(child) => matches!(child.try_wait(), Ok(Some(_))),
                None => false,
            };
            let now = Instant::now();
            if exited || self.send_to(w, FrameType::Ping, &[]).is_err() {
                self.worker_dead(w, deadline)?;
            } else if self.slots[w].ping_sent.is_none() {
                // Only arm the RTT clock when no PING is outstanding, so a
                // slow worker's reply is matched to its own probe.
                self.slots[w].ping_sent = Some(now);
            }
        }
        Ok(())
    }

    // -- frame handling ------------------------------------------------------

    fn handle_frame(&mut self, w: usize, f: Frame, deadline: Instant) -> Result<(), RunError> {
        if !self.slots[w].alive {
            // A corpse's leftovers: sends its replacement regenerates.
            return Ok(());
        }
        match f.ty {
            FrameType::Data => self.route_data(w, f.payload, false, deadline),
            FrameType::DataRelay => self.route_data(w, f.payload, true, deadline),
            FrameType::GroupDone => self.handle_group_done(w, &f.payload),
            FrameType::Pong => self.handle_pong(w, &f.payload),
            FrameType::Bye => self.fold_bye(&f.payload),
            FrameType::Error => Err(proto_err(format!(
                "worker {w} failed: {}",
                String::from_utf8_lossy(&f.payload)
            ))),
            other => Err(proto_err(format!("worker {w} sent unexpected {other:?}"))),
        }
    }

    /// Fold one PONG's telemetry into the worker's row: record the RTT of
    /// the probe it answers, and warn when a worker claims live ranks but
    /// its progress counter has not moved since the previous reply — the
    /// heartbeat-visible signature of a stuck group.
    fn handle_pong(&mut self, w: usize, payload: &[u8]) -> Result<(), RunError> {
        let t = WorkerTelemetry::decode(payload)?;
        let rtt = self.slots[w].ping_sent.take().map(|t0| t0.elapsed().as_nanos() as u64);
        if self.stats.per_worker.len() <= w {
            self.stats.per_worker.resize_with(w + 1, WorkerRow::default);
        }
        let row = &mut self.stats.per_worker[w];
        if let Some(rtt) = rtt {
            row.rtt_nanos = rtt;
        }
        if row.pongs > 0 && t.live.ranks_live > 0 && t.live.progress == row.last.live.progress {
            row.flatlines += 1;
            eprintln!(
                "supervisor: worker {w} progress flatlined at {} with {} ranks live \
                 (heartbeat {})",
                t.live.progress, t.live.ranks_live, row.pongs
            );
        }
        row.last = t;
        row.pongs += 1;
        Ok(())
    }

    /// The unified DATA/RELAY path. Every frame is a (chan, seq, bytes)
    /// triple against the channel's absolute-sequence log:
    ///
    /// * below the log base — a re-send the truncation already judged
    ///   (the checkpoint consumed past it); dropped silently;
    /// * inside the log — byte-compared against the original (a failed
    ///   compare is a determinism violation), then dropped;
    /// * at the head — appended, credited to the shadow, and the logs
    ///   truncated to the (possibly new) cut's consumed frontiers;
    /// * past the head — a protocol violation (per-channel FIFO mirrors
    ///   cannot skip).
    ///
    /// Forwarding: every frame in star mode; only relays in direct mode.
    /// The log keeps `payload` itself, and a forward borrows it from there.
    fn route_data(
        &mut self,
        from: usize,
        payload: Vec<u8>,
        relay: bool,
        deadline: Instant,
    ) -> Result<(), RunError> {
        let (chan, seq, _) = decode_data(&payload)?;
        if chan >= self.topo.n_channels() {
            return Err(proto_err(format!("worker {from} sent DATA for channel {chan}")));
        }
        self.stats.frames_routed += 1;

        if let Some(ck) = self.chaos_pending {
            if self.stats.frames_routed >= ck.after_frames {
                self.chaos_pending = None;
                if let Some(child) =
                    self.slots.get_mut(ck.worker).and_then(|s| s.child.as_mut())
                {
                    // SIGKILL — no cleanup, no goodbye; the reader thread's
                    // EOF event drives the migration.
                    let _ = child.kill();
                }
            }
        }

        let log = &mut self.log[chan];
        if seq < log.base {
            // Truncated past: a resumed writer re-sending below the cut's
            // consumed frontier (its reader consumed it pre-checkpoint).
            self.stats.duplicates_dropped += 1;
            return Ok(());
        }
        if seq < log.next() {
            // Same channel and ordinal, so comparing whole payloads
            // compares the messages.
            let expect = log.get(seq).expect("seq in [base, next)");
            if payload != *expect {
                return Err(proto_err(format!(
                    "determinism violation: channel {chan} message {seq} differs between \
                     original and re-executed sender"
                )));
            }
            self.stats.duplicates_dropped += 1;
            return Ok(());
        }
        if seq > log.next() {
            return Err(proto_err(format!(
                "worker {from} skipped channel {chan} sequence {} (sent {seq})",
                log.next()
            )));
        }
        // Log before forwarding: a message that reaches the log survives
        // any downstream loss (a dead reader's replacement gets it from
        // the replay), so forwarding failures are never message loss.
        log.push(payload);
        self.stats.frames_logged += 1;

        // Forward before the shadow can truncate the entry away; a failed
        // forward is handled after the shadow has its credit.
        let mut lost_reader = None;
        if self.cfg.transport == TransportMode::Star || relay {
            self.stats.star_frames += 1;
            let reader = self.topo.specs()[chan].reader;
            let dest = self.groups[self.rank_group[reader]].worker;
            let entry = self.log[chan].get(seq).expect("just logged");
            if self.send_to(dest, FrameType::Data, entry).is_err() {
                lost_reader = Some(dest);
            }
        }
        if let Some(sh) = &mut self.shadow {
            sh.on_mirror(chan, message(self.log[chan].get(seq).expect("just logged")));
            sh.advance()?;
            for c in 0..self.topo.n_channels() {
                let frontier = sh.cut_consumed(c);
                self.stats.log_bytes_truncated += self.log[c].truncate_to(frontier);
            }
        }
        if let Some(dest) = lost_reader {
            // The frame just logged is part of the history assign_group
            // replays, so migration both reroutes and redelivers it.
            self.worker_dead(dest, deadline)?;
        }
        Ok(())
    }

    /// Fold one finished group in: its snapshots, metrics and flight log,
    /// after checking that `from` hosts the group, that it has not
    /// reported before, and that its snapshots cover exactly its ranks.
    fn handle_group_done(&mut self, from: usize, payload: &[u8]) -> Result<(), RunError> {
        let gd = GroupDone::decode(payload)?;
        let gid = gd.group as usize;
        if gid >= self.groups.len() || self.groups[gid].worker != from {
            return Err(proto_err(format!(
                "worker {from} reported GROUP_DONE for group {gid} it does not host"
            )));
        }
        if self.groups[gid].done {
            return Err(proto_err(format!("group {gid} reported done twice")));
        }
        let n = self.topo.n_procs();
        if gd.metrics.procs.len() != n || gd.metrics.channels.len() != self.topo.n_channels() {
            return Err(proto_err(format!(
                "group {gid} metrics have wrong shape ({} procs, {} channels)",
                gd.metrics.procs.len(),
                gd.metrics.channels.len()
            )));
        }
        let mut hosted = vec![false; n];
        for &r in &self.groups[gid].ranks {
            hosted[r] = true;
        }
        let mut reported = vec![false; n];
        for (rank, snap) in gd.snapshots {
            if rank >= n || !hosted[rank] || reported[rank] {
                return Err(proto_err(format!(
                    "group {gid} reported a snapshot for unexpected rank {rank}"
                )));
            }
            reported[rank] = true;
            self.snapshots[rank] = Some(snap);
            self.metrics.procs[rank] = gd.metrics.procs[rank];
        }
        if (0..n).any(|r| hosted[r] && !reported[r]) {
            return Err(proto_err(format!("group {gid} omitted snapshots for some ranks")));
        }
        // Channel totals come from the final instance of the channel's
        // writer: a re-executed group counts from zero to the full total,
        // so its numbers stand alone. A checkpoint-resumed group counts
        // from the manifest's counters for the same effect.
        for c in 0..self.topo.n_channels() {
            if hosted[self.topo.specs()[c].writer] {
                let (ours, theirs) = (&mut self.metrics.channels[c], &gd.metrics.channels[c]);
                ours.messages = theirs.messages;
                ours.bytes = theirs.bytes;
                ours.max_queue_depth = theirs.max_queue_depth;
            }
        }
        self.metrics.sched.workers += gd.metrics.sched.workers;
        self.metrics.sched.steals += gd.metrics.sched.steals;
        self.metrics.sched.yields += gd.metrics.sched.yields;
        self.metrics.sched.task_parks += gd.metrics.sched.task_parks;

        // Lanes are relabeled with the worker and group that produced them.
        for mut lane in gd.flight.into_iter().flat_map(|log| log.lanes) {
            lane.label = format!("w{from}/g{gid}/{}", lane.label);
            self.flight_log.lanes.push(lane);
        }

        self.groups[gid].done = true;
        self.done_ranks += self.groups[gid].ranks.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_names_parse_exactly_and_nothing_else_does() {
        let table = [
            ("star", Some(TransportMode::Star)),
            ("direct", Some(TransportMode::Direct { shm: false })),
            ("direct+shm", Some(TransportMode::Direct { shm: true })),
            ("shm", None),
            ("tcp", None),
            ("", None),
            ("Direct", None),
            ("STAR", None),
            (" direct", None),
            ("direct ", None),
            ("direct+", None),
            ("direct+shm+", None),
            ("direct-shm", None),
        ];
        for (name, want) in table {
            assert_eq!(TransportMode::parse(name), want, "{name:?}");
        }
        assert_eq!(TransportMode::DEFAULT, TransportMode::Direct { shm: false });
    }
}
