//! The supervisor: topology owner, peer broker, checkpointer, and
//! migration driver.
//!
//! One supervisor process spawns N worker processes, each with its end of
//! a Unix-domain socket pair as its stdin, and partitions the program's
//! ranks into *groups* (one scheduler instance per group, initially one
//! group per worker).
//!
//! ## Worker lifecycle
//!
//! Every wait is on an event, never on a sleep. All W workers start
//! before the first HELLO is read, so their start-ups overlap. The
//! supervisor keeps only its own end of each pair, so a worker's exit is
//! the last close of the other end and reaches its reader thread as EOF:
//! before HELLO that is a typed [`RunError::WorkerLost`] naming the worker
//! and its exit status, after it a death to migrate, and at shutdown the
//! sign that the worker is gone and can be reaped.
//!
//! ## Data planes
//!
//! PR 7 routed every cross-group message through the supervisor — a star
//! topology, two hops per message, logged at the supervisor. Now the
//! supervisor is off the byte path:
//!
//! * In [`TransportMode::Direct`] (the default, without shm) the
//!   supervisor brokers a peer table
//!   (worker addresses from their HELLOs, rank placement from its own
//!   group map) inside every ASSIGN and re-broadcasts it as PEERS after a
//!   membership change. Workers then deliver to each other directly —
//!   worker↔worker sockets, or, with `shm`, shared-memory rings with
//!   socket doorbells. Only `DATA_RELAY` frames (a worker's direct
//!   delivery failed) reach the supervisor, which forwards them; the
//!   steady-state star-routed frame count is ~0, measured by
//!   [`DistStats::star_frames`].
//! * In [`TransportMode::Star`] every `DATA` frame is forwarded exactly as
//!   in PR 7 — the fallback mode, still exercised by CI.
//!
//! The supervisor logs nothing. Each worker logs the sends it makes to
//! other processes (`worker.rs`, "Send logs"), and after a migration the
//! supervisor's membership broadcast — on every plane — names each channel
//! into the merged group and the sequence number its writer's worker
//! replays from. By Theorem 1 a lost message is either in a live sender's
//! log or regenerated by re-executing a dead sender; the readers' gates
//! drop duplicates and check them against the digests of the originals.
//!
//! ## Checkpoint-resumed migration
//!
//! With [`DistConfig::checkpoint_every`] set, the supervisor maintains a
//! whole-program **shadow execution** ([`crate::registry::ProgramShadow`]):
//! deterministic replicas of every rank, advanced on the supervisor using
//! *credits* for cross-group sends — each worker also writes every send
//! to the supervisor, which the shadow byte-compares — so the shadow never
//! runs ahead of what actually happened on any cross-group channel, and
//! any state it reaches is a consistent global cut (the paper's Theorem 1
//! argument). Every `checkpoint_every` shadow steps it clones a cut, and
//! the supervisor sends every worker the cut's consumed frontiers (CUT);
//! the workers truncate their send logs there. On a worker death the dead
//! ranks resume *from the latest cut*: the supervisor's ASSIGN carries a
//! sealed [`ssp_runtime::GroupManifest`] of the cut state, and the writers'
//! workers replay only the window above the cut's consumed frontier —
//! making both replay cost and log retention O(checkpoint interval)
//! instead of O(history).
//!
//! Without `checkpoint_every` the PR 7 behavior is preserved: migrated
//! groups rebuild from their initial state and the full logs replay.
//!
//! DESIGN.md §16 states which failure patterns recover: any single worker
//! death does.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ssp_runtime::json::JsonValue;
use ssp_runtime::{FlightKind, FlightLog, RunError, RunMetrics, Topology};

use crate::frame::{decode_data, read_frame, write_frame_parts, Frame, FrameError, FrameType};
use crate::proto::{
    decode_hello, encode_chaos, encode_cut, Assign, Bye, GroupDone, Membership, PeerTable,
    WorkerTelemetry,
};
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
    /// Workers deliver to each other over brokered peer sockets; the
    /// supervisor sees a message only when a peer is unreachable. With
    /// `shm`, co-located pairs move payloads through shared-memory rings
    /// (socket doorbells).
    Direct {
        /// Enable the shared-memory plane on top of peer sockets.
        shm: bool,
    },
}

/// How often the supervisor PINGs every live worker.
const HEARTBEAT: Duration = Duration::from_millis(100);

/// How long a started worker has to say HELLO.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a worker has, after SHUTDOWN, to say BYE and exit before it
/// is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

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

/// Fault-injection knob: SIGKILL a worker mid-run, a non-graceful death.
/// The victim stops at its cross-group send number `after_sends` (0
/// counts as 1) before making it, reports a CHAOS frame and waits; the
/// supervisor then kills it. So a victim with that many sends to make
/// always dies mid-run, with its own messages in flight.
#[derive(Debug, Clone, Copy)]
pub struct ChaosKill {
    /// Index of the worker to kill.
    pub worker: usize,
    /// The victim's cross-group send at which it stops.
    pub after_sends: u64,
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
    /// then resume from the latest cut, and the workers' send logs are
    /// truncated at its consumed frontiers. Each cross-process send is
    /// then also written to the supervisor as a shadow credit. `None` =
    /// migrated ranks restart from their initial states, and the send
    /// logs keep the whole history.
    pub checkpoint_every: Option<u64>,
    /// Use loopback TCP instead of Unix-domain sockets for the direct
    /// worker↔worker plane. [`DistConfig::new`] sets `false`.
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
            peer_tcp: false,
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

/// Counters describing what the supervisor and the worker fleet did. The
/// workers' counters arrive in their BYE reports at shutdown, so the
/// counts of a worker that was killed are lost.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Dead-worker group migrations performed.
    pub migrations: u64,
    /// Worker processes spawned beyond the initial fleet.
    pub workers_spawned: u64,
    /// DATA/RELAY frames read by the supervisor: every message on the
    /// star, relays and (with checkpointing) shadow credits on the direct
    /// planes, where a run without checkpointing keeps this 0.
    pub frames_routed: u64,
    /// Worker-reported send-log entries re-sent after migrations (from BYE).
    pub frames_replayed: u64,
    /// Worker-reported duplicate arrivals their gates checked against the
    /// originals' digests and dropped (from BYE).
    pub duplicates_dropped: u64,
    /// Worker-reported cross-process sends appended to their send logs
    /// (from BYE).
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
    /// Worker-reported send-log message bytes freed at checkpoint
    /// frontiers (from BYE).
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
    /// The supervisor's end of the worker's socket, from spawn until its
    /// HELLO is read.
    hello: Option<UnixStream>,
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

struct Supervisor<'a> {
    cfg: &'a DistConfig,
    spec: WorkloadSpec,
    topo: Topology,
    /// The run directory: the workers' peer sockets and shm ring files.
    dir: PathBuf,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    slots: Vec<Slot>,
    groups: Vec<GroupRec>,
    rank_group: Vec<usize>,
    /// rank → worker currently hosting it (maintained with rank_group).
    placement: Vec<usize>,
    /// Peer-table membership generation; bumped on every worker death.
    generation: u64,
    /// The whole-program shadow execution, present iff
    /// [`DistConfig::checkpoint_every`] is set.
    shadow: Option<Box<dyn ProgramShadow>>,
    /// Per channel, the sequence number of the next shadow credit.
    credited: Vec<u64>,
    done_ranks: usize,
    snapshots: Vec<Option<Vec<u8>>>,
    metrics: RunMetrics,
    stats: DistStats,
    /// Merged cross-process flight lanes (empty when recording is off).
    flight_log: FlightLog,
}

impl Drop for Supervisor<'_> {
    fn drop(&mut self) {
        for w in 0..self.slots.len() {
            self.reap(w);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
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
        .map_err(|e| proto_err(format!("create run dir {}: {e}", dir.display())))?;

    let (tx, rx) = channel();
    let n_chans = topo.n_channels();
    let mut sup = Supervisor {
        cfg,
        spec,
        metrics: RunMetrics::for_topology(&topo),
        topo,
        dir,
        tx,
        rx,
        slots: Vec::new(),
        groups: Vec::new(),
        rank_group: vec![usize::MAX; n],
        placement: vec![usize::MAX; n],
        generation: 0,
        shadow,
        credited: vec![0; n_chans],
        done_ranks: 0,
        snapshots: vec![None; n],
        stats: DistStats::default(),
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
            self.start_worker()?;
        }
        for w in 0..self.cfg.workers {
            self.await_hello(w, deadline)?;
        }
        if let Some(ck) = self.cfg.chaos_kill {
            // Armed before the victim's ASSIGN, on the same socket.
            let arm = encode_chaos(ck.after_sends);
            if ck.worker < self.slots.len()
                && self.send_to(ck.worker, FrameType::Chaos, &arm).is_err()
            {
                self.worker_dead(ck.worker, deadline)?;
            }
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
        // wait for credits, internal channels free-run. This must precede
        // the first credit (same thread, so it does).
        if let Some(sh) = &mut self.shadow {
            for c in 0..self.topo.n_channels() {
                let s = &self.topo.specs()[c];
                sh.set_gated(c, self.rank_group[s.writer] != self.rank_group[s.reader]);
            }
        }

        // Heartbeats run on a schedule, busy or not, so a worker whose
        // progress stalls under steady traffic is still seen.
        let mut next_beat = Instant::now() + HEARTBEAT;
        while self.done_ranks < n {
            let now = Instant::now();
            if now > deadline {
                return Err(RunError::WorkerLost {
                    worker: 0,
                    detail: format!("supervisor timed out after {:?}", self.cfg.timeout),
                });
            }
            if now >= next_beat {
                self.heartbeat(deadline)?;
                next_beat = now + HEARTBEAT;
                continue;
            }
            match self.rx.recv_timeout(next_beat - now) {
                Ok(Event::Frame(w, f)) => self.handle_frame(w, f, deadline)?,
                Ok(Event::Dead(w)) => self.worker_dead(w, deadline)?,
                Ok(Event::Bad(w, detail)) => {
                    return Err(proto_err(format!("worker {w} sent garbage: {detail}")));
                }
                Err(RecvTimeoutError::Timeout) => {}
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

    /// Start one worker process with its end of a fresh socket pair as
    /// its stdin. Its HELLO is read by [`Supervisor::await_hello`], so
    /// several workers can start at once.
    fn start_worker(&mut self) -> Result<usize, RunError> {
        let idx = self.slots.len();
        let gw = ssp_runtime::sched::pool_share(self.cfg.group_workers, self.cfg.workers);
        let flavor = if self.cfg.peer_tcp { "tcp" } else { "unix" };
        let (ours, theirs) =
            UnixStream::pair().map_err(|e| proto_err(format!("socket pair: {e}")))?;
        let mut cmd = Command::new(&self.cfg.worker_bin);
        cmd.arg(&self.dir)
            .arg(idx.to_string())
            .arg(gw.to_string())
            .arg(flavor)
            .stdin(Stdio::from(OwnedFd::from(theirs)));
        let spawned = cmd.spawn();
        // The command holds the supervisor's copy of the worker's end:
        // drop it now, so the worker's exit closes that end for good and
        // shows as EOF on ours.
        drop(cmd);
        let child = spawned.map_err(|e| {
            proto_err(format!("spawn {}: {e}", self.cfg.worker_bin.display()))
        })?;
        self.slots.push(Slot {
            child: Some(child),
            hello: Some(ours),
            write: None,
            alive: false,
            addr: String::new(),
            ping_sent: None,
        });
        Ok(idx)
    }

    /// Read started worker `idx`'s HELLO, then hand its socket to a reader
    /// thread that turns frames into events and EOF into [`Event::Dead`].
    fn await_hello(&mut self, idx: usize, deadline: Instant) -> Result<(), RunError> {
        let stream = self.slots[idx].hello.take().expect("a started worker's HELLO is read once");
        let wait = deadline.saturating_duration_since(Instant::now()).min(HELLO_TIMEOUT);
        let set_timeout = |t| {
            stream.set_read_timeout(t).map_err(|e| proto_err(format!("read timeout: {e}")))
        };
        set_timeout(Some(wait.max(Duration::from_millis(1))))?;
        let frame = match read_frame(&mut (&stream)) {
            Ok(f) => f,
            Err(FrameError::Eof) => {
                return Err(RunError::WorkerLost {
                    worker: idx,
                    detail: format!("exited before HELLO: {}", self.reap(idx)),
                })
            }
            Err(FrameError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Err(RunError::WorkerLost {
                    worker: idx,
                    detail: format!("no HELLO within {wait:?}"),
                })
            }
            Err(e) => return Err(e.into_run_error(0)),
        };
        set_timeout(None)?;
        if frame.ty != FrameType::Hello {
            return Err(proto_err(format!(
                "worker {idx}'s first frame was {:?}, expected HELLO",
                frame.ty
            )));
        }
        let (hello_idx, addr) = decode_hello(&frame.payload)?;
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
        if self.shadow.is_some() {
            // Before any ASSIGN: the worker credits its sends from the start.
            let cut = self.cut_frame();
            self.send_to(idx, FrameType::Cut, &cut)
                .map_err(|e| proto_err(format!("CUT to new worker {idx}: {e}")))?;
        }

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
        Ok(())
    }

    /// Kill worker `w`'s process if it still runs, reap it, and describe
    /// its exit status. After its socket's EOF the process has exited or
    /// is exiting, and a SIGKILL changes neither its status; it only ends
    /// one that closed its stdin and lives on.
    fn reap(&mut self, w: usize) -> String {
        let Some(mut child) = self.slots[w].child.take() else {
            return "already reaped".to_string();
        };
        let _ = child.kill();
        match child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("status unknown: {e}"),
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

    /// Gracefully stop all live workers: SHUTDOWN to each, then fold in
    /// its BYE counter report and wait for its EOF, within
    /// [`SHUTDOWN_GRACE`]. Then reap every child; one still open after the
    /// grace is killed first.
    fn shutdown_workers(&mut self) {
        let mut open: Vec<bool> = (0..self.slots.len())
            .map(|w| self.slots[w].alive && self.send_to(w, FrameType::Shutdown, &[]).is_ok())
            .collect();
        let mut awaiting = open.iter().filter(|&&o| o).count();
        let grace = Instant::now() + SHUTDOWN_GRACE;
        while awaiting > 0 {
            let left = grace.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(Event::Frame(w, f)) if f.ty == FrameType::Bye && open[w] => {
                    let _ = self.fold_bye(&f.payload);
                }
                Ok(Event::Dead(w)) if open[w] => {
                    open[w] = false;
                    awaiting -= 1;
                }
                // Its reader gave up on garbage, so no EOF will be seen.
                Ok(Event::Bad(w, _)) if open[w] => awaiting -= 1,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for (s, open) in self.slots.iter_mut().zip(open) {
            if let Some(mut child) = s.child.take() {
                if open {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
    }

    fn fold_bye(&mut self, payload: &[u8]) -> Result<(), RunError> {
        let bye = Bye::decode(payload)?;
        let st = &mut self.stats;
        st.direct_frames += bye.direct_frames;
        st.direct_bytes += bye.direct_bytes;
        st.shm_frames += bye.shm_frames;
        st.shm_bytes += bye.shm_bytes;
        st.frames_logged += bye.frames_logged;
        st.frames_replayed += bye.frames_replayed;
        st.duplicates_dropped += bye.duplicates_dropped;
        st.log_bytes_truncated += bye.log_bytes_truncated;
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

    /// Broadcast the membership after a change — the peer table plus
    /// the channels to replay — to every live worker, on every plane. A
    /// failed write is a death notice, handled once the broadcast is out.
    fn broadcast_membership(
        &mut self,
        replay: Vec<(usize, u64)>,
        deadline: Instant,
    ) -> Result<(), RunError> {
        let payload = Membership { table: self.peer_table(), replay }.encode();
        self.broadcast(FrameType::Peers, &payload, deadline)
    }

    /// Send one frame to every live worker, then handle the deaths the
    /// failed writes revealed.
    fn broadcast(
        &mut self,
        ty: FrameType,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(), RunError> {
        let dead: Vec<usize> = (0..self.slots.len())
            .filter(|&w| self.slots[w].alive && self.send_to(w, ty, payload).is_err())
            .collect();
        for w in dead {
            self.worker_dead(w, deadline)?;
        }
        Ok(())
    }

    /// The latest shadow cut's consumed frontiers as a CUT payload.
    fn cut_frame(&self) -> Vec<u8> {
        let sh = self.shadow.as_ref().expect("CUT needs the shadow");
        let frontiers: Vec<u64> = (0..self.topo.n_channels()).map(|c| sh.cut_consumed(c)).collect();
        encode_cut(&frontiers)
    }

    // -- group assignment and migration -------------------------------------

    /// Create a group of `ranks` on worker `target`, and return what the
    /// writers' workers must replay into it: each inbound channel with the
    /// sequence number to start from. For a migration with checkpointing
    /// on, the ASSIGN carries the latest cut's manifest for these ranks
    /// and replay starts at the cut's consumed frontier; otherwise the
    /// group starts from scratch and replay at 0. Channels that become
    /// internal to the merged group are un-gated in the shadow.
    fn assign_group(
        &mut self,
        target: usize,
        ranks: Vec<usize>,
        migration: bool,
    ) -> Result<Vec<(usize, u64)>, RunError> {
        let gid = self.groups.len();
        let mut member = vec![false; self.topo.n_procs()];
        for &r in &ranks {
            member[r] = true;
            self.rank_group[r] = gid;
            self.placement[r] = target;
        }
        self.groups.push(GroupRec { ranks, worker: target, done: false });
        let deadline = Instant::now() + self.cfg.timeout;

        let mut resume = None;
        if migration {
            if let Some(sh) = &mut self.shadow {
                let replay_steps = sh.steps().saturating_sub(sh.cut_steps());
                self.stats.migration_replay_steps.push(replay_steps);
                resume = Some(sh.manifest(&self.groups[gid].ranks));
            }
        }
        let mut replay = Vec::new();
        for (c, spec) in self.topo.specs().iter().enumerate() {
            let (win, rin) = (member[spec.writer], member[spec.reader]);
            if migration && rin && !win {
                let from = self.shadow.as_ref().map_or(0, |sh| sh.cut_consumed(c));
                replay.push((c, from));
            }
            if win && rin {
                // Became internal to the merged group: regenerated and
                // consumed locally, never credited again.
                if let Some(sh) = &mut self.shadow {
                    sh.set_gated(c, false);
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
            self.worker_dead(target, deadline)?;
        }
        Ok(replay)
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
        self.reap(w);

        let mut merged: Vec<usize> = Vec::new();
        for g in &self.groups {
            if g.worker == w && !g.done {
                merged.extend_from_slice(&g.ranks);
            }
        }
        if merged.is_empty() {
            // Nothing hosted here — the survivors still need to learn the
            // membership change so they stop dialing the corpse.
            return self.broadcast_membership(Vec::new(), deadline);
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
                let fresh = self.start_worker()?;
                self.await_hello(fresh, deadline)?;
                fresh
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
        let replay = self.assign_group(target, merged, true)?;
        self.broadcast_membership(replay, deadline)
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

    /// Probe live workers for telemetry; a failed write is a death notice
    /// that may beat the worker's EOF.
    fn heartbeat(&mut self, deadline: Instant) -> Result<(), RunError> {
        for w in 0..self.slots.len() {
            if !self.slots[w].alive {
                continue;
            }
            let now = Instant::now();
            if self.send_to(w, FrameType::Ping, &[]).is_err() {
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
            FrameType::Data => self.on_data(w, &f.payload, false, deadline),
            FrameType::DataRelay => self.on_data(w, &f.payload, true, deadline),
            FrameType::Chaos if self.cfg.chaos_kill.is_some_and(|ck| ck.worker == w) => {
                // The victim stopped at its armed send: SIGKILL it (no
                // cleanup, no goodbye) and migrate what it hosted.
                self.worker_dead(w, deadline)
            }
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

    /// A DATA or DATA_RELAY frame from worker `from`. On the star, and for
    /// a relay, forward it to the reader's worker. With checkpointing on,
    /// it is also a shadow credit: the next one for its channel is fed to
    /// the shadow, and one below it is a re-executed sender's or a
    /// replay's duplicate, which the reader's gate judges. Credits cannot
    /// skip: a channel's writer lives on one worker at a time, and a
    /// resumed one counts on from a cut the credits already passed.
    fn on_data(
        &mut self,
        from: usize,
        payload: &[u8],
        relay: bool,
        deadline: Instant,
    ) -> Result<(), RunError> {
        let (chan, seq, msg) = decode_data(payload)?;
        if chan >= self.topo.n_channels() {
            return Err(proto_err(format!("worker {from} sent DATA for channel {chan}")));
        }
        self.stats.frames_routed += 1;

        let mut lost_reader = None;
        if self.cfg.transport == TransportMode::Star || relay {
            self.stats.star_frames += 1;
            let dest = self.groups[self.rank_group[self.topo.specs()[chan].reader]].worker;
            if self.send_to(dest, FrameType::Data, payload).is_err() {
                lost_reader = Some(dest);
            }
        }
        if let Some(sh) = &mut self.shadow {
            let next = self.credited[chan];
            if seq > next {
                return Err(proto_err(format!(
                    "worker {from} skipped channel {chan} credit {next} (sent {seq})"
                )));
            }
            if seq == next {
                self.credited[chan] += 1;
                sh.on_credit(chan, msg);
                let cuts = sh.cuts_taken();
                sh.advance()?;
                if sh.cuts_taken() > cuts {
                    let cut = self.cut_frame();
                    self.broadcast(FrameType::Cut, &cut, deadline)?;
                }
            }
        }
        if let Some(dest) = lost_reader {
            // The sender's log still holds the frame, and the migration's
            // membership broadcast has it replayed.
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
