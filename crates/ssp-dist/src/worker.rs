//! The worker process: hosts groups of ranks on behalf of the supervisor.
//!
//! A worker is a thin shell around the runtime's partial scheduler
//! ([`ssp_runtime::launch_partial`]): its stdin is its end of the socket
//! pair the supervisor made for it at spawn; it says HELLO there and then
//! serves a frame loop. Each ASSIGN spins up one *group* — an independent
//! scheduler instance hosting some ranks — whose cross-group channel ends
//! are bridged to the data plane.
//!
//! ## Data planes (phase 2)
//!
//! Every cross-group message carries an absolute per-channel sequence
//! number, and a worker reaches the channel's reader over the plane its
//! ASSIGN names:
//!
//! * **direct** (the default) — a `DATA_DIRECT` frame on the
//!   worker↔worker socket ([`crate::transport`]), brokered by the
//!   supervisor's peer table.
//! * **shm** (opt-in, `direct+shm`) — when the reader's worker is a live
//!   direct peer and the shared ring ([`crate::shm`]) has space, payload
//!   bytes go through the ring and a 32-byte doorbell rides the peer
//!   socket; a full ring falls back to a `DATA_DIRECT` frame.
//! * **star** — the PR 7 path: the supervisor forwards. Used when the
//!   mode is star, before a peer table arrives, and as the *relay*
//!   fallback when a peer connection breaks (`DATA_RELAY`).
//!
//! A cross-group send is the sending rank's own write, made before it
//! halts: the group's sink runs on the scheduler worker doing the send. It
//! encodes a message's DATA payload once, and frames are written from
//! borrowed payloads with no staging copy
//! ([`crate::frame::write_frame_parts`]).
//!
//! ## Send logs
//!
//! The worker, not the supervisor, keeps what recovery replays. The sink
//! appends the DATA payload of every send whose reader lives in another
//! process to that channel's send log, under the same lock as the
//! placement lookup and before any byte leaves. After a migration the
//! supervisor's membership broadcast (PEERS, on every plane) names each
//! channel into the merged group and the sequence number to replay from,
//! and the worker re-sends its log from there to the reader's new host
//! under that lock. So a message is either in the log when the table
//! changes, and replayed, or sent after it, to the new placement. A dead
//! writer's messages are regenerated by re-executing it (Theorem 1), and
//! the reader's gate drops the duplicates.
//!
//! The supervisor reads no DATA on the direct planes unless checkpointing
//! is on: then each send also goes to it as a *shadow credit*, and its
//! CUT frames name the consumed frontiers below which the send logs and
//! the gates' digests are dropped.
//!
//! ## Inbound ordering
//!
//! All inbound deliveries — star, direct, shm — converge on one
//! `Router`: a per-channel *gate* tracks the next expected sequence
//! number, hands the expected one to its reader group straight from the
//! frame's buffer, copies out-of-order arrivals into a stash, and drops
//! duplicates (the same message can legitimately arrive twice, e.g. once
//! directly and once from a migration replay, or once from a dead writer
//! and again from its re-execution). The gate keeps a word-wise FNV-1a
//! digest of every message it has passed on, above the latest cut's
//! frontier; a duplicate whose digest differs is a typed determinism
//! violation.
//! Direct frames may even arrive *before* the ASSIGN that creates their
//! reader group; they wait in the gate's stash and drain the moment the
//! group registers.
//!
//! ## Checkpoint-resumed migration
//!
//! An ASSIGN may carry a checkpoint manifest. The group then launches
//! *seeded* from it ([`crate::registry::Workload::launch_group`] with the
//! manifest), seeds its outbound sequence counters from the manifest's
//! channel counters, and sets its inbound gates to the manifest's consumed
//! frontiers — so replay starts where the checkpoint ends, not at step
//! zero. A group's life is that one ASSIGN and one GROUP_DONE, which
//! carries its snapshots, metrics and flight log.
//!
//! A worker never exits on its own initiative: it leaves on SHUTDOWN
//! (answering with a BYE carrying its counters), on supervisor EOF, or by
//! being killed — the latter being precisely the failure the supervisor's
//! migration path exists to absorb.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use ssp_runtime::proc::Reader;
use ssp_runtime::{fnv1a_64, FlightKind, RunError};

use crate::frame::{
    decode_data, decode_shm_doorbell, encode_data, encode_shm_doorbell, read_frame,
    write_frame_parts, FrameError, FrameType, DATA_HEADER_LEN,
};
use crate::proto::{
    decode_chaos, decode_cut, decode_peer_hello, encode_hello, encode_peer_hello, Assign, Bye,
    GroupDone, Membership, PeerTable, WorkerTelemetry,
};
use crate::registry::{DataSink, GroupIngress};
use crate::shm::{ShmReceiver, ShmSender, SHM_CAPACITY};
use crate::supervisor::TransportMode;
use crate::transport::{PeerAddr, PeerListener, PeerStream};

/// Lock that shrugs off poisoning: a panicked peer thread must not stop
/// the worker from reporting its error frame.
fn wlock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Send one frame on the shared write half, serializing whole frames.
fn send(stream: &Arc<Mutex<UnixStream>>, ty: FrameType, payload: &[u8]) -> std::io::Result<()> {
    let mut s = wlock(stream);
    write_frame_parts(&mut *s, ty, payload)?;
    s.flush()
}

fn encode_shm_ack(consumed: u64) -> Vec<u8> {
    consumed.to_le_bytes().to_vec()
}

fn decode_shm_ack(payload: &[u8]) -> Result<u64, RunError> {
    let mut r = Reader::new("SHM_ACK", payload);
    let consumed = r.u64("consumed bytes")?;
    r.finish(consumed)
}

/// The gates' digest of a message: FNV-1a over 8-byte little-endian words,
/// then the tail bytes one at a time, then the length. Every step
/// `h = (h ^ x) * prime` is a bijection of `h` for a fixed `x` and of `x`
/// for a fixed `h` (the prime is odd), so two messages of equal length
/// that differ in one word or tail byte always digest differently. It
/// reads eight bytes per multiply where [`fnv1a_64`] reads one; that one
/// stays where its bytes are pinned (the manifest seal, the shm doorbell).
fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")))
    });
    let h = tail.iter().fold(h, |h, &b| step(h, u64::from(b)));
    step(h, bytes.len() as u64)
}

/// One channel's inbound sequence gate: the next ordinal the reader group
/// has not yet seen, a stash of early arrivals keyed by ordinal, and the
/// digest of every message passed on from `digest_base` to `expected`.
#[derive(Default)]
struct Gate {
    expected: u64,
    stash: BTreeMap<u64, (Vec<u8>, FlightKind)>,
    /// `digests[i]` is the [`digest`] of message `digest_base + i`.
    digests: VecDeque<u64>,
    digest_base: u64,
}

impl Gate {
    /// Pass message `expected` on: record its digest and move the gate.
    fn passed(&mut self, bytes: &[u8]) {
        self.digests.push_back(digest(bytes));
        self.expected += 1;
    }

    /// Judge a second arrival of `seq`, already passed on or stashed. A
    /// re-executed sender must send the same bytes (Theorem 1); below the
    /// digest base there is nothing left to compare with.
    fn check_duplicate(&self, chan: usize, seq: u64, bytes: &[u8]) -> Result<(), RunError> {
        let same = if seq < self.expected {
            seq.checked_sub(self.digest_base)
                .is_none_or(|i| self.digests[i as usize] == digest(bytes))
        } else {
            self.stash.get(&seq).is_none_or(|(b, _)| b == bytes)
        };
        if same {
            return Ok(());
        }
        Err(RunError::Protocol {
            proc: 0,
            detail: format!(
                "determinism violation: channel {chan} message {seq} differs between its \
                 first and a later arrival"
            ),
        })
    }

    /// Drop the digests below `frontier` (a cut's consumed frontier).
    fn truncate(&mut self, frontier: u64) {
        while self.digest_base < frontier && self.digests.pop_front().is_some() {
            self.digest_base += 1;
        }
    }
}

/// The single funnel for *all* inbound cross-group messages on this
/// worker, whatever plane they arrived on. Guarded by one mutex, which
/// doubles as the gateway-lane single-writer token for route marks.
#[derive(Default)]
struct Router {
    /// chan id → the ingress of whichever local group reads that channel.
    ingress: HashMap<usize, Arc<dyn GroupIngress>>,
    gates: HashMap<usize, Gate>,
    /// Arrivals dropped as duplicates.
    duplicates: u64,
}

impl Router {
    /// Deliver one message: a second arrival of an ordinal the gate has
    /// passed on or stashed is checked against the first and dropped. The
    /// next expected ordinal for a registered reader goes straight in from
    /// the borrowed bytes; anything else is copied into the stash. Then
    /// drain everything now in order.
    fn deliver(
        &mut self,
        chan: usize,
        seq: u64,
        bytes: &[u8],
        kind: FlightKind,
    ) -> Result<(), RunError> {
        let gate = self.gates.entry(chan).or_default();
        if seq < gate.expected || gate.stash.contains_key(&seq) {
            gate.check_duplicate(chan, seq, bytes)?;
            self.duplicates += 1;
            return Ok(());
        }
        match self.ingress.get(&chan) {
            Some(g) if seq == gate.expected => {
                g.push_inbound(chan, bytes, kind)?;
                gate.passed(bytes);
            }
            _ => {
                gate.stash.insert(seq, (bytes.to_vec(), kind));
            }
        }
        Self::drain(&self.ingress, chan, gate)
    }

    fn drain(
        ingress: &HashMap<usize, Arc<dyn GroupIngress>>,
        chan: usize,
        gate: &mut Gate,
    ) -> Result<(), RunError> {
        let Some(g) = ingress.get(&chan) else {
            // No reader group yet: frames wait for its ASSIGN.
            return Ok(());
        };
        while let Some((bytes, kind)) = gate.stash.remove(&gate.expected) {
            g.push_inbound(chan, &bytes, kind)?;
            gate.passed(&bytes);
        }
        Ok(())
    }

    /// Register a group as the reader of `chan`, fast-forward the gate to
    /// `expected` (a resumed group's checkpoint frontier — everything
    /// below it is already inside the seeded state), and drain the stash.
    fn register(
        &mut self,
        chan: usize,
        ingress: &Arc<dyn GroupIngress>,
        expected: u64,
    ) -> Result<(), RunError> {
        self.ingress.insert(chan, Arc::clone(ingress));
        let gate = self.gates.entry(chan).or_default();
        if expected > gate.expected {
            gate.expected = expected;
            gate.digests.clear();
            gate.digest_base = expected;
        }
        gate.stash = gate.stash.split_off(&gate.expected);
        Self::drain(&self.ingress, chan, gate)
    }
}

/// One channel's send log on its writer's worker: the DATA payload
/// ([`encode_data`]) of every cross-process send from `base` on, indexed
/// by absolute sequence number. Without checkpointing it keeps the whole
/// history; with it, the supervisor's cuts truncate it.
#[derive(Default)]
struct SendLog {
    base: u64,
    entries: VecDeque<Vec<u8>>,
}

impl SendLog {
    fn head(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Append message `seq`, which must follow the head; an empty log
    /// starts at `seq` (a resumed writer counts on from its cut). Returns
    /// the logged entry.
    fn push(&mut self, chan: usize, seq: u64, payload: Vec<u8>) -> Result<&[u8], RunError> {
        if self.entries.is_empty() {
            self.base = seq;
        } else if seq != self.head() {
            return Err(RunError::Protocol {
                proc: 0,
                detail: format!("channel {chan} send {seq} skips the log head {}", self.head()),
            });
        }
        self.entries.push_back(payload);
        Ok(self.entries.back().expect("just pushed"))
    }

    /// Drop entries below `frontier`; returns the message bytes freed.
    fn truncate_to(&mut self, frontier: u64) -> u64 {
        let mut freed = 0;
        while self.base < frontier {
            let Some(e) = self.entries.pop_front() else { break };
            freed += (e.len() - DATA_HEADER_LEN) as u64;
            self.base += 1;
        }
        freed
    }

    /// The entries from sequence number `from` on.
    fn since(&self, from: u64) -> impl Iterator<Item = &Vec<u8>> {
        self.entries.iter().skip(from.saturating_sub(self.base) as usize)
    }
}

/// One live direct connection to a peer worker: the write half of the
/// socket (a reader thread owns a clone) plus, when shm is on, the
/// producer side of the shared ring toward that peer.
struct PeerConn {
    stream: PeerStream,
    shm: Option<ShmSender>,
}

/// The worker's view of the peer world, updated from ASSIGN tables and
/// PEERS broadcasts.
#[derive(Default)]
struct PeerBook {
    gen: u64,
    /// `placement[rank]` = worker hosting that rank.
    placement: Vec<usize>,
    addrs: HashMap<usize, String>,
    conns: HashMap<usize, PeerConn>,
    /// Peers whose connection broke mid-generation. Never redialed while
    /// their table row is unchanged: a broken socket may have torn a
    /// frame, and the shared ring must not be re-truncated under a
    /// receiver that could still be draining. Relay covers them.
    broken: HashSet<usize>,
}

/// Everything a send must see at once, under one lock: the peer world it
/// routes by, the send logs it appends to, and their counters.
#[derive(Default)]
struct Outbox {
    peers: PeerBook,
    /// `readers[chan]` = the channel's reader rank (from the first ASSIGN).
    readers: Vec<usize>,
    /// Whether the ASSIGNs name a direct plane (else the star).
    direct: bool,
    /// Set by the first CUT: checkpointing is on, so a send that reaches
    /// its reader without a frame to the supervisor is also written there
    /// as a shadow credit.
    credits: bool,
    logs: HashMap<usize, SendLog>,
    frames_logged: u64,
    frames_replayed: u64,
    log_bytes_truncated: u64,
}

impl Outbox {
    /// The worker hosting `chan`'s reader, if the placement names one.
    fn reader_host(&self, chan: usize) -> Option<usize> {
        self.readers.get(chan).and_then(|&r| self.peers.placement.get(r).copied())
    }
}

/// Everything the frame loop, the peer-accept threads, and the group
/// sinks share.
struct Shared {
    id: usize,
    /// The run's temp directory (where the supervisor socket, the peer
    /// listener sockets and the shm ring files live).
    dir: PathBuf,
    sup: Arc<Mutex<UnixStream>>,
    router: Mutex<Router>,
    outbox: Mutex<Outbox>,
    /// Latest table generation seen; the PEER_HELLO acceptance bar.
    gen: AtomicU64,
    /// Whether any ASSIGN enabled the shm plane (`direct+shm` mode).
    shm_on: AtomicBool,
    direct_frames: AtomicU64,
    direct_bytes: AtomicU64,
    shm_frames: AtomicU64,
    shm_bytes: AtomicU64,
    /// DATA message bytes written to the supervisor.
    bytes_routed: AtomicU64,
    /// Cross-group sends begun so far.
    sends: AtomicU64,
    /// The send at which a chaos kill stops this worker; 0 = never.
    chaos_at: AtomicU64,
}

/// Run a worker on the supervisor socket that is this process's stdin,
/// identifying as `worker_id`. `dir` is the run directory, where its peer
/// socket and shm rings live. `group_workers` caps OS threads per group
/// scheduler (the supervisor passes each worker its share of the host);
/// `peer_tcp` selects TCP (loopback) instead of Unix-domain sockets for
/// the direct peer plane. Returns when the supervisor says SHUTDOWN or
/// hangs up.
pub fn worker_main(
    dir: &Path,
    worker_id: usize,
    group_workers: Option<usize>,
    peer_tcp: bool,
) -> Result<(), String> {
    let stream = std::io::stdin()
        .as_fd()
        .try_clone_to_owned()
        .map(UnixStream::from)
        .map_err(|e| format!("worker {worker_id}: take stdin: {e}"))?;
    stream
        .local_addr()
        .map_err(|e| format!("worker {worker_id}: stdin is not the supervisor's socket: {e}"))?;
    let mut read_half =
        stream.try_clone().map_err(|e| format!("worker {worker_id}: clone socket: {e}"))?;
    let write_half = Arc::new(Mutex::new(stream));

    let dir = dir.to_path_buf();
    // The peer listener must exist before HELLO carries its address:
    // a peer may dial the moment the supervisor brokers the table.
    let (listener, addr) = if peer_tcp {
        PeerListener::bind_tcp()
    } else {
        PeerListener::bind_unix(dir.join(format!("peer-{worker_id}.sock")))
    }
    .map_err(|e| format!("worker {worker_id}: bind peer listener: {e}"))?;

    send(&write_half, FrameType::Hello, &encode_hello(worker_id, &addr.to_wire()))
        .map_err(|e| format!("worker {worker_id}: hello: {e}"))?;

    let shared = Arc::new(Shared::new(worker_id, dir, Arc::clone(&write_half)));

    {
        let shared = Arc::clone(&shared);
        thread::spawn(move || loop {
            match listener.accept() {
                Ok(conn) => {
                    let shared = Arc::clone(&shared);
                    thread::spawn(move || serve_peer_conn(&shared, conn));
                }
                Err(_) => return,
            }
        });
    }

    // Every group ever assigned here, for heartbeat telemetry (finished
    // groups report zero live ranks and simply stop moving the counters).
    let mut groups: Vec<Arc<dyn GroupIngress>> = Vec::new();

    loop {
        let frame = match read_frame(&mut read_half) {
            Ok(f) => f,
            // Supervisor hung up: nothing left to serve.
            Err(FrameError::Eof) => return Ok(()),
            Err(e) => {
                return Err(format!(
                    "worker {worker_id}: {}",
                    e.into_run_error(worker_id)
                ))
            }
        };
        let r = match frame.ty {
            FrameType::Assign => handle_assign(&shared, &frame.payload, group_workers, &mut groups),
            FrameType::Data => decode_data(&frame.payload).and_then(|(chan, seq, bytes)| {
                wlock(&shared.router).deliver(chan, seq, bytes, FlightKind::DataStar)
            }),
            FrameType::Peers => Membership::decode(&frame.payload)
                .and_then(|m| apply_table(&shared, &m.table, &m.replay)),
            FrameType::Cut => decode_cut(&frame.payload).map(|f| apply_cut(&shared, &f)),
            FrameType::Chaos => decode_chaos(&frame.payload)
                .map(|n| shared.chaos_at.store(n.max(1), Ordering::Relaxed)),
            FrameType::Ping => {
                let t = snapshot_telemetry(&groups, &shared.bytes_routed);
                let _ = send(&write_half, FrameType::Pong, &t.encode());
                Ok(())
            }
            FrameType::Shutdown => {
                let _ = send(&write_half, FrameType::Bye, &shared.bye().encode());
                return Ok(());
            }
            other => Err(RunError::Protocol {
                proc: 0,
                detail: format!("worker {worker_id}: unexpected frame {other:?}"),
            }),
        };
        if let Err(e) = r {
            report(&write_half, &e);
        }
    }
}

/// Tell the supervisor something went wrong. Best effort — if the socket
/// is gone the supervisor has already noticed via EOF.
fn report(stream: &Arc<Mutex<UnixStream>>, err: &RunError) {
    let _ = send(stream, FrameType::Error, err.to_string().as_bytes());
}

/// Fold a brokered peer table in, then replay each `(channel, from)` of
/// `replay` from its send log to the reader's host, all under the outbox
/// lock. A stale table changes nothing; workers whose row vanished or
/// changed address lose their connection (their process is dead or
/// replaced) and their `broken` mark, so a replacement at the same index
/// becomes dialable again. A replay is made whatever the table's
/// generation: it goes to the reader's current host, which a newer table
/// can only have moved again.
fn apply_table(
    shared: &Shared,
    table: &PeerTable,
    replay: &[(usize, u64)],
) -> Result<(), RunError> {
    let mut out = wlock(&shared.outbox);
    let p = &mut out.peers;
    if table.gen >= p.gen {
        p.gen = table.gen;
        shared.gen.store(table.gen, Ordering::Release);
        p.placement = table.placement.clone();
        let fresh: HashMap<usize, String> =
            table.peers.iter().map(|(w, a)| (*w, a.clone())).collect();
        let stale: Vec<usize> = p
            .conns
            .keys()
            .filter(|w| fresh.get(w) != p.addrs.get(w))
            .copied()
            .collect();
        for w in stale {
            if let Some(conn) = p.conns.remove(&w) {
                conn.stream.close();
            }
        }
        let addrs = std::mem::take(&mut p.addrs);
        p.broken.retain(|w| fresh.get(w) == addrs.get(w));
        p.addrs = fresh;
    }
    for &(chan, from) in replay {
        shared.replay(&mut out, chan, from)?;
    }
    Ok(())
}

/// Fold a CUT in: checkpointing is on, and the send logs and the gates'
/// digests below its frontiers go.
fn apply_cut(shared: &Shared, frontiers: &[u64]) {
    {
        let mut out = wlock(&shared.outbox);
        let out = &mut *out;
        out.credits = true;
        for (&chan, log) in &mut out.logs {
            if let Some(&f) = frontiers.get(chan) {
                out.log_bytes_truncated += log.truncate_to(f);
            }
        }
    }
    for (&chan, gate) in &mut wlock(&shared.router).gates {
        if let Some(&f) = frontiers.get(chan) {
            gate.truncate(f);
        }
    }
}

/// Serve one accepted peer connection: gate on its PEER_HELLO, then feed
/// its direct frames and shm doorbells into the router. Every reject or
/// decode failure closes the connection and ends the thread — a hostile
/// or stale peer can waste a socket, never cross-wire a channel or crash
/// the worker.
fn serve_peer_conn(shared: &Arc<Shared>, mut stream: PeerStream) {
    let hello = match read_frame(&mut stream) {
        Ok(f) if f.ty == FrameType::PeerHello => f,
        _ => return stream.close(),
    };
    let (from, gen) = match decode_peer_hello(&hello.payload) {
        Ok(v) => v,
        Err(_) => return stream.close(),
    };
    if from == shared.id || gen < shared.gen.load(Ordering::Acquire) {
        // Self-dials and introductions from an older membership
        // generation are stale by definition.
        return stream.close();
    }
    // The peer's ring toward us, opened lazily at the first doorbell (the
    // dialer creates the file before sending any).
    let mut ring: Option<ShmReceiver> = None;
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            // EOF, a torn frame from a half-written timeout, or garbage:
            // the conn is done either way; relay covers whatever was lost.
            Err(_) => return stream.close(),
        };
        match frame.ty {
            FrameType::DataDirect => {
                let Ok((chan, seq, bytes)) = decode_data(&frame.payload) else {
                    return stream.close();
                };
                let r = wlock(&shared.router).deliver(chan, seq, bytes, FlightKind::DataDirect);
                if let Err(e) = r {
                    report(&shared.sup, &e);
                    return stream.close();
                }
            }
            FrameType::DataShm => {
                let Ok((chan, seq, off, len, checksum)) = decode_shm_doorbell(&frame.payload)
                else {
                    return stream.close();
                };
                if ring.is_none() {
                    let path = shared.dir.join(format!("shm-{from}-{}.ring", shared.id));
                    match ShmReceiver::open(&path) {
                        Ok(r) => ring = Some(r),
                        Err(_) => return stream.close(),
                    }
                }
                let (bytes, ack) = match ring.as_mut().unwrap().read(off, len, checksum) {
                    Ok(v) => v,
                    // Checksum/cursor mismatch: a corrupt or stale ring.
                    // Dropping the conn (not the run) is safe — the sender
                    // sees the break and relays via the supervisor.
                    Err(_) => return stream.close(),
                };
                let r =
                    wlock(&shared.router).deliver(chan, seq, &bytes, FlightKind::DataShm);
                if let Err(e) = r {
                    report(&shared.sup, &e);
                    return stream.close();
                }
                let ack = encode_shm_ack(ack);
                if write_frame_parts(&mut stream, FrameType::ShmAck, &ack)
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    return stream.close();
                }
            }
            _ => return stream.close(),
        }
    }
}

/// Outcome of one attempt to deliver directly to a peer.
enum DirectAttempt {
    Sent(FlightKind),
    /// The connection broke mid-send: close it, mark the peer, relay.
    Broke,
}

/// Try to deliver `(chan, seq, bytes)` straight to worker `dest` — shm
/// ring first, `DATA_DIRECT` frame second. `payload` is the message's
/// DATA-family payload ([`encode_data`]). `None` means the direct plane is
/// unavailable (no address, broken peer) and the caller must relay.
fn send_direct(
    shared: &Shared,
    p: &mut PeerBook,
    dest: usize,
    chan: usize,
    seq: u64,
    bytes: &[u8],
    payload: &[u8],
) -> Option<FlightKind> {
    if p.broken.contains(&dest) {
        return None;
    }
    if !p.conns.contains_key(&dest) {
        let conn = match dial_peer(shared, p, dest) {
            Ok(c) => c,
            Err(()) => {
                p.broken.insert(dest);
                return None;
            }
        };
        p.conns.insert(dest, conn);
    }
    let conn = p.conns.get_mut(&dest).expect("just ensured");
    let attempt = try_conn(conn, chan, seq, bytes, payload);
    match attempt {
        DirectAttempt::Sent(kind) => {
            let (frames, bytes_ctr) = match kind {
                FlightKind::DataShm => (&shared.shm_frames, &shared.shm_bytes),
                _ => (&shared.direct_frames, &shared.direct_bytes),
            };
            frames.fetch_add(1, Ordering::Relaxed);
            bytes_ctr.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            Some(kind)
        }
        DirectAttempt::Broke => {
            if let Some(conn) = p.conns.remove(&dest) {
                conn.stream.close();
            }
            p.broken.insert(dest);
            None
        }
    }
}

/// Dial `dest`, introduce ourselves, and (when shm is on) create the
/// outbound ring plus the ack-reader thread that recycles its space.
fn dial_peer(shared: &Shared, book: &PeerBook, dest: usize) -> Result<PeerConn, ()> {
    let addr = book.addrs.get(&dest).ok_or(())?;
    let mut stream = PeerAddr::parse(addr).map_err(|_| ())?.connect().map_err(|_| ())?;
    let hello = encode_peer_hello(shared.id, book.gen);
    if write_frame_parts(&mut stream, FrameType::PeerHello, &hello)
        .and_then(|()| stream.flush())
        .is_err()
    {
        stream.close();
        return Err(());
    }
    let shm = if shared.shm_on.load(Ordering::Acquire) {
        let ring_path = shared.dir.join(format!("shm-{}-{dest}.ring", shared.id));
        match (ShmSender::create(&ring_path, SHM_CAPACITY), stream.try_clone()) {
            (Ok(tx), Ok(mut rd)) => {
                let acked = tx.acked_handle();
                thread::spawn(move || loop {
                    match read_frame(&mut rd) {
                        Ok(f) if f.ty == FrameType::ShmAck => {
                            match decode_shm_ack(&f.payload) {
                                Ok(v) => {
                                    acked.fetch_max(v, Ordering::AcqRel);
                                }
                                Err(_) => return rd.close(),
                            }
                        }
                        _ => return rd.close(),
                    }
                });
                Some(tx)
            }
            // No ring, no ack reader: the conn still works frame-only.
            _ => None,
        }
    } else {
        None
    };
    Ok(PeerConn { stream, shm })
}

fn try_conn(
    conn: &mut PeerConn,
    chan: usize,
    seq: u64,
    bytes: &[u8],
    payload: &[u8],
) -> DirectAttempt {
    if let Some(tx) = &mut conn.shm {
        if let Ok(Some(off)) = tx.push(bytes) {
            let bell = encode_shm_doorbell(chan, seq, off, bytes.len() as u32, fnv1a_64(bytes));
            return peer_write(&mut conn.stream, FrameType::DataShm, &bell, FlightKind::DataShm);
        }
        // Ring full (receiver lagging): degrade to the socket frame.
    }
    peer_write(&mut conn.stream, FrameType::DataDirect, payload, FlightKind::DataDirect)
}

fn peer_write(
    stream: &mut PeerStream,
    ty: FrameType,
    payload: &[u8],
    kind: FlightKind,
) -> DirectAttempt {
    match write_frame_parts(stream, ty, payload).and_then(|()| stream.flush()) {
        Ok(()) => DirectAttempt::Sent(kind),
        Err(_) => DirectAttempt::Broke,
    }
}

/// Aggregate live counters across every group this worker hosts. Atomic
/// loads only — callable from the read loop while groups run.
fn snapshot_telemetry(
    groups: &[Arc<dyn GroupIngress>],
    bytes_routed: &AtomicU64,
) -> WorkerTelemetry {
    WorkerTelemetry {
        live: groups.iter().map(|g| g.telemetry()).sum(),
        bytes_routed: bytes_routed.load(Ordering::Relaxed),
    }
}

/// Launch the group an ASSIGN describes — seeded from its manifest if it
/// carries one — and register its ingress ends.
fn handle_assign(
    shared: &Arc<Shared>,
    payload: &[u8],
    group_workers: Option<usize>,
    groups: &mut Vec<Arc<dyn GroupIngress>>,
) -> Result<(), RunError> {
    let assign = Assign::decode(payload)?;
    let workload = assign.spec.build();
    let topo = workload.topology();
    let n = topo.n_procs();
    let n_chans = topo.n_channels();
    let mut hosted = vec![false; n];
    for &r in &assign.ranks {
        if r >= n {
            return Err(RunError::Protocol {
                proc: r,
                detail: format!("ASSIGN rank {r} outside topology of {n}"),
            });
        }
        hosted[r] = true;
    }
    if assign.plane == (TransportMode::Direct { shm: true }) {
        shared.shm_on.store(true, Ordering::Release);
    }
    {
        let mut out = wlock(&shared.outbox);
        out.direct = assign.plane != TransportMode::Star;
        out.readers = topo.specs().iter().map(|s| s.reader).collect();
    }
    if let Some(table) = &assign.table {
        apply_table(shared, table, &[])?;
    }
    let manifest = assign.resume.as_ref();

    // Outbound sequence counters: a resumed writer continues from the
    // number of messages the checkpoint already accounts for, so the
    // reader's gate can drop its re-sends. (The launch below checks the
    // manifest's shape before the sink can run.)
    let mut seqs: Vec<u64> = match manifest {
        Some(m) => m.counters.iter().map(|&(messages, _, _)| messages).collect(),
        None => vec![0; n_chans],
    };

    // Runs on the sending rank's scheduler worker, one call at a time per
    // group, and returns the route it took.
    let sink_shared = Arc::clone(shared);
    let sink: DataSink = Box::new(move |chan, bytes| {
        let seq = bump_seq(&mut seqs, chan)?;
        sink_shared.send(chan, seq, &bytes)
    });

    let (group_ingress, join) =
        workload.launch_group(&assign.ranks, manifest, group_workers, assign.flight, sink)?;
    groups.push(Arc::clone(&group_ingress));

    // Register ingress channels (reader hosted here, writer elsewhere)
    // before returning to the read loop: replayed DATA may follow this
    // ASSIGN on the same socket, and early direct frames may already be
    // waiting in the gates' stashes. A resumed group's gates start at the
    // checkpoint's consumed frontier.
    {
        let mut router = wlock(&shared.router);
        for (c, spec) in topo.specs().iter().enumerate() {
            if hosted[spec.reader] && !hosted[spec.writer] {
                let expected = manifest.map_or(0, |m| m.consumed[c]);
                router.register(c, &group_ingress, expected)?;
            }
        }
    }

    let done_stream = Arc::clone(&shared.sup);
    let group_id = assign.group;
    thread::spawn(move || {
        match join() {
            Ok((snapshots, metrics, flight)) => {
                let gd = GroupDone { group: group_id, snapshots, metrics, flight };
                let _ = send(&done_stream, FrameType::GroupDone, &gd.encode());
            }
            Err(e) => report(&done_stream, &e),
        }
    });
    Ok(())
}

/// Take the next outbound ordinal for `chan`, guarding the index (the
/// sink is driven by scheduler-produced channel ids, but defensively).
fn bump_seq(seqs: &mut [u64], chan: usize) -> Result<u64, RunError> {
    let slot = seqs.get_mut(chan).ok_or_else(|| RunError::Protocol {
        proc: 0,
        detail: format!("outbound message on unknown channel {chan}"),
    })?;
    let seq = *slot;
    *slot += 1;
    Ok(seq)
}

impl Shared {
    fn new(id: usize, dir: PathBuf, sup: Arc<Mutex<UnixStream>>) -> Shared {
        Shared {
            id,
            dir,
            sup,
            router: Mutex::new(Router::default()),
            outbox: Mutex::new(Outbox::default()),
            gen: AtomicU64::new(0),
            shm_on: AtomicBool::new(false),
            direct_frames: AtomicU64::new(0),
            direct_bytes: AtomicU64::new(0),
            shm_frames: AtomicU64::new(0),
            shm_bytes: AtomicU64::new(0),
            bytes_routed: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            chaos_at: AtomicU64::new(0),
        }
    }

    /// One cross-group send, the group sink's body. Under the outbox lock:
    /// look up the reader's host, append the payload to the channel's send
    /// log unless that host is this worker (a log dies with its worker),
    /// deliver it, and, with checkpointing on, credit it to the supervisor
    /// if the delivery did not already go through there.
    fn send(&self, chan: usize, seq: u64, bytes: &[u8]) -> Result<FlightKind, RunError> {
        self.chaos_stop();
        let payload = encode_data(chan, seq, bytes);
        let mut out = wlock(&self.outbox);
        let out = &mut *out;
        let dest = out.reader_host(chan);
        let entry: &[u8] = if out.direct && dest == Some(self.id) {
            &payload
        } else {
            out.frames_logged += 1;
            out.logs.entry(chan).or_default().push(chan, seq, payload)?
        };
        let kind = self.transmit(&mut out.peers, out.direct, dest, entry)?;
        if out.credits && kind != FlightKind::DataStar {
            self.to_sup(FrameType::Data, entry)?;
        }
        Ok(kind)
    }

    /// Deliver one DATA payload toward `dest`, its reader's host: into
    /// this worker's router, over the peer plane, or — on the star, with no
    /// placement known, or with the peer unreachable — in a frame the
    /// supervisor forwards. Returns the route taken.
    fn transmit(
        &self,
        peers: &mut PeerBook,
        direct: bool,
        dest: Option<usize>,
        payload: &[u8],
    ) -> Result<FlightKind, RunError> {
        if !direct {
            self.to_sup(FrameType::Data, payload)?;
            return Ok(FlightKind::DataStar);
        }
        let (chan, seq, bytes) = decode_data(payload)?;
        match dest {
            Some(d) if d == self.id => {
                wlock(&self.router).deliver(chan, seq, bytes, FlightKind::DataDirect)?;
                self.direct_frames.fetch_add(1, Ordering::Relaxed);
                self.direct_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                return Ok(FlightKind::DataDirect);
            }
            Some(d) => {
                if let Some(kind) = send_direct(self, peers, d, chan, seq, bytes, payload) {
                    return Ok(kind);
                }
            }
            None => {}
        }
        self.to_sup(FrameType::DataRelay, payload)?;
        Ok(FlightKind::DataStar)
    }

    /// Re-send `chan`'s send log from sequence number `from` to the
    /// reader's current host (called under the outbox lock, after a
    /// migration). A log whose reader now lives on this worker is dropped:
    /// later sends there go straight into the router.
    fn replay(&self, out: &mut Outbox, chan: usize, from: u64) -> Result<(), RunError> {
        let dest = out.reader_host(chan);
        let Some(log) = out.logs.get(&chan) else {
            return Ok(());
        };
        for entry in log.since(from) {
            self.transmit(&mut out.peers, out.direct, dest, entry)?;
            out.frames_replayed += 1;
        }
        if out.direct && dest == Some(self.id) {
            out.logs.remove(&chan);
        }
        Ok(())
    }

    /// Write one DATA-family frame to the supervisor.
    fn to_sup(&self, ty: FrameType, payload: &[u8]) -> Result<(), RunError> {
        let msg_len = payload.len().saturating_sub(DATA_HEADER_LEN) as u64;
        self.bytes_routed.fetch_add(msg_len, Ordering::Relaxed);
        send(&self.sup, ty, payload).map_err(|e| RunError::Protocol {
            proc: 0,
            detail: format!("{ty:?} write to the supervisor failed: {e}"),
        })
    }

    /// The chaos kill's stop: at the armed send, report CHAOS and wait to
    /// be killed. The send never happens.
    fn chaos_stop(&self) {
        let n = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.chaos_at.load(Ordering::Relaxed) {
            let _ = send(&self.sup, FrameType::Chaos, &[]);
            loop {
                thread::park();
            }
        }
    }

    /// The counters a BYE reports.
    fn bye(&self) -> Bye {
        let out = wlock(&self.outbox);
        Bye {
            direct_frames: self.direct_frames.load(Ordering::Relaxed),
            direct_bytes: self.direct_bytes.load(Ordering::Relaxed),
            shm_frames: self.shm_frames.load(Ordering::Relaxed),
            shm_bytes: self.shm_bytes.load(Ordering::Relaxed),
            frames_logged: out.frames_logged,
            frames_replayed: out.frames_replayed,
            duplicates_dropped: wlock(&self.router).duplicates,
            log_bytes_truncated: out.log_bytes_truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Hostile-input coverage for the peer plane: whatever arrives on the
    //! direct socket — garbage, truncation, stale identities, doorbells
    //! for rings that do not exist — must close that one connection and
    //! nothing else: no panic, no Error frame to the supervisor, no
    //! message cross-wired into the router. Then the router's gates and
    //! the send path's interlock with a table change.

    use super::*;

    use std::io::Read;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn test_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ssp-worker-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A worker's shared state with a socketpair standing in for the
    /// supervisor; returns our end of that pair for spying on reports.
    fn test_shared(id: usize, gen: u64) -> (Arc<Shared>, UnixStream) {
        let (sup, spy) = UnixStream::pair().unwrap();
        let shared = Shared::new(id, test_dir(), Arc::new(Mutex::new(sup)));
        shared.gen.store(gen, Ordering::Relaxed);
        (Arc::new(shared), spy)
    }

    /// Drive `serve_peer_conn` with a scripted byte stream and assert the
    /// hostile-conn contract: returns (never panics), closes the socket
    /// (we observe EOF), sends the supervisor nothing, delivers nothing.
    fn assert_rejected(shared: &Arc<Shared>, mut spy: UnixStream, script: &[Vec<u8>]) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let mut ours = PeerStream::Unix(ours);
        for chunk in script {
            use std::io::Write as _;
            ours.write_all(chunk).unwrap();
            ours.flush().unwrap();
        }
        serve_peer_conn(shared, PeerStream::Unix(theirs));
        // The worker closed its end: our next read sees EOF (possibly
        // after draining nothing — serve never writes on reject paths).
        let mut buf = [0u8; 64];
        // EOF, or a reset if the worker closed with script bytes unread —
        // either way the conn is down, not half-open.
        match ours.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("reject path must not write, got {n} bytes"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("unexpected read error after close: {e}"),
        }
        // No Error frame leaked toward the supervisor.
        spy.set_nonblocking(true).unwrap();
        let leaked = spy.read(&mut buf);
        assert!(
            matches!(leaked, Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "hostile peer conn must not reach the supervisor: {leaked:?}"
        );
        // Nothing crossed into the router.
        let router = wlock(&shared.router);
        assert!(router.gates.is_empty(), "no gate may exist after a rejected conn");
    }

    /// An ingress that records every message it is handed.
    struct Tape(Mutex<Vec<(usize, Vec<u8>)>>);

    impl GroupIngress for Tape {
        fn push_inbound(&self, c: usize, b: &[u8], _: FlightKind) -> Result<(), RunError> {
            wlock(&self.0).push((c, b.to_vec()));
            Ok(())
        }
        fn telemetry(&self) -> ssp_runtime::LiveTelemetry {
            ssp_runtime::LiveTelemetry::default()
        }
    }

    fn tape() -> (Arc<Tape>, Arc<dyn GroupIngress>) {
        let tape = Arc::new(Tape(Mutex::new(Vec::new())));
        let ingress: Arc<dyn GroupIngress> = tape.clone();
        (tape, ingress)
    }

    /// The messages `tape` recorded on `chan`, in arrival order.
    fn taped(tape: &Tape, chan: usize) -> Vec<Vec<u8>> {
        wlock(&tape.0).iter().filter(|(c, _)| *c == chan).map(|(_, b)| b.clone()).collect()
    }

    fn msg(chan: usize, seq: u64) -> Vec<u8> {
        format!("{chan}:{seq}").into_bytes()
    }

    fn frame_bytes(ty: FrameType, payload: Vec<u8>) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame_parts(&mut out, ty, &payload).unwrap();
        out
    }

    #[test]
    fn garbage_and_truncated_first_frames_close_the_conn() {
        for script in [
            vec![b"not a frame at all".to_vec()],               // raw garbage
            vec![vec![0xff, 0xff, 0xff, 0x7f]],                  // huge length, no body
            vec![frame_bytes(FrameType::Data, vec![1, 2, 3])],   // wrong type first
            vec![frame_bytes(FrameType::PeerHello, vec![7])],    // truncated hello
        ] {
            let (shared, spy) = test_shared(0, 0);
            assert_rejected(&shared, spy, &script);
        }
    }

    #[test]
    fn self_dials_and_stale_generations_are_rejected() {
        // A peer claiming to be ourselves.
        let (shared, spy) = test_shared(3, 0);
        assert_rejected(
            &shared,
            spy,
            &[frame_bytes(FrameType::PeerHello, encode_peer_hello(3, 0))],
        );
        // A peer introducing itself under an older membership generation:
        // its table predates a migration, so it may be aiming at a corpse.
        let (shared, spy) = test_shared(0, 5);
        assert_rejected(
            &shared,
            spy,
            &[frame_bytes(FrameType::PeerHello, encode_peer_hello(1, 4))],
        );
    }

    #[test]
    fn hostile_payloads_after_a_valid_hello_close_the_conn() {
        let hello = frame_bytes(FrameType::PeerHello, encode_peer_hello(1, 0));
        for tail in [
            frame_bytes(FrameType::DataDirect, vec![0; 5]), // truncated data header
            frame_bytes(FrameType::DataShm, vec![0; 31]),   // truncated doorbell
            frame_bytes(FrameType::Shutdown, vec![]),       // not a peer-plane frame
            // A well-formed doorbell for a ring file that was never
            // created: open fails typed, conn closes.
            frame_bytes(FrameType::DataShm, encode_shm_doorbell(0, 0, 0, 8, 0)),
        ] {
            let (shared, spy) = test_shared(0, 0);
            assert_rejected(&shared, spy, &[hello.clone(), tail]);
        }
    }

    #[test]
    fn byte_flipped_doorbell_checksum_cannot_cross_wire_a_payload() {
        // Build a real ring with a real payload, then ring the doorbell
        // with a flipped checksum: the receiver must refuse the bytes and
        // drop the connection rather than deliver corrupt data.
        let (shared, spy) = test_shared(0, 0);
        let ring_path = shared.dir.join("shm-1-0.ring");
        let mut tx = ShmSender::create(&ring_path, 4096).unwrap();
        let payload = b"halo bytes".to_vec();
        let off = tx.push(&payload).unwrap().unwrap();
        let bell = encode_shm_doorbell(
            0,
            0,
            off,
            payload.len() as u32,
            fnv1a_64(&payload) ^ 1, // one bit off
        );
        let hello = frame_bytes(FrameType::PeerHello, encode_peer_hello(1, 0));
        assert_rejected(&shared, spy, &[hello, frame_bytes(FrameType::DataShm, bell)]);
    }

    #[test]
    fn stale_peer_tables_are_ignored_and_replaced_rows_clear_broken_marks() {
        let (shared, _spy) = test_shared(0, 0);
        let newer = PeerTable {
            gen: 2,
            placement: vec![0, 1],
            peers: vec![(1, "unix:/tmp/x.sock".to_string())],
        };
        apply_table(&shared, &newer, &[]).unwrap();
        assert_eq!(wlock(&shared.outbox).peers.gen, 2);
        wlock(&shared.outbox).peers.broken.insert(1);

        // Stale broadcast: must change nothing, not even un-break peers.
        let stale = PeerTable { gen: 1, placement: vec![1, 0], peers: vec![] };
        apply_table(&shared, &stale, &[]).unwrap();
        {
            let out = wlock(&shared.outbox);
            let p = &out.peers;
            assert_eq!(p.gen, 2);
            assert_eq!(p.placement, vec![0, 1]);
            assert!(p.broken.contains(&1), "stale tables must not clear broken marks");
        }

        // Same-gen-or-newer with a *changed* row: the old process is gone,
        // its replacement is dialable, so the broken mark lifts.
        let replaced = PeerTable {
            gen: 3,
            placement: vec![0, 1],
            peers: vec![(1, "unix:/tmp/y.sock".to_string())],
        };
        apply_table(&shared, &replaced, &[]).unwrap();
        let p = &wlock(&shared.outbox).peers;
        assert_eq!(p.gen, 3);
        assert!(!p.broken.contains(&1), "a replaced row means a replaced process");
    }

    #[test]
    fn router_gates_reorder_dedup_and_wait_for_registration() {
        // Pure-router behavior, no sockets: out-of-order arrivals stash,
        // registration fast-forwards past a resume frontier, duplicates
        // below the gate vanish.
        let (shared, _spy) = test_shared(0, 0);
        let mut router = wlock(&shared.router);
        // Frames arrive before any group is assigned: they wait.
        router.deliver(0, 1, &[1], FlightKind::DataDirect).unwrap();
        router.deliver(0, 0, &[0], FlightKind::DataShm).unwrap();
        assert_eq!(router.gates[&0].stash.len(), 2);
        assert_eq!(router.gates[&0].expected, 0, "nothing drains without an ingress");
        // A resumed group registers at frontier 2: the stale stash drops.
        // (Registering with a dummy ingress is enough to observe gates.)
        struct Sink(AtomicU64);
        impl GroupIngress for Sink {
            fn push_inbound(&self, _c: usize, _b: &[u8], _: FlightKind) -> Result<(), RunError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            fn telemetry(&self) -> ssp_runtime::LiveTelemetry {
                ssp_runtime::LiveTelemetry::default()
            }
        }
        let sink = Arc::new(Sink(AtomicU64::new(0)));
        let ingress: Arc<dyn GroupIngress> = sink.clone();
        router.register(0, &ingress, 2).unwrap();
        assert_eq!(router.gates[&0].expected, 2);
        assert!(router.gates[&0].stash.is_empty(), "pre-frontier stash must drop");
        assert_eq!(sink.0.load(Ordering::Relaxed), 0);
        // Late duplicate of an already-consumed ordinal: dropped.
        router.deliver(0, 1, &[1], FlightKind::DataStar).unwrap();
        assert_eq!(sink.0.load(Ordering::Relaxed), 0);
        // The real next ordinal flows through, plus a stashed successor.
        router.deliver(0, 3, &[3], FlightKind::DataDirect).unwrap();
        assert_eq!(sink.0.load(Ordering::Relaxed), 0, "seq 3 waits for seq 2");
        router.deliver(0, 2, &[2], FlightKind::DataStar).unwrap();
        assert_eq!(sink.0.load(Ordering::Relaxed), 2, "2 then 3 drain in order");
        assert_eq!(router.gates[&0].expected, 4);
        drop(router);

        // Seeded arrival orders with duplicates on two channels, the reader
        // registering before, between or after the arrivals: in-order
        // arrivals take the borrowed path, the rest go through the stash,
        // and every ordinal still reaches the ingress once, in order, with
        // its own bytes.
        let kinds = [FlightKind::DataStar, FlightKind::DataDirect, FlightKind::DataShm];
        for seed in 0..200 {
            let mut rng = ssp_runtime::rng::SplitMix64::seed_from_u64(seed);
            let n = 1 + rng.gen_range(16) as u64;
            let mut arrivals: Vec<(usize, u64)> =
                (0..2).flat_map(|c| (0..n).map(move |s| (c, s))).collect();
            for i in 0..arrivals.len() {
                for _ in 0..rng.gen_range(3) {
                    arrivals.push(arrivals[i]);
                }
            }
            for i in (1..arrivals.len()).rev() {
                arrivals.swap(i, rng.gen_range(i + 1));
            }
            let register_at = [rng.gen_range(arrivals.len() + 1), rng.gen_range(arrivals.len() + 1)];
            let (tape, ingress) = tape();
            let mut router = Router::default();
            for i in 0..=arrivals.len() {
                for (chan, &at) in register_at.iter().enumerate() {
                    if at == i {
                        router.register(chan, &ingress, 0).unwrap();
                    }
                }
                if let Some(&(chan, seq)) = arrivals.get(i) {
                    let kind = kinds[rng.gen_range(kinds.len())];
                    router.deliver(chan, seq, &msg(chan, seq), kind).unwrap();
                }
            }
            for chan in 0..2 {
                let want: Vec<Vec<u8>> = (0..n).map(|s| msg(chan, s)).collect();
                let got = taped(&tape, chan);
                assert_eq!(got, want, "seed {seed} channel {chan}: arrivals {arrivals:?}");
                assert_eq!(router.gates[&chan].expected, n, "seed {seed}");
                assert!(router.gates[&chan].stash.is_empty(), "seed {seed}: stash left over");
            }
        }
    }

    #[test]
    fn a_differing_duplicate_is_a_determinism_violation() {
        let (tape, ingress) = tape();
        let mut router = Router::default();
        router.register(0, &ingress, 0).unwrap();
        router.deliver(0, 0, b"first", FlightKind::DataDirect).unwrap();
        // The same bytes again (a replay, a re-executed sender): dropped.
        router.deliver(0, 0, b"first", FlightKind::DataStar).unwrap();
        assert_eq!(router.duplicates, 1);
        // A forged second arrival fails against the first one's digest.
        let e = router.deliver(0, 0, b"forged", FlightKind::DataStar).unwrap_err();
        assert!(e.to_string().contains("determinism violation"), "{e}");
        // An arrival still waiting in the stash is compared byte for byte.
        router.deliver(0, 2, b"two", FlightKind::DataDirect).unwrap();
        let e = router.deliver(0, 2, b"TWO", FlightKind::DataDirect).unwrap_err();
        assert!(e.to_string().contains("message 2 differs"), "{e}");
        router.deliver(0, 1, b"one", FlightKind::DataDirect).unwrap();
        assert_eq!(taped(&tape, 0), [&b"first"[..], b"one", b"two"]);
        // Below a cut's frontier the digests are gone: nothing to compare.
        router.gates.get_mut(&0).unwrap().truncate(2);
        router.deliver(0, 1, b"anything", FlightKind::DataStar).unwrap();
        assert!(router.deliver(0, 2, b"not two", FlightKind::DataStar).is_err());
        assert_eq!(router.duplicates, 2, "a violation is an error, not a drop");
        assert_eq!(taped(&tape, 0).len(), 3, "no duplicate reaches the group");
    }

    #[test]
    fn a_one_byte_change_anywhere_in_a_halo_sized_payload_changes_its_digest() {
        // 35 KB, the size of an fdtd_dist face payload, and not a whole
        // number of words, so the tail bytes are covered too.
        let mut rng = ssp_runtime::rng::SplitMix64::seed_from_u64(0x5eed);
        let mut payload: Vec<u8> = (0..35_003).map(|_| rng.next_u64() as u8).collect();
        let base = digest(&payload);
        for i in 0..payload.len() {
            let b = payload[i];
            payload[i] = b ^ (1 << (i % 8));
            assert_ne!(digest(&payload), base, "a flip at byte {i} kept the digest");
            payload[i] = b;
        }
        assert_eq!(digest(&payload), base);
        // The length is folded in: a zero tail byte is not nothing.
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[0; 8]), digest(&[0; 9]));
    }

    #[test]
    fn a_table_applied_under_concurrent_sends_reaches_every_logged_message() {
        // Sender threads hammer the send path, their readers on worker 1,
        // which cannot be dialed (so sends relay to the supervisor's end of
        // a socketpair). Meanwhile a cut truncates the send logs, and a
        // table moves every reader onto this worker with a replay from a
        // frontier at or above the cut. Every message from the frontier
        // on must reach the reader's new host, this worker's router:
        // replayed if it was logged before the table, sent there after.
        for seed in 0..200 {
            let mut rng = ssp_runtime::rng::SplitMix64::seed_from_u64(seed);
            let (shared, _spy) = test_shared(0, 0);
            let n_chans = 1 + rng.gen_range(3);
            let sends: Vec<u64> = (0..n_chans).map(|_| rng.gen_range(40) as u64).collect();
            let mut upto = |n: u64| rng.gen_range(n as usize + 1) as u64;
            let from: Vec<u64> = sends.iter().map(|&n| upto(n)).collect();
            let cut: Vec<u64> = from.iter().map(|&f| upto(f)).collect();
            {
                let mut out = wlock(&shared.outbox);
                out.direct = true;
                // Channel c's reader is rank c + 1, hosted by worker 1.
                out.readers = (1..=n_chans).collect();
                out.peers.placement = (0..=n_chans).map(|r| usize::from(r > 0)).collect();
            }
            let (tape, ingress) = tape();
            for (c, &f) in from.iter().enumerate() {
                wlock(&shared.router).register(c, &ingress, f).unwrap();
            }
            let senders: Vec<_> = (0..n_chans)
                .map(|c| {
                    let (shared, n, yield_seed) = (Arc::clone(&shared), sends[c], rng.next_u64());
                    thread::spawn(move || {
                        let mut rng = ssp_runtime::rng::SplitMix64::seed_from_u64(yield_seed);
                        for seq in 0..n {
                            if rng.gen_range(3) == 0 {
                                thread::yield_now();
                            }
                            shared.send(c, seq, &msg(c, seq)).unwrap();
                        }
                    })
                })
                .collect();
            let switch_at = rng.gen_range(sends.iter().sum::<u64>() as usize + 1) as u64;
            while shared.sends.load(Ordering::Relaxed) < switch_at {
                thread::yield_now();
            }
            apply_cut(&shared, &cut);
            let table = PeerTable { gen: 1, placement: vec![0; n_chans + 1], peers: vec![] };
            let replay: Vec<(usize, u64)> = from.iter().copied().enumerate().collect();
            apply_table(&shared, &table, &replay).unwrap();
            for s in senders {
                s.join().unwrap();
            }
            for c in 0..n_chans {
                let want: Vec<Vec<u8>> = (from[c]..sends[c]).map(|s| msg(c, s)).collect();
                assert_eq!(
                    taped(&tape, c),
                    want,
                    "seed {seed} channel {c}: {sends:?} sends, from {from:?}, cut {cut:?}, \
                     switch at {switch_at}"
                );
            }
            assert!(wlock(&shared.outbox).logs.is_empty(), "seed {seed}: local readers, no logs");
            let _ = std::fs::remove_dir_all(&shared.dir);
        }
    }
}
