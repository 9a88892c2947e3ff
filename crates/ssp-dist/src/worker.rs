//! The worker process: hosts groups of ranks on behalf of the supervisor.
//!
//! A worker is a thin shell around the runtime's partial scheduler
//! ([`ssp_runtime::launch_partial`]): it connects to the supervisor's
//! socket, says HELLO, and then serves a frame loop. Each ASSIGN spins up
//! one *group* — an independent scheduler instance hosting some ranks —
//! whose cross-group channel ends are bridged to the data plane.
//!
//! ## Data planes (phase 2)
//!
//! Every cross-group message now carries an absolute per-channel sequence
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
//! The sink encodes a message's DATA payload once and writes that one
//! buffer as the direct frame and as the supervisor mirror; frames are
//! written from borrowed payloads with no staging copy
//! ([`crate::frame::write_frame_parts`]).
//!
//! Whatever the plane, the worker **always mirrors the message to the
//! supervisor** (as `DATA` after a successful direct delivery — logged,
//! not forwarded — or as `DATA_RELAY` when direct delivery failed). The
//! mirror is what keeps the supervisor's channel logs complete, which is
//! what licenses migration replay and log truncation at checkpoint
//! frontiers. The invariant: a message the supervisor logged was either
//! already delivered directly or is being forwarded by the supervisor.
//!
//! ## Inbound ordering
//!
//! All inbound deliveries — star, direct, shm — converge on one
//! `Router`: a per-channel *gate* tracks the next expected sequence
//! number, hands the expected one to its reader group straight from the
//! frame's buffer, copies out-of-order arrivals into a stash, and drops
//! duplicates (the same
//! message can legitimately arrive twice, e.g. once directly and once via
//! a migration replay). Direct frames may even arrive *before* the ASSIGN
//! that creates their reader group; they wait in the gate's stash and
//! drain the moment the group registers.
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
//! (answering with a BYE carrying its per-plane counters), on supervisor
//! EOF, or by being killed — the latter being precisely the failure the
//! supervisor's migration path exists to absorb.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use ssp_runtime::proc::Reader;
use ssp_runtime::{fnv1a_64, FlightKind, RunError};

use crate::frame::{
    decode_data, decode_shm_doorbell, encode_data, encode_shm_doorbell, read_frame,
    write_frame_parts, FrameError, FrameType,
};
use crate::proto::{
    decode_peer_hello, encode_bye, encode_hello, encode_peer_hello, Assign, GroupDone, PeerTable,
    WorkerTelemetry,
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

/// One channel's inbound sequence gate: the next ordinal the reader group
/// has not yet seen, plus a stash of early arrivals keyed by ordinal.
struct Gate {
    expected: u64,
    stash: BTreeMap<u64, (Vec<u8>, FlightKind)>,
}

/// The single funnel for *all* inbound cross-group messages on this
/// worker, whatever plane they arrived on. Guarded by one mutex, which
/// doubles as the gateway-lane single-writer token for route marks.
#[derive(Default)]
struct Router {
    /// chan id → the ingress of whichever local group reads that channel.
    ingress: HashMap<usize, Arc<dyn GroupIngress>>,
    gates: HashMap<usize, Gate>,
}

impl Router {
    /// Deliver one message: drop it if the gate already passed its
    /// ordinal (duplicate from a slower plane or a replay). The next
    /// expected ordinal for a registered reader goes straight in from the
    /// borrowed bytes; anything else is copied into the stash. Then drain
    /// everything now in order.
    fn deliver(
        &mut self,
        chan: usize,
        seq: u64,
        bytes: &[u8],
        kind: FlightKind,
    ) -> Result<(), RunError> {
        let gate = self
            .gates
            .entry(chan)
            .or_insert_with(|| Gate { expected: 0, stash: BTreeMap::new() });
        if seq < gate.expected {
            return Ok(());
        }
        match self.ingress.get(&chan) {
            Some(g) if seq == gate.expected => {
                g.record_route_in(kind, chan, bytes.len() as u64);
                g.push_inbound(chan, bytes)?;
                gate.expected += 1;
            }
            _ => {
                gate.stash.entry(seq).or_insert_with(|| (bytes.to_vec(), kind));
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
            g.record_route_in(kind, chan, bytes.len() as u64);
            g.push_inbound(chan, &bytes)?;
            gate.expected += 1;
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
        let gate = self
            .gates
            .entry(chan)
            .or_insert_with(|| Gate { expected: 0, stash: BTreeMap::new() });
        if expected > gate.expected {
            gate.expected = expected;
        }
        gate.stash = gate.stash.split_off(&gate.expected);
        Self::drain(&self.ingress, chan, gate)
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

/// Everything the frame loop, the peer-accept threads, and the group
/// sinks share.
struct Shared {
    id: usize,
    /// The run's temp directory (where the supervisor socket, the peer
    /// listener sockets and the shm ring files live).
    dir: PathBuf,
    sup: Arc<Mutex<UnixStream>>,
    router: Mutex<Router>,
    peers: Mutex<PeerBook>,
    /// Latest table generation seen; the PEER_HELLO acceptance bar.
    gen: AtomicU64,
    /// Whether any ASSIGN enabled the shm plane (`direct+shm` mode).
    shm_on: AtomicBool,
    direct_frames: AtomicU64,
    direct_bytes: AtomicU64,
    shm_frames: AtomicU64,
    shm_bytes: AtomicU64,
    /// DATA payload bytes mirrored toward the supervisor.
    bytes_routed: AtomicU64,
}

/// Run a worker against the supervisor socket at `path`, identifying as
/// `worker_id`. `group_workers` caps OS threads per group scheduler (the
/// supervisor passes each worker its share of the host);
/// `peer_tcp` selects TCP (loopback) instead of Unix-domain sockets for
/// the direct peer plane. Returns when the supervisor says SHUTDOWN or
/// hangs up.
pub fn worker_main(
    path: &str,
    worker_id: usize,
    group_workers: Option<usize>,
    peer_tcp: bool,
) -> Result<(), String> {
    let stream = UnixStream::connect(path)
        .map_err(|e| format!("worker {worker_id}: connect {path}: {e}"))?;
    let mut read_half =
        stream.try_clone().map_err(|e| format!("worker {worker_id}: clone socket: {e}"))?;
    let write_half = Arc::new(Mutex::new(stream));

    let dir = Path::new(path).parent().unwrap_or_else(|| Path::new(".")).to_path_buf();
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

    let shared = Arc::new(Shared {
        id: worker_id,
        dir,
        sup: Arc::clone(&write_half),
        router: Mutex::new(Router::default()),
        peers: Mutex::new(PeerBook::default()),
        gen: AtomicU64::new(0),
        shm_on: AtomicBool::new(false),
        direct_frames: AtomicU64::new(0),
        direct_bytes: AtomicU64::new(0),
        shm_frames: AtomicU64::new(0),
        shm_bytes: AtomicU64::new(0),
        bytes_routed: AtomicU64::new(0),
    });

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
        match frame.ty {
            FrameType::Assign => {
                if let Err(e) = handle_assign(&shared, &frame.payload, group_workers, &mut groups) {
                    report(&write_half, &e);
                }
            }
            FrameType::Data => {
                let r = decode_data(&frame.payload).and_then(|(chan, seq, bytes)| {
                    wlock(&shared.router).deliver(chan, seq, bytes, FlightKind::DataStar)
                });
                if let Err(e) = r {
                    report(&write_half, &e);
                }
            }
            FrameType::Peers => match PeerTable::decode(&frame.payload) {
                Ok(table) => apply_table(&shared, &table),
                Err(e) => report(&write_half, &e),
            },
            FrameType::Ping => {
                let t = snapshot_telemetry(&groups, &shared.bytes_routed);
                let _ = send(&write_half, FrameType::Pong, &t.encode());
            }
            FrameType::Shutdown => {
                let bye = encode_bye(
                    shared.direct_frames.load(Ordering::Relaxed),
                    shared.direct_bytes.load(Ordering::Relaxed),
                    shared.shm_frames.load(Ordering::Relaxed),
                    shared.shm_bytes.load(Ordering::Relaxed),
                );
                let _ = send(&write_half, FrameType::Bye, &bye);
                return Ok(());
            }
            other => {
                report(
                    &write_half,
                    &RunError::Protocol {
                        proc: 0,
                        detail: format!("worker {worker_id}: unexpected frame {other:?}"),
                    },
                );
            }
        }
    }
}

/// Tell the supervisor something went wrong. Best effort — if the socket
/// is gone the supervisor has already noticed via EOF.
fn report(stream: &Arc<Mutex<UnixStream>>, err: &RunError) {
    let _ = send(stream, FrameType::Error, err.to_string().as_bytes());
}

/// Fold a brokered peer table in. Stale generations are ignored; workers
/// whose row vanished or changed address lose their connection (their
/// process is dead or replaced) and their `broken` mark, so a replacement
/// at the same index becomes dialable again.
fn apply_table(shared: &Shared, table: &PeerTable) {
    let mut p = wlock(&shared.peers);
    if table.gen < p.gen {
        return;
    }
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
/// DATA-family payload ([`encode_data`]), already encoded once for both
/// this send and the supervisor mirror. `None` means the direct plane is
/// unavailable (no address, broken peer) and the caller must relay.
fn send_direct(
    shared: &Shared,
    dest: usize,
    chan: usize,
    seq: u64,
    bytes: &[u8],
    payload: &[u8],
) -> Option<FlightKind> {
    let mut p = wlock(&shared.peers);
    if p.broken.contains(&dest) {
        return None;
    }
    if !p.conns.contains_key(&dest) {
        let conn = match dial_peer(shared, &p, dest) {
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
    let direct = assign.plane != TransportMode::Star;
    if assign.plane == (TransportMode::Direct { shm: true }) {
        shared.shm_on.store(true, Ordering::Release);
    }
    if let Some(table) = &assign.table {
        apply_table(shared, table);
    }
    let manifest = assign.resume.as_ref();

    // Outbound sequence counters: a resumed writer continues from the
    // number of messages the checkpoint already accounts for, so the
    // supervisor and the reader's gate can dedup its re-sends. (The launch
    // below checks the manifest's shape before the sink can run.)
    let mut seqs: Vec<u64> = match manifest {
        Some(m) => m.counters.iter().map(|&(messages, _, _)| messages).collect(),
        None => vec![0; n_chans],
    };
    let readers: Vec<usize> = topo.specs().iter().map(|s| s.reader).collect();
    // Filled in right after launch; lets the sink (which runs on the
    // group's single outbound pump thread) stamp route-provenance marks.
    let out_marks: Arc<Mutex<Option<Arc<dyn GroupIngress>>>> = Arc::new(Mutex::new(None));

    let sink_shared = Arc::clone(shared);
    let sink_marks = Arc::clone(&out_marks);
    let sink: DataSink = Box::new(move |chan, bytes| {
        let seq = sink_shared.bump_seq(&mut seqs, chan)?;
        // Encoded once: the direct frame and the supervisor mirror share it.
        let payload = encode_data(chan, seq, &bytes);
        let kind = if !direct {
            FlightKind::DataStar
        } else {
            let dest = {
                let p = wlock(&sink_shared.peers);
                readers.get(chan).and_then(|&r| p.placement.get(r).copied())
            };
            match dest {
                Some(d) if d == sink_shared.id => {
                    // Loopback: the reader group lives on this worker.
                    wlock(&sink_shared.router).deliver(chan, seq, &bytes, FlightKind::DataDirect)?;
                    sink_shared.direct_frames.fetch_add(1, Ordering::Relaxed);
                    sink_shared.direct_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    FlightKind::DataDirect
                }
                Some(d) => match send_direct(&sink_shared, d, chan, seq, &bytes, &payload) {
                    Some(kind) => kind,
                    None => FlightKind::DataStar,
                },
                // No placement known (yet): the supervisor still routes.
                None => FlightKind::DataStar,
            }
        };
        if let Some(g) = wlock(&sink_marks).as_ref() {
            g.record_route_out(kind, chan, bytes.len() as u64);
        }
        // Mirror to the supervisor ALWAYS: DATA (log only) after a direct
        // delivery, DATA_RELAY (log and forward) when the direct plane
        // did not carry it. This is what keeps the channel logs complete.
        let mirror = if !direct || kind != FlightKind::DataStar {
            FrameType::Data
        } else {
            FrameType::DataRelay
        };
        sink_shared.bytes_routed.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        send(&sink_shared.sup, mirror, &payload).map_err(|e| RunError::Protocol {
            proc: 0,
            detail: format!("DATA write failed: {e}"),
        })
    });

    let (group_ingress, join) =
        workload.launch_group(&assign.ranks, manifest, group_workers, assign.flight, sink)?;
    *wlock(&out_marks) = Some(Arc::clone(&group_ingress));
    groups.push(Arc::clone(&group_ingress));

    // Register ingress channels (reader hosted here, writer elsewhere)
    // before returning to the read loop: replayed DATA follows this
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
        match join.join() {
            Ok((snapshots, metrics, flight)) => {
                let gd = GroupDone { group: group_id, snapshots, metrics, flight };
                let _ = send(&done_stream, FrameType::GroupDone, &gd.encode());
            }
            Err(e) => report(&done_stream, &e),
        }
    });
    Ok(())
}

impl Shared {
    /// Take the next outbound ordinal for `chan`, guarding the index (the
    /// sink is driven by scheduler-produced channel ids, but defensively).
    fn bump_seq(&self, seqs: &mut [u64], chan: usize) -> Result<u64, RunError> {
        let slot = seqs.get_mut(chan).ok_or_else(|| RunError::Protocol {
            proc: 0,
            detail: format!("outbound message on unknown channel {chan}"),
        })?;
        let seq = *slot;
        *slot += 1;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    //! Hostile-input coverage for the peer plane: whatever arrives on the
    //! direct socket — garbage, truncation, stale identities, doorbells
    //! for rings that do not exist — must close that one connection and
    //! nothing else: no panic, no Error frame to the supervisor, no
    //! message cross-wired into the router.

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
        let shared = Arc::new(Shared {
            id,
            dir: test_dir(),
            sup: Arc::new(Mutex::new(sup)),
            router: Mutex::new(Router::default()),
            peers: Mutex::new(PeerBook::default()),
            gen: AtomicU64::new(gen),
            shm_on: AtomicBool::new(false),
            direct_frames: AtomicU64::new(0),
            direct_bytes: AtomicU64::new(0),
            shm_frames: AtomicU64::new(0),
            shm_bytes: AtomicU64::new(0),
            bytes_routed: AtomicU64::new(0),
        });
        (shared, spy)
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
        apply_table(&shared, &newer);
        assert_eq!(wlock(&shared.peers).gen, 2);
        wlock(&shared.peers).broken.insert(1);

        // Stale broadcast: must change nothing, not even un-break peers.
        let stale = PeerTable { gen: 1, placement: vec![1, 0], peers: vec![] };
        apply_table(&shared, &stale);
        {
            let p = wlock(&shared.peers);
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
        apply_table(&shared, &replaced);
        let p = wlock(&shared.peers);
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
            fn push_inbound(&self, _chan: usize, _bytes: &[u8]) -> Result<(), RunError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            fn poison(&self, _err: RunError) {}
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
        struct Tape(Mutex<Vec<(usize, Vec<u8>)>>);
        impl GroupIngress for Tape {
            fn push_inbound(&self, chan: usize, bytes: &[u8]) -> Result<(), RunError> {
                wlock(&self.0).push((chan, bytes.to_vec()));
                Ok(())
            }
            fn poison(&self, _err: RunError) {}
            fn telemetry(&self) -> ssp_runtime::LiveTelemetry {
                ssp_runtime::LiveTelemetry::default()
            }
        }
        let msg = |chan: usize, seq: u64| format!("{chan}:{seq}").into_bytes();
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
            let tape = Arc::new(Tape(Mutex::new(Vec::new())));
            let ingress: Arc<dyn GroupIngress> = tape.clone();
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
            let tape = wlock(&tape.0);
            for chan in 0..2 {
                let got: Vec<&[u8]> =
                    tape.iter().filter(|(c, _)| *c == chan).map(|(_, b)| &b[..]).collect();
                let want: Vec<Vec<u8>> = (0..n).map(|s| msg(chan, s)).collect();
                assert_eq!(got, want, "seed {seed} channel {chan}: arrivals {arrivals:?}");
                assert_eq!(router.gates[&chan].expected, n, "seed {seed}");
                assert!(router.gates[&chan].stash.is_empty(), "seed {seed}: stash left over");
            }
        }
    }
}
