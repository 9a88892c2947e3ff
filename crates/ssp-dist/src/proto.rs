//! Payload codecs for the control frames (HELLO / ASSIGN / GROUP_DONE …).
//!
//! Every payload is binary and read through `ssp_runtime::proc::Reader`,
//! the workspace's one reader of untrusted bytes. A group starts with one
//! ASSIGN, from its registry [`WorkloadSpec`] or, on a restart, from the
//! group's latest [`Checkpoint`], and ends with one SNAPSHOT frame per rank
//! (the snapshot's bytes behind nothing, then a [`snapshot_trailer`]) and a
//! GROUP_DONE of its [`RunMetrics`] (in the binary counters a sealed
//! manifest uses for the same numbers) and, when the recorder is on, its
//! [`FlightLog`]. In between, with checkpointing on, the group sends its
//! checkpoints up in MANIFEST frames and its worker receives the readers'
//! consumed frontiers in CUT frames. An optional field is a presence byte
//! ([`Reader::flag`]) followed by the value when present.
//!
//! All decoders are total over arbitrary bytes: malformed input yields
//! [`RunError::Protocol`], never a panic, and element counts are validated
//! against the remaining buffer before any allocation.

use ssp_runtime::proc::{push_bytes, push_u32, push_u64, Reader};
use ssp_runtime::trace::{push_flight_log, push_run_metrics};
use ssp_runtime::{FlightLog, GroupManifest, RunError, RunMetrics};

use crate::registry::WorkloadSpec;
use crate::supervisor::TransportMode;

/// HELLO payload: the worker's index plus its direct-plane listening
/// address, `[worker: u32][address]`, the address as length-prefixed
/// UTF-8. The address may be empty (a worker running star-only opens no
/// peer listener).
pub fn encode_hello(worker: usize, addr: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + addr.len());
    push_u32(&mut out, worker as u32);
    push_bytes(&mut out, addr.as_bytes());
    out
}

/// Decode a HELLO payload into `(worker index, peer address or "")`.
pub fn decode_hello(payload: &[u8]) -> Result<(usize, String), RunError> {
    let mut r = Reader::new("HELLO", payload);
    let hello = (r.u32("worker index")? as usize, r.str("peer address")?.to_string());
    r.finish(hello)
}

/// PEER_HELLO payload, the first frame on a direct worker↔worker
/// connection: `[from worker: u32 le][generation: u64 le]`.
pub fn encode_peer_hello(from_worker: usize, generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    push_u32(&mut out, from_worker as u32);
    push_u64(&mut out, generation);
    out
}

/// Decode a PEER_HELLO into `(from worker, generation)`. Fixed-size;
/// anything else is a typed error (this is the introduction gate that
/// keeps stale or hostile peers from cross-wiring data).
pub fn decode_peer_hello(payload: &[u8]) -> Result<(usize, u64), RunError> {
    let mut r = Reader::new("PEER_HELLO", payload);
    let hello = (r.u32("from worker")? as usize, r.u64("generation")?);
    r.finish(hello)
}

/// BYE payload: a worker's final counters, answering SHUTDOWN. A worker
/// that is killed sends none, so its counts are lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bye {
    /// Frames delivered on the direct plane (peer sockets and loopback).
    pub direct_frames: u64,
    /// Message bytes of those frames.
    pub direct_bytes: u64,
    /// Payloads delivered through shm rings.
    pub shm_frames: u64,
    /// Message bytes of those payloads.
    pub shm_bytes: u64,
    /// Cross-process sends appended to the worker's send logs.
    pub frames_logged: u64,
    /// Log entries re-sent after a migration named their channel.
    pub frames_replayed: u64,
    /// Arrivals the worker's reader gates dropped as duplicates.
    pub duplicates_dropped: u64,
    /// Send-log message bytes freed at the readers' consumed frontiers.
    pub log_bytes_truncated: u64,
    /// The most bytes the worker's send logs held at once.
    pub log_bytes_peak: u64,
    /// Outbound peer writes that found no room for a whole write slice.
    pub write_stalls: u64,
}

impl Bye {
    /// Serialize: the ten counters in field order, each a `u64` le.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(80);
        for v in [
            self.direct_frames,
            self.direct_bytes,
            self.shm_frames,
            self.shm_bytes,
            self.frames_logged,
            self.frames_replayed,
            self.duplicates_dropped,
            self.log_bytes_truncated,
            self.log_bytes_peak,
            self.write_stalls,
        ] {
            push_u64(&mut out, v);
        }
        out
    }

    /// Parse a BYE payload: exactly ten counters, or a typed error.
    pub fn decode(payload: &[u8]) -> Result<Bye, RunError> {
        let mut r = Reader::new("BYE", payload);
        let bye = Bye {
            direct_frames: r.u64("direct frames")?,
            direct_bytes: r.u64("direct bytes")?,
            shm_frames: r.u64("shm frames")?,
            shm_bytes: r.u64("shm bytes")?,
            frames_logged: r.u64("frames logged")?,
            frames_replayed: r.u64("frames replayed")?,
            duplicates_dropped: r.u64("duplicates dropped")?,
            log_bytes_truncated: r.u64("log bytes truncated")?,
            log_bytes_peak: r.u64("log bytes peak")?,
            write_stalls: r.u64("write stalls")?,
        };
        r.finish(bye)
    }
}

/// One `u64` per channel, `[n: u32][n × u64]`: a CUT payload, supervisor
/// → worker, of each channel's frontier, its reader group's latest
/// checkpointed consumed count, below which a worker truncates its send
/// logs and its gates' digests; and a CHAOS report, stopped victim →
/// supervisor, of the sends the victim's worker made on each channel.
pub fn encode_channel_counts(counts: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * counts.len());
    push_u32(&mut out, counts.len() as u32);
    for &f in counts {
        push_u64(&mut out, f);
    }
    out
}

/// Decode a payload of [`encode_channel_counts`].
pub fn decode_channel_counts(payload: &[u8]) -> Result<Vec<u64>, RunError> {
    let mut r = Reader::new("channel counts", payload);
    let n = r.count(8, "channels")?;
    let counts = (0..n).map(|_| r.u64("count")).collect::<Result<_, RunError>>()?;
    r.finish(counts)
}

/// CHAOS payload, supervisor → victim: `[after sends: u64]`, how many
/// more cross-group sends the victim makes before it stops (0: it stops at
/// once), reports CHAOS and waits to be killed.
pub fn encode_chaos(after_sends: u64) -> Vec<u8> {
    after_sends.to_le_bytes().to_vec()
}

/// Decode a CHAOS payload into its send count.
pub fn decode_chaos(payload: &[u8]) -> Result<u64, RunError> {
    let mut r = Reader::new("CHAOS", payload);
    let after = r.u64("after sends")?;
    r.finish(after)
}

/// A group's checkpoint, taken alone every `checkpoint_every` of its own
/// cross-process sends: its sealed cut and the send-log entries of the
/// channels it writes. A restarted group resumes from the manifest and its
/// worker replays the entries, so a message its reader had not consumed
/// at the reader's own checkpoint survives a death of both hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The sealed cut: member states, internal queues, per-channel
    /// consumed and sent counters.
    pub manifest: GroupManifest,
    /// `(chan, base, messages)` per channel the group writes out: its send
    /// log's messages `base..`, from the reader's last forwarded frontier
    /// to the cut.
    pub logs: Vec<(usize, u64, Vec<Vec<u8>>)>,
}

impl Checkpoint {
    /// Append the wire form: `[manifest: sealed bytes behind a u32 length]
    /// [tails: u32 m] m × ([chan: u32][base: u64][n: u32] n × [message
    /// behind a u32 length])`.
    fn push(&self, buf: &mut Vec<u8>) {
        push_bytes(buf, &self.manifest.encode());
        push_u32(buf, self.logs.len() as u32);
        for (chan, base, entries) in &self.logs {
            push_u32(buf, *chan as u32);
            push_u64(buf, *base);
            push_u32(buf, entries.len() as u32);
            entries.iter().for_each(|e| push_bytes(buf, e));
        }
    }

    /// Read the wire form; the manifest must pass its seal.
    fn read(r: &mut Reader) -> Result<Checkpoint, RunError> {
        let manifest = GroupManifest::decode(r.bytes("manifest")?)?;
        let m = r.count(16, "log tails")?;
        let logs = (0..m)
            .map(|_| {
                let (chan, base) = (r.u32("log channel")? as usize, r.u64("log base")?);
                let n = r.count(4, "log entries")?;
                let entries =
                    (0..n)
                        .map(|_| Ok(r.bytes("log entry")?.to_vec()))
                        .collect::<Result<_, RunError>>()?;
                Ok((chan, base, entries))
            })
            .collect::<Result<_, RunError>>()?;
        Ok(Checkpoint { manifest, logs })
    }
}

/// MANIFEST payload, worker → supervisor: a group's new checkpoint,
/// `[group: u64][checkpoint]`.
pub fn encode_manifest(group: u64, checkpoint: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, group);
    checkpoint.push(&mut out);
    out
}

/// Decode a MANIFEST payload into `(group, checkpoint)`; a manifest that
/// fails its seal is a typed error.
pub fn decode_manifest(payload: &[u8]) -> Result<(u64, Checkpoint), RunError> {
    let mut r = Reader::new("MANIFEST", payload);
    let group = r.u64("group")?;
    let checkpoint = Checkpoint::read(&mut r)?;
    r.finish((group, checkpoint))
}

/// The supervisor-brokered peer introduction table: which worker hosts
/// each rank, and how to dial each live worker directly. Carried inside
/// ASSIGN (so a group can open its data plane immediately) and re-broadcast
/// in a PEERS frame's [`Membership`] after membership changes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerTable {
    /// Membership generation; bumped by the supervisor on every worker
    /// death. Introductions from older generations are stale.
    pub gen: u64,
    /// `placement[rank]` = worker index hosting that rank.
    pub placement: Vec<usize>,
    /// `(worker index, dialable address)` for every live worker with an
    /// open peer listener.
    pub peers: Vec<(usize, String)>,
}

impl PeerTable {
    /// Append the table's wire form: `[gen: u64][placement: u32 n]
    /// [n × worker: u32][peers: u32 m][m × ([worker: u32][address])]`, each
    /// address as length-prefixed UTF-8.
    fn push(&self, buf: &mut Vec<u8>) {
        push_u64(buf, self.gen);
        push_u32(buf, self.placement.len() as u32);
        for &w in &self.placement {
            push_u32(buf, w as u32);
        }
        push_u32(buf, self.peers.len() as u32);
        for (w, addr) in &self.peers {
            push_u32(buf, *w as u32);
            push_bytes(buf, addr.as_bytes());
        }
    }

    fn read(r: &mut Reader) -> Result<PeerTable, RunError> {
        let gen = r.u64("generation")?;
        let n = r.count(4, "placement")?;
        let placement =
            (0..n).map(|_| Ok(r.u32("placement")? as usize)).collect::<Result<_, RunError>>()?;
        let m = r.count(8, "peers")?;
        let peers = (0..m)
            .map(|_| Ok((r.u32("peer worker")? as usize, r.str("peer address")?.to_string())))
            .collect::<Result<_, RunError>>()?;
        Ok(PeerTable { gen, placement, peers })
    }
}

/// A PEERS payload, the membership broadcast after a worker death: the
/// new peer table plus, after a migration, each channel into or out of a
/// restarted group and the sequence number its writer replays its send log
/// from (0, or the reader group's checkpointed consumed frontier).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Membership {
    /// Placement and live peers under the new generation.
    pub table: PeerTable,
    /// `(channel, first sequence number to replay)`.
    pub replay: Vec<(usize, u64)>,
}

impl Membership {
    /// Serialize: `[table][replay: u32 m][m × ([chan: u32][from: u64])]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.table.push(&mut out);
        push_u32(&mut out, self.replay.len() as u32);
        for &(chan, from) in &self.replay {
            push_u32(&mut out, chan as u32);
            push_u64(&mut out, from);
        }
        out
    }

    /// Parse a PEERS payload; anything malformed is a typed error.
    pub fn decode(payload: &[u8]) -> Result<Membership, RunError> {
        let mut r = Reader::new("PEERS", payload);
        let table = PeerTable::read(&mut r)?;
        let m = r.count(12, "replay")?;
        let replay = (0..m)
            .map(|_| Ok((r.u32("replay channel")? as usize, r.u64("replay from")?)))
            .collect::<Result<_, RunError>>()?;
        r.finish(Membership { table, replay })
    }
}

/// An ASSIGN order: host `ranks` as one group of the workload `spec` names.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Supervisor-issued group id, echoed back in GROUP_DONE.
    pub group: u64,
    /// The registry workload every process builds the same program from.
    pub spec: WorkloadSpec,
    /// The global rank ids this group hosts.
    pub ranks: Vec<usize>,
    /// Flight-recorder window (events per lane) to enable on the group's
    /// scheduler, or `None` not to record.
    pub flight: Option<usize>,
    /// The data plane of the group's cross-group traffic.
    pub plane: TransportMode,
    /// Peer introduction table for the direct plane; `None` on the star.
    pub table: Option<PeerTable>,
    /// With checkpointing on, the group's seal cadence: a checkpoint every
    /// this many of its cross-process sends.
    pub checkpoint: Option<u64>,
    /// On a restart, the group's latest checkpoint; `None` starts the ranks
    /// from their initial states.
    pub resume: Option<Checkpoint>,
}

impl Assign {
    /// Serialize: `[group: u64][spec][ranks: u32 n][n × u32][flight?: u64]
    /// [plane: u8][table?][checkpoint?: u64][resume?: checkpoint]`, `?`
    /// marking an optional field. The plane tag is 0 star, 1 direct, 2
    /// direct+shm.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.group);
        self.spec.push(&mut out);
        push_u32(&mut out, self.ranks.len() as u32);
        for &r in &self.ranks {
            push_u32(&mut out, r as u32);
        }
        out.push(u8::from(self.flight.is_some()));
        if let Some(cap) = self.flight {
            push_u64(&mut out, cap as u64);
        }
        out.push(match self.plane {
            TransportMode::Star => 0,
            TransportMode::Direct { shm } => 1 + u8::from(shm),
        });
        out.push(u8::from(self.table.is_some()));
        if let Some(table) = &self.table {
            table.push(&mut out);
        }
        out.push(u8::from(self.checkpoint.is_some()));
        if let Some(k) = self.checkpoint {
            push_u64(&mut out, k);
        }
        out.push(u8::from(self.resume.is_some()));
        if let Some(c) = &self.resume {
            c.push(&mut out);
        }
        out
    }

    /// Parse an ASSIGN payload; anything malformed — including an
    /// out-of-range workload spec or a manifest that fails its seal — is a
    /// typed error.
    pub fn decode(payload: &[u8]) -> Result<Assign, RunError> {
        let mut r = Reader::new("ASSIGN", payload);
        let group = r.u64("group")?;
        let spec = WorkloadSpec::read(&mut r)?;
        let n = r.count(4, "ranks")?;
        let ranks = (0..n).map(|_| Ok(r.u32("rank")? as usize)).collect::<Result<_, RunError>>()?;
        let flight =
            r.flag("flight")?.then(|| r.u64("flight window").map(|cap| cap as usize)).transpose()?;
        let plane = match r.u8("plane")? {
            0 => TransportMode::Star,
            t @ (1 | 2) => TransportMode::Direct { shm: t == 2 },
            t => return Err(r.error(format_args!("unknown plane tag {t}"))),
        };
        let table = r.flag("table")?.then(|| PeerTable::read(&mut r)).transpose()?;
        let checkpoint = r.flag("checkpoint")?.then(|| r.u64("checkpoint every")).transpose()?;
        let resume = r.flag("resume")?.then(|| Checkpoint::read(&mut r)).transpose()?;
        r.finish(Assign { group, spec, ranks, flight, plane, table, checkpoint, resume })
    }
}

/// Bytes after the snapshot in a SNAPSHOT payload: rank and group.
pub const SNAPSHOT_TRAILER_LEN: usize = 12;

/// The trailer that follows a rank's snapshot bytes in its SNAPSHOT
/// payload: `[rank: u32 le][group: u64 le]`. The snapshot goes out from
/// its own buffer beside it ([`crate::frame::write_frame_parts`]).
pub fn snapshot_trailer(rank: usize, group: u64) -> [u8; SNAPSHOT_TRAILER_LEN] {
    let mut out = [0u8; SNAPSHOT_TRAILER_LEN];
    out[..4].copy_from_slice(&(rank as u32).to_le_bytes());
    out[4..].copy_from_slice(&group.to_le_bytes());
    out
}

/// Read a SNAPSHOT payload's trailer into `(rank, group)`; the snapshot is
/// the payload's first `len - SNAPSHOT_TRAILER_LEN` bytes. A payload
/// shorter than the trailer is a typed error.
pub fn decode_snapshot_trailer(payload: &[u8]) -> Result<(usize, u64), RunError> {
    let at = payload.len().saturating_sub(SNAPSHOT_TRAILER_LEN);
    let mut r = Reader::new("SNAPSHOT", &payload[at..]);
    let trailer = (r.u32("snapshot rank")? as usize, r.u64("snapshot group")?);
    r.finish(trailer)
}

/// A GROUP_DONE report: the group's metrics and flight log. Its snapshots
/// precede it, one SNAPSHOT frame per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDone {
    /// The group id from the ASSIGN this answers.
    pub group: u64,
    /// The group's full run metrics (global rank/channel ids).
    pub metrics: RunMetrics,
    /// The group's drained flight log, when the recorder was on.
    pub flight: Option<FlightLog>,
}

impl GroupDone {
    /// Serialize: `[u64 group][metrics][flight?]`, the metrics and the
    /// optional flight log in their binary wire forms
    /// ([`push_run_metrics`], [`push_flight_log`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.group);
        push_run_metrics(&mut out, &self.metrics);
        out.push(u8::from(self.flight.is_some()));
        if let Some(log) = &self.flight {
            push_flight_log(&mut out, log);
        }
        out
    }

    /// Parse a GROUP_DONE payload; total over arbitrary bytes. The decoded
    /// metrics carry counters only (no channel endpoints or capacities);
    /// the supervisor checks their shape against its topology.
    pub fn decode(payload: &[u8]) -> Result<GroupDone, RunError> {
        let mut r = Reader::new("GROUP_DONE", payload);
        let group = r.u64("group id")?;
        let metrics = r.run_metrics()?;
        let flight = r.flag("flight")?.then(|| r.flight_log()).transpose()?;
        r.finish(GroupDone { group, metrics, flight })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FdtdPreset;
    use ssp_runtime::{ChannelMetrics, FlightKind};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every truncation of `bytes` fails typed, and a byte flipped every 7
    /// bytes either fails typed or decodes to something other than `orig`.
    fn assert_hostile_bytes_fail<T: PartialEq + std::fmt::Debug>(
        bytes: &[u8],
        orig: &T,
        decode: impl Fn(&[u8]) -> Result<T, RunError>,
    ) {
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "cut {cut}: {r:?}");
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x40;
            match decode(&bad) {
                Ok(v) => assert_ne!(&v, orig, "flip at {i} decoded to the original"),
                Err(e) => assert!(matches!(e, RunError::Protocol { .. }), "flip at {i}: {e:?}"),
            }
        }
    }

    fn table() -> PeerTable {
        PeerTable {
            gen: 3,
            placement: vec![0, 0, 1],
            peers: vec![(0, "unix:/p0".to_string()), (1, "tcp:[::1]:9".to_string())],
        }
    }

    fn membership() -> Membership {
        Membership { table: table(), replay: vec![(5, 0), (7, 12)] }
    }

    fn bye() -> Bye {
        Bye {
            direct_frames: 10,
            direct_bytes: 2048,
            shm_frames: 7,
            shm_bytes: 896,
            frames_logged: 17,
            frames_replayed: 3,
            duplicates_dropped: 2,
            log_bytes_truncated: 1 << 40,
            log_bytes_peak: 35_000,
            write_stalls: 1,
        }
    }

    fn fresh_assign() -> Assign {
        Assign {
            group: 9,
            spec: WorkloadSpec::Ring { n: 4, laps: 3 },
            ranks: vec![2, 3],
            flight: None,
            plane: TransportMode::Star,
            table: None,
            checkpoint: None,
            resume: None,
        }
    }

    fn resumed_assign() -> Assign {
        Assign {
            group: 10,
            spec: WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 4 },
            ranks: vec![1],
            flight: Some(4096),
            plane: TransportMode::Direct { shm: true },
            table: Some(table()),
            checkpoint: Some(64),
            resume: Some(checkpoint()),
        }
    }

    fn checkpoint() -> Checkpoint {
        Checkpoint {
            manifest: GroupManifest {
                steps: 5,
                ranks: vec![],
                queues: vec![],
                consumed: vec![2],
                counters: vec![(1, 8, 1)],
            },
            logs: vec![(0, 1, vec![vec![9, 8, 7], vec![]])],
        }
    }

    fn group_done() -> GroupDone {
        let mut flight = FlightLog::default();
        flight.push_lifecycle(40, FlightKind::Migrate, 2, 1, 0);
        GroupDone {
            group: 7,
            // Counters only: endpoints and capacities do not travel.
            metrics: RunMetrics {
                channels: vec![ChannelMetrics {
                    messages: 5,
                    bytes: 40,
                    max_queue_depth: 2,
                    ..Default::default()
                }],
                procs: vec![Default::default()],
                sched: ssp_runtime::SchedMetrics { workers: 2, ..Default::default() },
            },
            flight: Some(flight),
        }
    }

    #[test]
    fn hello_round_trips() {
        assert_eq!(decode_hello(&encode_hello(5, "")).unwrap(), (5, String::new()));
        let addr = "unix:/tmp/run/peer-5.sock";
        assert_eq!(decode_hello(&encode_hello(5, addr)).unwrap(), (5, addr.to_string()));
        assert!(decode_hello(b"abc").is_err());
        assert!(decode_hello(&[0, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xfe]).is_err()); // non-UTF-8 addr
    }

    #[test]
    fn peer_hello_and_bye_codecs_round_trip_and_reject_hostile_sizes() {
        let p = encode_peer_hello(3, 17);
        assert_eq!(decode_peer_hello(&p).unwrap(), (3, 17));
        assert_hostile_bytes_fail(&p, &(3, 17), decode_peer_hello);
        let mut long = p.clone();
        long.push(0);
        assert!(decode_peer_hello(&long).is_err());

        let b = bye();
        let bytes = b.encode();
        assert_eq!(bytes.len(), 80);
        assert_eq!(Bye::decode(&bytes).unwrap(), b);
        assert_hostile_bytes_fail(&bytes, &b, Bye::decode);
    }

    #[test]
    fn manifest_frames_round_trip_and_reject_hostile_bytes() {
        let ck = checkpoint();
        let bytes = encode_manifest(7, &ck);
        assert_eq!(decode_manifest(&bytes).unwrap(), (7, ck.clone()));
        assert_hostile_bytes_fail(&bytes, &(7, ck.clone()), decode_manifest);
        let quiet = Checkpoint { logs: vec![], ..ck };
        assert_eq!(decode_manifest(&encode_manifest(0, &quiet)).unwrap(), (0, quiet.clone()));
        // A flipped manifest byte fails its seal, typed.
        let mut flipped = encode_manifest(0, &quiet);
        flipped[8 + 4 + 9] ^= 1;
        let detail = decode_manifest(&flipped).unwrap_err().to_string();
        assert!(detail.contains("fingerprint mismatch"), "{detail}");
        // Tail and entry count bombs fail at the count.
        let mut tail_bomb = encode_manifest(0, &quiet);
        tail_bomb.truncate(tail_bomb.len() - 4);
        push_u32(&mut tail_bomb, u32::MAX);
        let mut entry_bomb = encode_manifest(0, &quiet);
        entry_bomb.truncate(entry_bomb.len() - 4);
        push_u32(&mut entry_bomb, 1);
        push_u32(&mut entry_bomb, 0);
        push_u64(&mut entry_bomb, 0);
        push_u32(&mut entry_bomb, u32::MAX);
        for bomb in [tail_bomb, entry_bomb] {
            let detail = decode_manifest(&bomb).unwrap_err().to_string();
            assert!(detail.contains("exceeds payload"), "{detail}");
        }
    }

    #[test]
    fn cut_and_chaos_codecs_round_trip_and_reject_hostile_bytes() {
        let frontiers = vec![0, 7, u64::MAX];
        let bytes = encode_channel_counts(&frontiers);
        assert_eq!(decode_channel_counts(&bytes).unwrap(), frontiers);
        let none = encode_channel_counts(&[]);
        assert_eq!(decode_channel_counts(&none).unwrap(), Vec::<u64>::new());
        assert_hostile_bytes_fail(&bytes, &frontiers, decode_channel_counts);
        let detail = decode_channel_counts(&u32::MAX.to_le_bytes()).unwrap_err().to_string();
        assert!(detail.contains("exceeds payload"), "{detail}");

        let bytes = encode_chaos(25);
        assert_eq!(decode_chaos(&bytes).unwrap(), 25);
        assert_hostile_bytes_fail(&bytes, &25, decode_chaos);
    }

    #[test]
    fn membership_round_trips_and_rejects_malformed_payloads() {
        let m = membership();
        let bytes = m.encode();
        assert_eq!(Membership::decode(&bytes).unwrap(), m);
        assert_hostile_bytes_fail(&bytes, &m, Membership::decode);
        let quiet = Membership { replay: vec![], ..m };
        assert_eq!(Membership::decode(&quiet.encode()).unwrap(), quiet);
        // Hostile placement and replay counts cannot force a huge allocation.
        let mut bomb = 0u64.to_le_bytes().to_vec();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut replay_bomb = quiet.encode();
        replay_bomb.truncate(replay_bomb.len() - 4);
        replay_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        for bomb in [bomb, replay_bomb] {
            let detail = Membership::decode(&bomb).unwrap_err().to_string();
            assert!(detail.contains("exceeds payload"), "{detail}");
        }
    }

    #[test]
    fn assign_rejects_malformed_payloads() {
        for a in [fresh_assign(), resumed_assign()] {
            let bytes = a.encode();
            assert_eq!(Assign::decode(&bytes).unwrap(), a);
            assert_hostile_bytes_fail(&bytes, &a, Assign::decode);
        }
        // Unknown plane tag; a flag byte other than 0 or 1.
        let mut bytes = fresh_assign().encode();
        let plane_at = bytes.len() - 4;
        bytes[plane_at] = 3;
        let detail = Assign::decode(&bytes).unwrap_err().to_string();
        assert!(detail.contains("unknown plane tag 3"), "{detail}");
        bytes[plane_at] = 0;
        *bytes.last_mut().unwrap() = 2;
        assert!(matches!(Assign::decode(&bytes), Err(RunError::Protocol { .. })));
    }

    /// Pinned bytes: a codec change may not move a control layout without
    /// failing here.
    #[test]
    fn assign_bytes_are_pinned() {
        const FRESH: &str = concat!(
            "0900000000000000000400000003000000000000000200000002000000030000",
            "000000000000",
        );
        const RESUMED: &str = concat!(
            "0a00000000000000010004000000010000000100000001001000000000000002",
            "0103000000000000000300000000000000000000000100000002000000000000",
            "0008000000756e69783a2f7030010000000b0000007463703a5b3a3a315d3a39",
            "0140000000000000000148000000535350474d414e3205000000000000000100",
            "0000020000000000000001000000010000000000000008000000000000000100",
            "0000000000000000000000000000fc761d0431aaf6f901000000000000000100",
            "000000000000020000000300000009080700000000",
        );
        assert_eq!(hex(&fresh_assign().encode()), FRESH);
        assert_eq!(hex(&resumed_assign().encode()), RESUMED);
    }

    #[test]
    fn peers_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            "0300000000000000030000000000000000000000010000000200000000000000",
            "08000000756e69783a2f7030010000000b0000007463703a5b3a3a315d3a39",
            "02000000050000000000000000000000070000000c00000000000000",
        );
        assert_eq!(hex(&membership().encode()), GOLDEN);
    }

    #[test]
    fn bye_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            "0a00000000000000000800000000000007000000000000008003000000000000",
            "1100000000000000030000000000000002000000000000000000000000010000",
            "b8880000000000000100000000000000",
        );
        assert_eq!(hex(&bye().encode()), GOLDEN);
    }

    #[test]
    fn group_done_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            "0700000000000000010000000500000000000000280000000000000002000000",
            "0000000001000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000200000000000000",
            "0000000000000000000000000000000000000000000000000101000000090000",
            "006c6966656379636c6500000000000000000100000028000000000000000c02",
            "000000010000000000000000000000",
        );
        assert_eq!(hex(&group_done().encode()), GOLDEN);
    }

    #[test]
    fn group_done_round_trips_with_its_flight_log_and_rejects_hostile_bytes() {
        let gd = group_done();
        let bytes = gd.encode();
        assert_eq!(GroupDone::decode(&bytes).unwrap(), gd);
        let quiet = GroupDone { flight: None, ..gd.clone() };
        assert_eq!(GroupDone::decode(&quiet.encode()).unwrap(), quiet);
        assert_hostile_bytes_fail(&bytes, &gd, GroupDone::decode);

        // Channel, lane and event count bombs fail at the count, before
        // any allocation. `quiet` ends in its flight flag (0).
        let mut channel_bomb = 0u64.to_le_bytes().to_vec();
        channel_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut lane_bomb = quiet.encode();
        *lane_bomb.last_mut().unwrap() = 1;
        push_u32(&mut lane_bomb, u32::MAX);
        let mut event_bomb = quiet.encode();
        *event_bomb.last_mut().unwrap() = 1;
        push_u32(&mut event_bomb, 1);
        push_bytes(&mut event_bomb, b"lane");
        push_u64(&mut event_bomb, 0);
        push_u32(&mut event_bomb, u32::MAX);
        for bomb in [channel_bomb, lane_bomb, event_bomb] {
            let detail = GroupDone::decode(&bomb).unwrap_err().to_string();
            assert!(detail.contains("exceeds payload"), "{detail}");
        }

        // An unknown event-kind tag fails typed. The one event's tag follows
        // the flag, `[lanes]`, the `lifecycle` label, `[dropped]`,
        // `[events]` and `[nanos]`.
        let kind_at = quiet.encode().len() + 4 + (4 + 9) + 8 + 4 + 8;
        assert_eq!(bytes[kind_at], FlightKind::Migrate as u8);
        let mut unknown = bytes;
        unknown[kind_at] = 0xee;
        let detail = GroupDone::decode(&unknown).unwrap_err().to_string();
        assert!(detail.contains("unknown event kind tag 238"), "{detail}");
    }

    #[test]
    fn snapshot_trailers_are_pinned_and_short_payloads_fail_typed() {
        let trailer = snapshot_trailer(70_000, u64::MAX - 1);
        assert_eq!(hex(&trailer), "70110100feffffffffffffff");
        let mut payload = b"state".to_vec();
        payload.extend_from_slice(&trailer);
        assert_eq!(decode_snapshot_trailer(&payload).unwrap(), (70_000, u64::MAX - 1));
        // An empty snapshot is the trailer alone.
        assert_eq!(decode_snapshot_trailer(&snapshot_trailer(0, 3)).unwrap(), (0, 3));
        for cut in 0..SNAPSHOT_TRAILER_LEN {
            let r = decode_snapshot_trailer(&payload[payload.len() - cut..]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "{cut} bytes: {r:?}");
        }
    }
}
