//! Payload codecs for the control frames (HELLO / ASSIGN / GROUP_DONE …).
//!
//! Every payload is binary and read through `ssp_runtime::proc::Reader`,
//! the workspace's one reader of untrusted bytes. A group's life is two
//! frames: ASSIGN starts it, from its registry [`WorkloadSpec`] or, on a
//! checkpointed migration, from the [`GroupManifest`] it carries; GROUP_DONE
//! ends it with the group's snapshots, its [`RunMetrics`] (in the binary
//! counters a sealed manifest uses for the same numbers) and, when the
//! recorder is on, its [`FlightLog`]. An optional field is a presence byte
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

/// BYE payload: final worker-side data-plane counters, 4 × u64 le
/// (direct frames, direct bytes, shm frames, shm bytes).
pub fn encode_bye(direct_frames: u64, direct_bytes: u64, shm_frames: u64, shm_bytes: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    for v in [direct_frames, direct_bytes, shm_frames, shm_bytes] {
        push_u64(&mut out, v);
    }
    out
}

/// Decode a BYE payload into its four counters.
pub fn decode_bye(payload: &[u8]) -> Result<(u64, u64, u64, u64), RunError> {
    let mut r = Reader::new("BYE", payload);
    let bye = (
        r.u64("direct frames")?,
        r.u64("direct bytes")?,
        r.u64("shm frames")?,
        r.u64("shm bytes")?,
    );
    r.finish(bye)
}

/// The supervisor-brokered peer introduction table: which worker hosts
/// each rank, and how to dial each live worker directly. Carried inside
/// ASSIGN (so a group can open its data plane immediately) and re-broadcast
/// as a standalone PEERS frame after membership changes.
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

    /// Serialize a standalone PEERS frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.push(&mut out);
        out
    }

    /// Parse a PEERS payload; anything malformed is a typed error.
    pub fn decode(payload: &[u8]) -> Result<PeerTable, RunError> {
        let mut r = Reader::new("PEERS", payload);
        let table = PeerTable::read(&mut r)?;
        r.finish(table)
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
    /// scheduler, or `None` for the zero-cost disabled build.
    pub flight: Option<usize>,
    /// The data plane of the group's cross-group traffic.
    pub plane: TransportMode,
    /// Peer introduction table for the direct plane; `None` on the star.
    pub table: Option<PeerTable>,
    /// On a checkpointed migration, the cut the group resumes from; `None`
    /// starts the ranks from their initial states.
    pub resume: Option<GroupManifest>,
}

impl Assign {
    /// Serialize: `[group: u64][spec][ranks: u32 n][n × u32][flight?: u64]
    /// [plane: u8][table?][resume?: sealed manifest behind its u32 length]`,
    /// `?` marking an optional field. The plane tag is 0 star, 1 direct,
    /// 2 direct+shm.
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
        out.push(u8::from(self.resume.is_some()));
        if let Some(m) = &self.resume {
            push_bytes(&mut out, &m.encode());
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
        let resume = r
            .flag("resume")?
            .then(|| GroupManifest::decode(r.bytes("resume manifest")?))
            .transpose()?;
        r.finish(Assign { group, spec, ranks, flight, plane, table, resume })
    }
}

/// One worker's live counters, snapshotted into each PONG heartbeat
/// reply. Fixed-size little-endian binary: five `u64`s, 40 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Ranks hosted by the worker's groups that have not yet halted.
    pub ranks_live: u64,
    /// Sum of rank progress counters (monotone; a flat value between two
    /// heartbeats with ranks still live means the worker is stuck).
    pub steps: u64,
    /// Tasks stolen across the worker's scheduler pools.
    pub steals: u64,
    /// Flight-recorder events currently retained across lanes (0 when
    /// recording is disabled).
    pub ring_occupancy: u64,
    /// DATA payload bytes the worker has routed to the supervisor.
    pub bytes_routed: u64,
}

impl WorkerTelemetry {
    /// Serialize: `[u64 ranks_live][u64 steps][u64 steals]
    /// [u64 ring_occupancy][u64 bytes_routed]`, all little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        for v in [self.ranks_live, self.steps, self.steals, self.ring_occupancy, self.bytes_routed]
        {
            push_u64(&mut out, v);
        }
        out
    }

    /// Parse a PONG payload: exactly the fixed wire size, or a typed
    /// error, never a panic.
    pub fn decode(payload: &[u8]) -> Result<WorkerTelemetry, RunError> {
        let mut r = Reader::new("PONG telemetry", payload);
        let t = WorkerTelemetry {
            ranks_live: r.u64("ranks live")?,
            steps: r.u64("steps")?,
            steals: r.u64("steals")?,
            ring_occupancy: r.u64("ring occupancy")?,
            bytes_routed: r.u64("bytes routed")?,
        };
        r.finish(t)
    }
}

/// A GROUP_DONE report: the group's final snapshots, metrics and flight log.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDone {
    /// The group id from the ASSIGN this answers.
    pub group: u64,
    /// `(rank, snapshot bytes)` for every rank the group hosted.
    pub snapshots: Vec<(usize, Vec<u8>)>,
    /// The group's full run metrics (global rank/channel ids).
    pub metrics: RunMetrics,
    /// The group's drained flight log, when the recorder was on.
    pub flight: Option<FlightLog>,
}

impl GroupDone {
    /// Serialize: `[u64 group][u32 n] n×([u32 rank][u32 len][bytes])
    /// [metrics][flight?]`, the metrics and the optional flight log in
    /// their binary wire forms ([`push_run_metrics`], [`push_flight_log`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.group);
        push_u32(&mut out, self.snapshots.len() as u32);
        for (rank, bytes) in &self.snapshots {
            push_u32(&mut out, *rank as u32);
            push_bytes(&mut out, bytes);
        }
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
        let n = r.count(8, "snapshots")?;
        let snapshots = (0..n)
            .map(|_| Ok((r.u32("snapshot rank")? as usize, r.bytes("snapshot")?.to_vec())))
            .collect::<Result<_, RunError>>()?;
        let metrics = r.run_metrics()?;
        let flight = r.flag("flight")?.then(|| r.flight_log()).transpose()?;
        r.finish(GroupDone { group, snapshots, metrics, flight })
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

    fn fresh_assign() -> Assign {
        Assign {
            group: 9,
            spec: WorkloadSpec::Ring { n: 4, laps: 3 },
            ranks: vec![2, 3],
            flight: None,
            plane: TransportMode::Star,
            table: None,
            resume: None,
        }
    }

    fn resumed_assign() -> Assign {
        Assign {
            group: 10,
            spec: WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 4, overlap: false },
            ranks: vec![1],
            flight: Some(4096),
            plane: TransportMode::Direct { shm: true },
            table: Some(table()),
            resume: Some(GroupManifest {
                steps: 5,
                ranks: vec![],
                queues: vec![],
                consumed: vec![2],
                counters: vec![(1, 8, 1)],
            }),
        }
    }

    fn group_done() -> GroupDone {
        let mut flight = FlightLog::default();
        flight.push_lifecycle(40, FlightKind::Migrate, 2, 1, 0);
        GroupDone {
            group: 7,
            snapshots: vec![(0, vec![1, 2, 3]), (2, vec![])],
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

        let b = encode_bye(10, 2048, 7, 896);
        assert_eq!(decode_bye(&b).unwrap(), (10, 2048, 7, 896));
        assert_hostile_bytes_fail(&b, &(10, 2048, 7, 896), decode_bye);
    }

    #[test]
    fn peer_table_round_trips_and_rejects_malformed_payloads() {
        let t = table();
        let bytes = t.encode();
        assert_eq!(PeerTable::decode(&bytes).unwrap(), t);
        assert_hostile_bytes_fail(&bytes, &t, PeerTable::decode);
        // A hostile placement count cannot force a huge allocation.
        let mut bomb = 0u64.to_le_bytes().to_vec();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        let detail = PeerTable::decode(&bomb).unwrap_err().to_string();
        assert!(detail.contains("exceeds payload"), "{detail}");
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
        let plane_at = bytes.len() - 3;
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
            "0000000000",
        );
        const RESUMED: &str = concat!(
            "0a00000000000000010004000000000100000001000000010010000000000000",
            "0201030000000000000003000000000000000000000001000000020000000000",
            "000008000000756e69783a2f7030010000000b0000007463703a5b3a3a315d3a",
            "390148000000535350474d414e31050000000000000001000000020000000000",
            "0000010000000100000000000000080000000000000001000000000000000000",
            "000000000000ea078c641a87a648",
        );
        assert_eq!(hex(&fresh_assign().encode()), FRESH);
        assert_eq!(hex(&resumed_assign().encode()), RESUMED);
    }

    #[test]
    fn peers_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            "0300000000000000030000000000000000000000010000000200000000000000",
            "08000000756e69783a2f7030010000000b0000007463703a5b3a3a315d3a39",
        );
        assert_eq!(hex(&table().encode()), GOLDEN);
    }

    #[test]
    fn group_done_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            "0700000000000000020000000000000003000000010203020000000000000001",
            "0000000500000000000000280000000000000002000000000000000100000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000200000000000000000000000000000000",
            "0000000000000000000000000000000101000000090000006c6966656379636c",
            "6500000000000000000100000028000000000000000c02000000010000000000",
            "000000000000",
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

        // Snapshot, lane and event count bombs fail at the count, before
        // any allocation. `quiet` ends in its flight flag (0).
        let mut snapshot_bomb = 0u64.to_le_bytes().to_vec();
        snapshot_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut lane_bomb = quiet.encode();
        *lane_bomb.last_mut().unwrap() = 1;
        push_u32(&mut lane_bomb, u32::MAX);
        let mut event_bomb = quiet.encode();
        *event_bomb.last_mut().unwrap() = 1;
        push_u32(&mut event_bomb, 1);
        push_bytes(&mut event_bomb, b"lane");
        push_u64(&mut event_bomb, 0);
        push_u32(&mut event_bomb, u32::MAX);
        for bomb in [snapshot_bomb, lane_bomb, event_bomb] {
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
    fn telemetry_round_trips_and_rejects_odd_sizes() {
        let t = WorkerTelemetry {
            ranks_live: 3,
            steps: 123_456,
            steals: 7,
            ring_occupancy: 4096,
            bytes_routed: 1 << 32,
        };
        let bytes = t.encode();
        assert_eq!(bytes.len(), 40);
        assert_eq!(WorkerTelemetry::decode(&bytes).unwrap(), t);
        // Every truncation and any over-length payload is a typed error.
        assert_hostile_bytes_fail(&bytes, &t, WorkerTelemetry::decode);
        let mut long = bytes.clone();
        long.push(0);
        assert!(WorkerTelemetry::decode(&long).is_err());
    }
}
