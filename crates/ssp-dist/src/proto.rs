//! Payload codecs for the control frames (HELLO / ASSIGN / GROUP_DONE …).
//!
//! ASSIGN and PEERS ride as JSON through [`ssp_runtime::json`], because
//! ASSIGN's args are a [`JsonValue`] handed to the registry verbatim; TRACE
//! carries a [`FlightLog`] as the same JSON document the post-mortem dump
//! writes. The JSON parser is a total function with a depth cap. Every
//! other payload is binary and read through `ssp_runtime::proc::Reader`,
//! the workspace's one reader of untrusted bytes; GROUP_DONE carries the
//! group's [`RunMetrics`] in their binary wire form, the encoding a sealed
//! checkpoint manifest uses for the same counters.
//!
//! All decoders are total over arbitrary bytes: malformed input yields
//! [`RunError::Protocol`], never a panic, and element counts are validated
//! against the remaining buffer before any allocation.

use std::collections::BTreeMap;

use ssp_runtime::json::{parse, JsonValue};
use ssp_runtime::proc::{push_bytes, push_u32, push_u64, Reader};
use ssp_runtime::trace::push_run_metrics;
use ssp_runtime::{FlightLog, RunError, RunMetrics};

fn corrupt(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

/// HELLO payload: the worker's index plus its direct-plane listening
/// address, `[u32 le][addr utf-8]`. The address may be empty (a worker
/// running star-only opens no peer listener).
pub fn encode_hello(worker: usize, addr: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + addr.len());
    push_u32(&mut out, worker as u32);
    out.extend_from_slice(addr.as_bytes());
    out
}

/// Decode a HELLO payload into `(worker index, peer address or "")`.
pub fn decode_hello(payload: &[u8]) -> Result<(usize, String), RunError> {
    let mut r = Reader::new("HELLO", payload);
    let worker = r.u32("worker index")? as usize;
    Ok((worker, r.rest_str("peer address")?.to_string()))
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

/// RESUME payload: `[group: u64 le][GroupManifest bytes]`. The manifest
/// bytes are fingerprint-sealed by `recover.rs`'s own codec; this frame
/// only pairs them with the group id of the ASSIGN that follows.
pub fn encode_resume(group: u64, manifest: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + manifest.len());
    push_u64(&mut out, group);
    out.extend_from_slice(manifest);
    out
}

/// Decode a RESUME payload into `(group, manifest bytes)`.
pub fn decode_resume(payload: &[u8]) -> Result<(u64, &[u8]), RunError> {
    let mut r = Reader::new("RESUME", payload);
    Ok((r.u64("group")?, r.rest()))
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
    fn to_json_value(&self) -> JsonValue {
        let mut obj = BTreeMap::new();
        obj.insert("gen".to_string(), JsonValue::Num(self.gen as f64));
        obj.insert(
            "placement".to_string(),
            JsonValue::Arr(self.placement.iter().map(|&w| JsonValue::Num(w as f64)).collect()),
        );
        let mut peers = BTreeMap::new();
        for (w, a) in &self.peers {
            peers.insert(w.to_string(), JsonValue::Str(a.clone()));
        }
        obj.insert("peers".to_string(), JsonValue::Obj(peers));
        JsonValue::Obj(obj)
    }

    fn from_json_value(doc: &JsonValue) -> Result<PeerTable, RunError> {
        let gen = doc
            .get("gen")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| corrupt("peer table missing integer 'gen'".to_string()))?;
        let placement = doc
            .get("placement")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| corrupt("peer table missing array 'placement'".to_string()))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| corrupt("peer table placement entry not an integer".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let peers_obj = match doc.get("peers") {
            Some(JsonValue::Obj(m)) => m,
            _ => return Err(corrupt("peer table missing object 'peers'".to_string())),
        };
        let mut peers = Vec::with_capacity(peers_obj.len());
        for (k, v) in peers_obj {
            let w: usize = k
                .parse()
                .map_err(|_| corrupt(format!("peer table worker key {k:?} not an integer")))?;
            let addr = match v {
                JsonValue::Str(s) => s.clone(),
                _ => return Err(corrupt("peer table address is not a string".to_string())),
            };
            peers.push((w, addr));
        }
        peers.sort_unstable();
        Ok(PeerTable { gen, placement, peers })
    }

    /// Serialize a standalone PEERS frame payload (JSON).
    pub fn encode(&self) -> Vec<u8> {
        self.to_json_value().to_json().into_bytes()
    }

    /// Parse a PEERS payload; anything malformed is a typed error.
    pub fn decode(payload: &[u8]) -> Result<PeerTable, RunError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| corrupt(format!("PEERS payload is not UTF-8: {e}")))?;
        let doc = parse(text).map_err(|e| corrupt(format!("PEERS payload: {e}")))?;
        PeerTable::from_json_value(&doc)
    }
}

/// An ASSIGN order: host `ranks` as one group of `workload`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Supervisor-issued group id, echoed back in GROUP_DONE.
    pub group: u64,
    /// Registry name of the workload (e.g. `"ring"`, `"fdtd-a"`).
    pub workload: String,
    /// Workload-specific parameters, passed to the registry verbatim.
    pub args: JsonValue,
    /// The global rank ids this group hosts.
    pub ranks: Vec<usize>,
    /// Flight-recorder window (events per lane) to enable on the group's
    /// scheduler, or `None` for the zero-cost disabled build. Optional on
    /// the wire: an ASSIGN without the key decodes as `None`.
    pub flight: Option<usize>,
    /// Transport mode for the group's cross-group traffic: `"star"`,
    /// `"direct"` or `"direct+shm"`. Optional on the wire; absent means
    /// star (the PR 7 behavior).
    pub mode: Option<String>,
    /// Peer introduction table for the direct plane. Optional; required
    /// by workers whenever `mode` is a direct flavor.
    pub table: Option<PeerTable>,
}

impl Assign {
    /// Serialize as a JSON document.
    pub fn encode(&self) -> Vec<u8> {
        let mut obj = BTreeMap::new();
        obj.insert("group".to_string(), JsonValue::Num(self.group as f64));
        obj.insert("workload".to_string(), JsonValue::Str(self.workload.clone()));
        obj.insert("args".to_string(), self.args.clone());
        obj.insert(
            "ranks".to_string(),
            JsonValue::Arr(self.ranks.iter().map(|&r| JsonValue::Num(r as f64)).collect()),
        );
        if let Some(cap) = self.flight {
            obj.insert("flight".to_string(), JsonValue::Num(cap as f64));
        }
        if let Some(mode) = &self.mode {
            obj.insert("mode".to_string(), JsonValue::Str(mode.clone()));
        }
        if let Some(table) = &self.table {
            obj.insert("table".to_string(), table.to_json_value());
        }
        JsonValue::Obj(obj).to_json().into_bytes()
    }

    /// Parse an ASSIGN payload; anything malformed is a typed error.
    pub fn decode(payload: &[u8]) -> Result<Assign, RunError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| corrupt(format!("ASSIGN payload is not UTF-8: {e}")))?;
        let doc = parse(text).map_err(|e| corrupt(format!("ASSIGN payload: {e}")))?;
        let group = doc
            .get("group")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| corrupt("ASSIGN missing integer 'group'".to_string()))?;
        let workload = match doc.get("workload") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err(corrupt("ASSIGN missing string 'workload'".to_string())),
        };
        let args = doc.get("args").cloned().unwrap_or(JsonValue::Null);
        let ranks = doc
            .get("ranks")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| corrupt("ASSIGN missing array 'ranks'".to_string()))?
            .iter()
            .map(|v| {
                v.as_usize().ok_or_else(|| corrupt("ASSIGN rank is not an integer".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let flight = match doc.get("flight") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(v.as_usize().ok_or_else(|| {
                corrupt("ASSIGN 'flight' must be an integer window".to_string())
            })?),
        };
        let mode = match doc.get("mode") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Str(s)) => Some(s.clone()),
            Some(_) => return Err(corrupt("ASSIGN 'mode' must be a string".to_string())),
        };
        let table = match doc.get("table") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(PeerTable::from_json_value(v)?),
        };
        Ok(Assign { group, workload, args, ranks, flight, mode, table })
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

/// TRACE payload: `[u64 group le][FlightLog JSON]` — a finished group's
/// drained flight log, sent by the worker right after its GROUP_DONE.
pub fn encode_trace(group: u64, log: &FlightLog) -> Vec<u8> {
    let json = log.to_json();
    let mut out = Vec::with_capacity(8 + json.len());
    push_u64(&mut out, group);
    out.extend_from_slice(json.as_bytes());
    out
}

/// Parse a TRACE payload; total over arbitrary bytes (truncation, bad
/// UTF-8, and malformed or schema-violating JSON are all typed errors).
pub fn decode_trace(payload: &[u8]) -> Result<(u64, FlightLog), RunError> {
    let mut r = Reader::new("TRACE", payload);
    let group = r.u64("group")?;
    let log = FlightLog::from_json(r.rest_str("flight log")?)
        .map_err(|e| r.error(format_args!("flight log: {e}")))?;
    Ok((group, log))
}

/// A GROUP_DONE report: the group's final snapshots and metrics.
#[derive(Debug, Clone)]
pub struct GroupDone {
    /// The group id from the ASSIGN this answers.
    pub group: u64,
    /// `(rank, snapshot bytes)` for every rank the group hosted.
    pub snapshots: Vec<(usize, Vec<u8>)>,
    /// The group's full run metrics (global rank/channel ids).
    pub metrics: RunMetrics,
}

impl GroupDone {
    /// Serialize: `[u64 group][u32 n] n×([u32 rank][u32 len][bytes])
    /// [metrics]`, the metrics in their binary wire form
    /// ([`push_run_metrics`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.group);
        push_u32(&mut out, self.snapshots.len() as u32);
        for (rank, bytes) in &self.snapshots {
            push_u32(&mut out, *rank as u32);
            push_bytes(&mut out, bytes);
        }
        push_run_metrics(&mut out, &self.metrics);
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
        r.finish(GroupDone { group, snapshots, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_runtime::Topology;

    #[test]
    fn hello_and_assign_round_trip() {
        assert_eq!(decode_hello(&encode_hello(5, "")).unwrap(), (5, String::new()));
        let addr = "unix:/tmp/run/peer-5.sock";
        assert_eq!(decode_hello(&encode_hello(5, addr)).unwrap(), (5, addr.to_string()));
        assert!(decode_hello(b"abc").is_err());
        assert!(decode_hello(&[0, 0, 0, 0, 0xff, 0xfe]).is_err()); // non-UTF-8 addr

        let mut args = BTreeMap::new();
        args.insert("n".to_string(), JsonValue::Num(4.0));
        let a = Assign {
            group: 9,
            workload: "ring".to_string(),
            args: JsonValue::Obj(args),
            ranks: vec![2, 3],
            flight: None,
            mode: None,
            table: None,
        };
        assert_eq!(Assign::decode(&a.encode()).unwrap(), a);

        // The optional flight window survives the trip, stays absent when
        // None, and rejects non-integer values.
        let with = Assign { flight: Some(4096), ..a.clone() };
        assert_eq!(Assign::decode(&with.encode()).unwrap(), with);
        assert!(!String::from_utf8(a.encode()).unwrap().contains("flight"));
        assert!(Assign::decode(
            b"{\"group\":1,\"workload\":\"r\",\"ranks\":[],\"flight\":\"big\"}"
        )
        .is_err());

        // Transport fields: absent when None, round-trip when set.
        let wire = String::from_utf8(a.encode()).unwrap();
        assert!(!wire.contains("mode") && !wire.contains("table"));
        let table = PeerTable {
            gen: 3,
            placement: vec![0, 0, 1, 1],
            peers: vec![(0, "unix:/tmp/p0".to_string()), (1, "tcp:127.0.0.1:9000".to_string())],
        };
        let with = Assign {
            mode: Some("direct+shm".to_string()),
            table: Some(table),
            ..a.clone()
        };
        assert_eq!(Assign::decode(&with.encode()).unwrap(), with);
        assert!(Assign::decode(
            b"{\"group\":1,\"workload\":\"r\",\"ranks\":[],\"mode\":7}"
        )
        .is_err());
    }

    #[test]
    fn peer_hello_bye_resume_codecs_round_trip_and_reject_hostile_sizes() {
        let p = encode_peer_hello(3, 17);
        assert_eq!(decode_peer_hello(&p).unwrap(), (3, 17));
        for cut in 0..p.len() {
            assert!(decode_peer_hello(&p[..cut]).is_err(), "cut {cut}");
        }
        let mut long = p.clone();
        long.push(0);
        assert!(decode_peer_hello(&long).is_err());

        let b = encode_bye(10, 2048, 7, 896);
        assert_eq!(decode_bye(&b).unwrap(), (10, 2048, 7, 896));
        for cut in 0..b.len() {
            assert!(decode_bye(&b[..cut]).is_err(), "cut {cut}");
        }

        let r = encode_resume(42, b"manifest-bytes");
        assert_eq!(decode_resume(&r).unwrap(), (42, &b"manifest-bytes"[..]));
        assert!(decode_resume(&r[..7]).is_err());
        // An empty manifest body is structurally valid here; the sealed
        // manifest codec downstream is what rejects it.
        assert_eq!(decode_resume(&encode_resume(1, b"")).unwrap(), (1, &b""[..]));
    }

    #[test]
    fn peer_table_round_trips_and_rejects_malformed_documents() {
        let t = PeerTable {
            gen: 9,
            placement: vec![1, 0, 2],
            peers: vec![(0, "unix:/a".to_string()), (2, "tcp:[::1]:4".to_string())],
        };
        assert_eq!(PeerTable::decode(&t.encode()).unwrap(), t);
        for bad in [
            &b"\xff"[..],                                       // not UTF-8
            b"[",                                               // not JSON
            b"{\"gen\":1}",                                     // missing fields
            b"{\"gen\":\"x\",\"placement\":[],\"peers\":{}}",   // non-integer gen
            b"{\"gen\":1,\"placement\":[\"a\"],\"peers\":{}}",  // bad placement entry
            b"{\"gen\":1,\"placement\":[],\"peers\":{\"x\":\"u\"}}", // bad worker key
            b"{\"gen\":1,\"placement\":[],\"peers\":{\"0\":7}}", // non-string addr
        ] {
            let r = PeerTable::decode(bad);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "{bad:?} -> {r:?}");
        }
    }

    #[test]
    fn assign_rejects_malformed_documents() {
        for bad in [
            &b"\xff\xfe"[..],                       // not UTF-8
            b"{",                                   // not JSON
            b"{\"group\":1}",                       // missing fields
            b"{\"group\":\"x\",\"workload\":\"r\",\"ranks\":[]}", // non-integer group
            b"{\"group\":1,\"workload\":\"r\",\"ranks\":[\"a\"]}", // non-integer rank
        ] {
            let r = Assign::decode(bad);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "{bad:?} -> {r:?}");
        }
    }

    #[test]
    fn group_done_round_trips_and_rejects_truncation() {
        let topo = Topology::ring(3);
        let gd = GroupDone {
            group: 7,
            snapshots: vec![(0, vec![1, 2, 3]), (2, vec![])],
            metrics: RunMetrics::for_topology(&topo),
        };
        let bytes = gd.encode();
        let back = GroupDone::decode(&bytes).unwrap();
        assert_eq!(back.group, 7);
        assert_eq!(back.snapshots, gd.snapshots);
        assert_eq!(back.metrics.counters(), gd.metrics.counters());
        assert_eq!(back.metrics.procs, gd.metrics.procs);
        assert_eq!(back.metrics.sched, gd.metrics.sched);
        for cut in 0..bytes.len() {
            let r = GroupDone::decode(&bytes[..cut]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "cut {cut}: {r:?}");
        }
        // A hostile snapshot count cannot force a huge allocation.
        let mut bomb = 0u64.to_le_bytes().to_vec();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(GroupDone::decode(&bomb).is_err());
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
        for cut in 0..bytes.len() {
            let r = WorkerTelemetry::decode(&bytes[..cut]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "cut {cut}: {r:?}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(WorkerTelemetry::decode(&long).is_err());
    }

    #[test]
    fn trace_payload_round_trips_and_survives_hostile_bytes() {
        let mut log = FlightLog::default();
        log.push_lifecycle(0, ssp_runtime::FlightKind::Migrate, 2, 1, 9);
        let bytes = encode_trace(42, &log);
        let (group, back) = decode_trace(&bytes).unwrap();
        assert_eq!(group, 42);
        assert_eq!(back, log);
        // Truncations inside the header and inside the JSON body, a
        // non-UTF-8 body, and structurally valid but schema-violating
        // JSON all come back as typed errors.
        for cut in [0, 4, 7, 9, bytes.len() - 1] {
            let r = decode_trace(&bytes[..cut.min(bytes.len())]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "cut {cut}: {r:?}");
        }
        let mut garbled = bytes.clone();
        garbled[10] ^= 0x80;
        assert!(decode_trace(&garbled).is_err());
        let mut wrong_shape = 7u64.to_le_bytes().to_vec();
        wrong_shape.extend_from_slice(b"{\"version\":1,\"lanes\":7}");
        assert!(decode_trace(&wrong_shape).is_err());
    }
}
