//! Flight recorder end-to-end: the disabled build changes nothing, the
//! enabled build changes no *result*, a log survives its wire form, and an
//! abnormal end leaves a readable black box naming what the blocked ranks
//! were last doing.
//!
//! The bitwise standard is Theorem 1's: recording must not perturb any
//! scheduling-visible behavior, so recorder-on and recorder-off runs of
//! the same deterministic program must reach identical final states and
//! identical schedule-invariant metrics (message counts, payload bytes,
//! per-rank action counts). Wall-clock-dependent counters (block nanos,
//! steals, park episodes) are legitimately run-to-run noisy and are not
//! compared.

use std::time::Duration;

use ssp_runtime::proc::{push_u64, Reader};
use ssp_runtime::trace::push_flight_log;
use ssp_runtime::{
    run_threaded_with, ChannelId, Effect, FlightKind, FlightLog, JsonValue, Process, RunError,
    ThreadedConfig, Topology, FLIGHT_DUMP_ENV,
};

/// Token-ring node (the oversubscription suite's program, trimmed): node
/// 0 injects a token, everyone forwards `laps` times.
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
        push_u64(&mut b, self.handled);
        b
    }
    fn msg_size_bytes(_: &u64) -> u64 {
        8
    }
}

fn ring(n: usize, laps: u64) -> (Topology, Vec<RingNode>) {
    let topo = Topology::ring(n);
    let procs = (0..n)
        .map(|i| RingNode {
            id: i,
            laps,
            inp: topo.find((i + n - 1) % n, i).unwrap(),
            out: topo.find(i, (i + 1) % n).unwrap(),
            sent_initial: false,
            handled: 0,
            state: 0,
        })
        .collect();
    (topo, procs)
}

/// Recorder off vs on: identical snapshots, identical schedule-invariant
/// metrics, and the enabled run actually produced a log.
#[test]
fn enabling_the_recorder_changes_no_result() {
    let n = 16;
    let (topo, procs) = ring(n, 2);
    let off = run_threaded_with(&topo, procs, ThreadedConfig::default().with_workers(3))
        .unwrap();
    assert!(off.flight.is_none(), "disabled runs must not allocate a log");

    let (topo, procs) = ring(n, 2);
    let on = run_threaded_with(
        &topo,
        procs,
        ThreadedConfig::default().with_workers(3).with_flight(1024),
    )
    .unwrap();
    let log = on.flight.expect("enabled run must drain a log");

    assert_eq!(on.snapshots, off.snapshots, "recording perturbed the final state");
    for (r, (a, b)) in off.metrics.procs.iter().zip(&on.metrics.procs).enumerate() {
        assert_eq!(a.sends, b.sends, "rank {r} send count");
        assert_eq!(a.receives, b.receives, "rank {r} receive count");
        assert_eq!(a.compute_units, b.compute_units, "rank {r} compute units");
    }
    for (c, (a, b)) in off.metrics.channels.iter().zip(&on.metrics.channels).enumerate() {
        assert_eq!(a.messages, b.messages, "channel {c} messages");
        assert_eq!(a.bytes, b.bytes, "channel {c} bytes");
    }

    // The log is structurally sound: every rank's Halt is there, Send
    // events carry the 8-byte payload size, and each lane is in
    // timestamp order against the shared epoch.
    let merged = log.merged();
    assert_eq!(
        merged.iter().filter(|e| e.kind == FlightKind::Halt).count(),
        n,
        "one Halt per rank"
    );
    assert!(merged
        .iter()
        .filter(|e| e.kind == FlightKind::Send)
        .all(|e| e.bytes == 8));
    for lane in &log.lanes {
        assert!(
            lane.events.windows(2).all(|w| w[0].nanos <= w[1].nanos),
            "lane {} out of order",
            lane.label
        );
    }
}

fn decode_flight_log(bytes: &[u8]) -> Result<FlightLog, RunError> {
    let mut r = Reader::new("flight log", bytes);
    let log = r.flight_log()?;
    r.finish(log)
}

/// A real run's log round-trips its wire form exactly, and hostile bytes —
/// truncations at every byte, a flipped byte every 7 — come back as typed
/// errors or as a log that differs, never a panic and never the original.
#[test]
fn flight_log_wire_form_round_trips_and_survives_hostile_bytes() {
    let (topo, procs) = ring(8, 1);
    let out = run_threaded_with(
        &topo,
        procs,
        ThreadedConfig::default().with_workers(2).with_flight(256),
    )
    .unwrap();
    let log = out.flight.unwrap();
    let mut bytes = Vec::new();
    push_flight_log(&mut bytes, &log);
    assert_eq!(decode_flight_log(&bytes).unwrap(), log);

    for cut in 0..bytes.len() {
        let r = decode_flight_log(&bytes[..cut]);
        assert!(matches!(r, Err(RunError::Protocol { .. })), "truncation at {cut}: {r:?}");
    }
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        match decode_flight_log(&bad) {
            Ok(other) => assert_ne!(other, log, "flip at {i} decoded to the original"),
            Err(e) => assert!(matches!(e, RunError::Protocol { .. }), "flip at {i}: {e:?}"),
        }
    }
}

/// Satellite 1: a forced 64-rank deadlock under the watchdog writes a
/// post-mortem black box; it parses, embeds the error, and its last
/// events for the blocked cycle's ranks name the Park on each rank's
/// inbound edge.
#[test]
fn forced_deadlock_dumps_a_parseable_postmortem() {
    /// Receives before ever sending; a ring of these deadlocks instantly.
    struct RecvFirst {
        inp: ChannelId,
    }
    impl Process for RecvFirst {
        type Msg = u64;
        fn resume(&mut self, _d: Option<u64>) -> Effect<u64> {
            Effect::Recv { chan: self.inp }
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    let dir = std::env::temp_dir().join(format!("ssp-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("postmortem.json");
    // Safe on edition 2021; this is the only test in the binary touching
    // the variable, and the recorder reads it exactly once at failure.
    std::env::set_var(FLIGHT_DUMP_ENV, &path);

    let n = 64;
    let topo = Topology::ring(n);
    let procs: Vec<RecvFirst> =
        (0..n).map(|i| RecvFirst { inp: topo.find((i + n - 1) % n, i).unwrap() }).collect();
    let err = run_threaded_with(
        &topo,
        procs,
        ThreadedConfig::with_watchdog(Duration::from_millis(50))
            .with_workers(2)
            .with_flight(256),
    )
    .unwrap_err();
    std::env::remove_var(FLIGHT_DUMP_ENV);

    let RunError::Deadlock { blocked, cycle } = &err else {
        panic!("expected a typed deadlock, got {err}");
    };
    assert_eq!(blocked.len(), n);

    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("post-mortem missing at {}: {e}", path.display()));
    let parsed = ssp_runtime::json::parse(&doc).expect("post-mortem must be valid JSON");
    match parsed.get("error") {
        Some(JsonValue::Str(s)) => {
            assert!(s.contains("deadlock"), "error field should describe the failure: {s}")
        }
        other => panic!("post-mortem must embed the error, got {other:?}"),
    }
    // Each blocked cycle rank's last events (in time order, across lanes)
    // include the Park on its inbound channel. Events are `[nanos, "kind",
    // rank, chan, bytes]`.
    let mut events: Vec<(u64, String, u64, u64)> = Vec::new();
    for lane in parsed.get("lanes").and_then(JsonValue::as_arr).expect("lanes array") {
        for e in lane.get("events").and_then(JsonValue::as_arr).expect("events array") {
            let e = e.as_arr().expect("event array");
            let num = |i: usize| e[i].as_u64().expect("integer event field");
            let JsonValue::Str(kind) = &e[1] else { panic!("event kind is not a string: {e:?}") };
            events.push((num(0), kind.clone(), num(2), num(3)));
        }
    }
    events.sort_by_key(|e| e.0);
    for w in cycle.iter().take(8) {
        let last: Vec<_> = events.iter().filter(|e| e.2 == w.proc as u64).rev().take(4).collect();
        assert!(
            last.iter().any(|e| e.1 == FlightKind::Park.label() && e.3 == w.chan.0 as u64),
            "rank {}'s final events must include its Park on chan {}: {last:?}",
            w.proc,
            w.chan.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-lane window really is a window: a tiny cap on a chatty run
/// keeps only the newest events and reports what fell out.
#[test]
fn tiny_flight_window_overwrites_oldest_but_still_drains() {
    let (topo, procs) = ring(8, 16);
    let out = run_threaded_with(
        &topo,
        procs,
        ThreadedConfig::default().with_workers(2).with_flight(8),
    )
    .unwrap();
    let log = out.flight.unwrap();
    let dropped: u64 = log.lanes.iter().map(|l| l.dropped).sum();
    assert!(dropped > 0, "16 laps × 8 ranks must overflow an 8-event window");
    for lane in &log.lanes {
        assert!(lane.events.len() <= 8, "lane {} exceeded its cap", lane.label);
    }
    // Overwriting lanes changes observability, never results.
    let (topo2, procs2) = ring(8, 16);
    let reference =
        run_threaded_with(&topo2, procs2, ThreadedConfig::default().with_workers(2)).unwrap();
    assert_eq!(out.snapshots, reference.snapshots);
}
