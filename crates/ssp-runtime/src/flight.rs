//! Flight recorder: wall-clock event tracing for the threaded and
//! distributed backends (DESIGN.md §15).
//!
//! `RunMetrics` says *how much* a run did; the flight recorder says *when*.
//! Each writer of a scheduler instance (every pool worker, the helper, the
//! watchdog/control side, and the transport gateway) owns one
//! [`OverwriteRing`] lane of fixed-size [`FlightEvent`]s. Recording is one
//! slot write plus a `Release` store — no locks, no allocation, and no
//! back-pressure on the thread being observed: a full lane overwrites its
//! oldest event, because the *newest* events are the ones a post-mortem
//! needs.
//!
//! The cost model is two-tier, chosen per run in one scheduler build:
//!
//! - **off** (the default): the scheduler holds no recorder, and each
//!   record site is one not-taken branch on that `None` — message sizing
//!   for the log included. Theorem 1 makes the result independent of the
//!   schedule, so recording or not changes no snapshot; the on/off suites
//!   pin that bitwise.
//! - **on**: the scheduler holds a [`FlightRecorder`]; each event costs
//!   one monotonic-clock read and one ring write. Measured always on with a
//!   1 024-event window, this added 20–27 % to the per-frame `ring_dist`
//!   workload's wall time (EXPERIMENTS.md E29), so it stays opt-in.
//!
//! Lanes are drained only after the pool is joined (a happens-before edge
//! quiesces every writer), into a [`FlightLog`] that downstream tooling
//! turns into Chrome `trace_event` overlays and drift reports
//! (`perf-sim`'s `overlay` module). On an abnormal end the same log is
//! written as a post-mortem JSON black box ([`write_postmortem`]).

use std::time::Instant;

use crate::error::RunError;
use crate::spsc::OverwriteRing;
use crate::trace::{FlightEvent, FlightKind, FlightLane, FlightLog};

/// Default events retained per lane when a caller enables recording
/// without choosing a window (also what [`crate::ThreadedConfig::with_flight_default`]
/// uses). 16Ki events × 32 bytes ≈ 512 KiB per lane.
pub const DEFAULT_FLIGHT_CAP: usize = 16 * 1024;

/// Environment variable naming the file that receives a post-mortem JSON
/// black box when a recorder-enabled run ends abnormally (deadlock,
/// watchdog fire, injected fault, lost worker). Unset: no dump.
pub const FLIGHT_DUMP_ENV: &str = "SSP_FLIGHT_DUMP";

/// The recorder: one overwrite-oldest event lane per writer thread, all
/// timestamped against a common epoch taken at construction.
pub struct FlightRecorder {
    epoch: Instant,
    lanes: Vec<OverwriteRing<FlightEvent>>,
    labels: Vec<String>,
}

impl FlightRecorder {
    /// A recorder for a pool of `n_workers` workers, with `cap` events
    /// retained per lane. Lane layout (the scheduler's writer threads):
    /// lanes `0..n_workers` belong to the workers, lane `n_workers` is
    /// `helper` (a thread running a [`crate::Handoff`]), then `control`
    /// (watchdog sweeps, pre-spawn lifecycle marks) and `gateway`
    /// (arrivals from other processes).
    pub fn new(n_workers: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        let mut labels: Vec<String> = (0..n_workers).map(|w| format!("worker-{w}")).collect();
        labels.extend(["helper", "control", "gateway"].map(String::from));
        FlightRecorder {
            epoch: Instant::now(),
            lanes: labels.iter().map(|_| OverwriteRing::new(cap)).collect(),
            labels,
        }
    }

    /// Record one event into `lane` (a writer-thread index; see
    /// [`FlightRecorder::new`] for the lane layout).
    #[inline]
    pub fn record(&self, lane: usize, kind: FlightKind, rank: usize, chan: usize, bytes: u64) {
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        self.lanes[lane].push(FlightEvent {
            nanos,
            kind,
            rank: rank as u32,
            chan: chan as u32,
            bytes,
        });
    }

    /// Drain every lane into a log. Call only once all writers have
    /// quiesced (post-join).
    pub fn drain(&self) -> FlightLog {
        FlightLog {
            lanes: self
                .lanes
                .iter()
                .zip(&self.labels)
                .map(|(ring, label)| FlightLane {
                    label: label.clone(),
                    dropped: ring.dropped(),
                    events: ring.snapshot(),
                })
                .collect(),
        }
    }
}

/// Render a post-mortem black box for people to read: the failure plus the
/// full flight log. The document is [`FlightLog::to_json`]'s with an extra
/// `error` key.
pub fn postmortem_json(err: &RunError, log: &FlightLog) -> String {
    let body = log.to_json();
    let rest = body
        .strip_prefix("{\"version\":1,")
        .expect("FlightLog::to_json emits a version-1 document");
    // Error Display strings can contain quotes from process details.
    let mut doc = String::from("{\"version\":1,\"error\":");
    crate::json::write_json_string(&mut doc, &err.to_string());
    doc.push(',');
    doc.push_str(rest);
    doc
}

/// Write the post-mortem black box next to the run's artifacts if
/// [`FLIGHT_DUMP_ENV`] names a path. Failures to write are reported on
/// stderr, never escalated — the run's own verdict must win.
pub fn write_postmortem(err: &RunError, log: &FlightLog) {
    let Ok(path) = std::env::var(FLIGHT_DUMP_ENV) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let doc = postmortem_json(err, log);
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("flight recorder: failed to write post-mortem to {path}: {e}");
    } else {
        eprintln!("flight recorder: post-mortem written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_lanes_drain_in_label_order() {
        let rec = FlightRecorder::new(2, 8);
        rec.record(0, FlightKind::Run, 3, 0, 0);
        rec.record(1, FlightKind::Send, 4, 7, 128);
        rec.record(2, FlightKind::Run, 6, 0, 0); // the helper
        rec.record(3, FlightKind::Restore, 0, 0, 42); // control
        rec.record(4, FlightKind::Wake, 5, 0, 0); // gateway
        let log = rec.drain();
        assert_eq!(log.lanes.iter().map(|l| l.events.len()).sum::<usize>(), 5);
        let labels: Vec<&str> = log.lanes.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, vec!["worker-0", "worker-1", "helper", "control", "gateway"]);
        assert_eq!(log.lanes[1].events[0].bytes, 128);
        assert_eq!(log.lanes[2].events[0].rank, 6);
        assert_eq!(log.lanes[3].events[0].kind, FlightKind::Restore);
        // Timestamps are monotone against the shared epoch.
        let merged = log.merged();
        assert!(merged.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn recorder_window_overwrites_oldest() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(0, FlightKind::Compute, 0, 0, i);
        }
        let log = rec.drain();
        assert_eq!(log.lanes[0].dropped, 6);
        let kept: Vec<u64> = log.lanes[0].events.iter().map(|e| e.bytes).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn postmortem_document_is_a_readable_flight_log() {
        let rec = FlightRecorder::new(1, 4);
        rec.record(0, FlightKind::Park, 2, 9, 0);
        let log = rec.drain();
        let err = RunError::Protocol { proc: 2, detail: "say \"cheese\"\n".to_string() };
        let doc = postmortem_json(&err, &log);
        // The error string survives escaping, and the rank's final event is
        // its Park: `[nanos, "park", rank 2, chan 9, 0]`.
        use crate::json::JsonValue;
        let parsed = crate::json::parse(&doc).unwrap();
        match parsed.get("error") {
            Some(JsonValue::Str(s)) => assert!(s.contains("cheese")),
            other => panic!("expected error string, got {other:?}"),
        }
        let lanes = parsed.get("lanes").and_then(JsonValue::as_arr).unwrap();
        let events = lanes[0].get("events").and_then(JsonValue::as_arr).unwrap();
        let park = events.last().and_then(JsonValue::as_arr).unwrap();
        assert_eq!(park[1], JsonValue::Str(FlightKind::Park.label().to_string()));
        let fields: Vec<_> = park[2..].iter().map(JsonValue::as_u64).collect();
        assert_eq!(fields, [Some(2), Some(9), Some(0)]);
    }
}
