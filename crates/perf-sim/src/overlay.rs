//! Predicted-vs-measured overlay: turn a threaded run's flight log into
//! per-rank timelines on the same axes as the DES prediction, and
//! quantify how far the prediction drifted from reality.
//!
//! The flight recorder ([`ssp_runtime::flight`]) timestamps *instants* —
//! an event is recorded when an action completes. This module
//! reconstructs intervals from consecutive instants of the same rank:
//! the later event names the activity that just finished, so the span
//! between two events is classified by the second one (a `Recv` event
//! closes a receive span, a `Run` event following a `Park` closes a
//! blocked span, and so on). Two caveats, both deliberate:
//!
//! * Measured timelines are **not gap-free**: time a rank spent sitting
//!   in a run queue or being stolen appears as a hole, not a span. They
//!   are for the overlay view and the drift shares — never feed them to
//!   the critical-path walk, whose contiguity invariant they violate.
//! * Measured `Recv` spans carry a placeholder `sent_by` of `(0, 0)`;
//!   the causal send edge is a DES-side construct the recorder does not
//!   track.
//!
//! The [`DriftReport`] compares *shares*, not absolute times: the DES
//! clock is virtual and the recorder's is wall, so the honest comparison
//! is "what fraction of its busy time did rank r spend computing /
//! communicating / blocked, predicted vs measured", plus the makespan
//! ratio as the single scale factor between the two clocks.

use ssp_runtime::{BlockKind, ChannelId, FlightKind, FlightLog};

use crate::timeline::{Span, SpanKind, Timeline};

/// Reconstruct per-rank measured timelines from a flight log, aligned so
/// the log's earliest event is time 0 and converted to seconds. Lanes
/// labeled `lifecycle` are skipped: their "timestamps" are ordinals, not
/// clock readings. Ranks `>= n_procs` (none, unless the log is foreign)
/// are ignored; ranks with no events yield an empty timeline.
pub fn measured_timelines(log: &FlightLog, n_procs: usize) -> Vec<Timeline> {
    let mut per_rank: Vec<Vec<(u64, FlightKind, usize, u64)>> = vec![Vec::new(); n_procs];
    let mut t0 = u64::MAX;
    for lane in &log.lanes {
        if lane.label.ends_with("lifecycle") {
            continue;
        }
        for e in &lane.events {
            let rank = e.rank as usize;
            if rank < n_procs {
                t0 = t0.min(e.nanos);
                // A Wake or Steal names the rank it moved but is an instant
                // of the waker's or thief's thread, not of the rank: it
                // sits between the rank's Park and its next Run and must
                // not end the blocked interval.
                if !matches!(e.kind, FlightKind::Wake | FlightKind::Steal) {
                    per_rank[rank].push((e.nanos, e.kind, e.chan as usize, e.bytes));
                }
            }
        }
    }
    if t0 == u64::MAX {
        t0 = 0;
    }
    let secs = |nanos: u64| (nanos - t0) as f64 * 1e-9;

    per_rank
        .into_iter()
        .enumerate()
        .map(|(proc, mut evs)| {
            evs.sort_by_key(|&(nanos, ..)| nanos);
            let mut spans = Vec::new();
            // The recv-wait park the rank most recently entered: set on a
            // Park(recv) event, consumed by the Recv that follows it (a
            // Run event sits between — the wake — so the park has to be
            // remembered across one interval).
            let mut parked_recv: Option<usize> = None;
            for w in evs.windows(2) {
                let (t_prev, k_prev, c_prev, b_prev) = w[0];
                let (t, kind, chan, bytes) = w[1];
                let (start, end) = (secs(t_prev), secs(t));
                let span_kind = match kind {
                    FlightKind::Compute => Some(SpanKind::Compute { units: bytes }),
                    FlightKind::Send => {
                        Some(SpanKind::Send { chan: ChannelId(chan), bytes })
                    }
                    FlightKind::Recv => Some(SpanKind::Recv {
                        chan: ChannelId(chan),
                        bytes,
                        delayed: parked_recv.take() == Some(chan),
                        sent_by: (0, 0),
                    }),
                    // A Run after a Park closes the blocked interval; the
                    // park's bytes tag says which edge it waited on.
                    FlightKind::Run if matches!(k_prev, FlightKind::Park) => {
                        let on = if b_prev == 1 { BlockKind::Send } else { BlockKind::Recv };
                        Some(SpanKind::Blocked { chan: ChannelId(c_prev), on })
                    }
                    _ => None,
                };
                if kind == FlightKind::Park && bytes == 0 {
                    parked_recv = Some(chan);
                }
                if t > t_prev {
                    if let Some(kind) = span_kind {
                        spans.push(Span { kind, start, end });
                    }
                }
            }
            Timeline { proc, spans }
        })
        .collect()
}

/// One rank's predicted-vs-measured activity shares. Shares are of the
/// rank's own span time (compute + comm + blocked), so the two clocks'
/// different absolute scales cancel out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcDrift {
    /// The rank.
    pub proc: usize,
    /// Predicted `[compute, comm, blocked]` shares from the DES timeline.
    pub predicted: [f64; 3],
    /// Measured shares from the reconstructed flight-log timeline.
    pub measured: [f64; 3],
    /// Largest absolute share difference across the three buckets.
    pub drift: f64,
}

/// How far a DES prediction drifted from a measured run of the same
/// program: per-rank share deltas plus the makespan scale factor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// One row per rank.
    pub procs: Vec<ProcDrift>,
    /// Predicted makespan in virtual seconds.
    pub predicted_makespan: f64,
    /// Measured makespan in wall seconds (last span end, events aligned
    /// to the log's earliest event).
    pub measured_makespan: f64,
    /// `measured_makespan / predicted_makespan` (0 if the prediction is
    /// degenerate) — the single scale factor between the two clocks.
    pub makespan_ratio: f64,
    /// Mean of the per-rank drifts.
    pub mean_drift: f64,
    /// Worst per-rank drift.
    pub max_drift: f64,
}

fn shares(tl: &Timeline) -> [f64; 3] {
    let compute = tl.time_in(|k| matches!(k, SpanKind::Compute { .. }));
    let comm = tl.time_in(|k| matches!(k, SpanKind::Send { .. } | SpanKind::Recv { .. }));
    let blocked = tl.time_in(|k| matches!(k, SpanKind::Blocked { .. }));
    let total = compute + comm + blocked;
    if total <= 0.0 {
        return [0.0; 3];
    }
    [compute / total, comm / total, blocked / total]
}

/// Compare a DES prediction against measured timelines (usually from
/// [`measured_timelines`]). Ranks are matched by `proc` id; a rank
/// present on only one side gets zero shares on the other.
pub fn drift_report(predicted: &[Timeline], measured: &[Timeline]) -> DriftReport {
    let n = predicted
        .iter()
        .chain(measured)
        .map(|t| t.proc + 1)
        .max()
        .unwrap_or(0);
    let find = |tls: &[Timeline], p: usize| -> [f64; 3] {
        tls.iter().find(|t| t.proc == p).map(shares).unwrap_or([0.0; 3])
    };
    let procs: Vec<ProcDrift> = (0..n)
        .map(|p| {
            let pred = find(predicted, p);
            let meas = find(measured, p);
            let drift = pred
                .iter()
                .zip(&meas)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            ProcDrift { proc: p, predicted: pred, measured: meas, drift }
        })
        .collect();
    let predicted_makespan =
        predicted.iter().map(Timeline::end).fold(0.0f64, f64::max);
    let measured_makespan = measured.iter().map(Timeline::end).fold(0.0f64, f64::max);
    let makespan_ratio = if predicted_makespan > 0.0 {
        measured_makespan / predicted_makespan
    } else {
        0.0
    };
    let mean_drift = if procs.is_empty() {
        0.0
    } else {
        procs.iter().map(|p| p.drift).sum::<f64>() / procs.len() as f64
    };
    let max_drift = procs.iter().map(|p| p.drift).fold(0.0f64, f64::max);
    DriftReport {
        procs,
        predicted_makespan,
        measured_makespan,
        makespan_ratio,
        mean_drift,
        max_drift,
    }
}

impl DriftReport {
    /// Dump as a JSON object (hand-rolled per the workspace's
    /// zero-dependency rule); shares are rounded to 6 decimals so the
    /// archived benches stay diff-stable.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let r6 = |x: f64| (x * 1e6).round() / 1e6;
        let mut s = String::from("{\"procs\":[");
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"proc\":{},\"predicted\":[{},{},{}],\"measured\":[{},{},{}],\"drift\":{}}}",
                p.proc,
                r6(p.predicted[0]),
                r6(p.predicted[1]),
                r6(p.predicted[2]),
                r6(p.measured[0]),
                r6(p.measured[1]),
                r6(p.measured[2]),
                r6(p.drift)
            );
        }
        let _ = write!(
            s,
            "],\"predicted_makespan\":{},\"measured_makespan\":{},\"makespan_ratio\":{},\
             \"mean_drift\":{},\"max_drift\":{}}}",
            self.predicted_makespan,
            self.measured_makespan,
            r6(self.makespan_ratio),
            r6(self.mean_drift),
            r6(self.max_drift)
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_runtime::trace::{FlightEvent, FlightLane};

    fn ev(nanos: u64, kind: FlightKind, rank: u32, chan: u32, bytes: u64) -> FlightEvent {
        FlightEvent { nanos, kind, rank, chan, bytes }
    }

    fn sample_log() -> FlightLog {
        FlightLog {
            lanes: vec![FlightLane {
                label: "worker-0".to_string(),
                dropped: 0,
                events: vec![
                    ev(1_000, FlightKind::Run, 0, 0, 0),
                    ev(2_000, FlightKind::Compute, 0, 0, 10),
                    ev(2_500, FlightKind::Send, 0, 3, 64),
                    ev(3_000, FlightKind::Park, 0, 5, 0),
                    // What a real pool logs between a park and the next
                    // run: the peer's wake, then a sibling's steal.
                    ev(3_400, FlightKind::Wake, 0, 0, 0),
                    ev(3_600, FlightKind::Steal, 0, 1, 0),
                    ev(4_000, FlightKind::Run, 0, 0, 0),
                    ev(4_250, FlightKind::Recv, 0, 5, 64),
                    ev(5_000, FlightKind::Halt, 0, 0, 0),
                ],
            }],
        }
    }

    #[test]
    fn measured_timeline_reconstructs_interval_kinds() {
        let tls = measured_timelines(&sample_log(), 1);
        assert_eq!(tls.len(), 1);
        let kinds: Vec<&str> = tls[0].spans.iter().map(|s| s.kind.label()).collect();
        // Run→Compute, Compute→Send, Park→Run (blocked), Run→Recv; the
        // Send→Park and Recv→Halt gaps produce no span.
        assert_eq!(kinds, vec!["compute", "send", "blocked", "recv"]);
        // Aligned to the earliest event and converted to seconds.
        let first = &tls[0].spans[0];
        assert!((first.start - 0.0).abs() < 1e-12);
        assert!((first.end - 1e-6).abs() < 1e-12);
        // The blocked span runs from the park to the next run, across the
        // wake and the steal, and reads the park's channel and recv-wait tag.
        assert!((tls[0].spans[2].start - 2e-6).abs() < 1e-12);
        assert!((tls[0].spans[2].end - 3e-6).abs() < 1e-12);
        match tls[0].spans[2].kind {
            SpanKind::Blocked { chan, on: BlockKind::Recv } => {
                assert_eq!(chan, ChannelId(5));
            }
            other => panic!("expected arrival-blocked span, got {other:?}"),
        }
        // The recv is marked delayed: its rank parked on that edge first.
        match tls[0].spans[3].kind {
            SpanKind::Recv { delayed, .. } => assert!(delayed),
            other => panic!("expected recv span, got {other:?}"),
        }
    }

    #[test]
    fn a_rank_run_partly_by_the_helper_keeps_one_timeline() {
        // The sample's events, the ones from its park on split off into
        // the `helper` lane: the thread that read the waking message ran
        // the rank from there. The spans are the same.
        let whole = sample_log();
        let (worker, helper) = whole.lanes[0].events.split_at(3);
        let lane = |label: &str, events: &[FlightEvent]| FlightLane {
            label: format!("w1/g0/{label}"),
            dropped: 0,
            events: events.to_vec(),
        };
        let split = FlightLog { lanes: vec![lane("worker-0", worker), lane("helper", helper)] };
        let tls = measured_timelines(&split, 1);
        assert_eq!(tls, measured_timelines(&whole, 1));
        let kinds: Vec<&str> = tls[0].spans.iter().map(|s| s.kind.label()).collect();
        assert_eq!(kinds, vec!["compute", "send", "blocked", "recv"]);
    }

    #[test]
    fn lifecycle_lanes_do_not_pollute_the_clock() {
        let mut log = sample_log();
        log.push_lifecycle(0, FlightKind::Migrate, 0, 1, 2);
        let tls = measured_timelines(&log, 1);
        // The ordinal-stamped lifecycle event (nanos=0) must not become
        // the alignment origin.
        assert!((tls[0].spans[0].start - 0.0).abs() < 1e-12);
        assert_eq!(tls[0].spans.len(), 4);
    }

    #[test]
    fn drift_report_is_zero_for_identical_timelines_and_sees_differences() {
        let tls = measured_timelines(&sample_log(), 1);
        let same = drift_report(&tls, &tls);
        assert!(same.max_drift < 1e-12);
        assert!((same.makespan_ratio - 1.0).abs() < 1e-12);

        // All-compute vs all-blocked is maximal drift.
        let pred = vec![Timeline {
            proc: 0,
            spans: vec![Span { kind: SpanKind::Compute { units: 1 }, start: 0.0, end: 1.0 }],
        }];
        let meas = vec![Timeline {
            proc: 0,
            spans: vec![Span {
                kind: SpanKind::Blocked { chan: ChannelId(0), on: BlockKind::Recv },
                start: 0.0,
                end: 2.0,
            }],
        }];
        let rep = drift_report(&pred, &meas);
        assert!((rep.max_drift - 1.0).abs() < 1e-12);
        assert!((rep.makespan_ratio - 2.0).abs() < 1e-12);
        let doc = ssp_runtime::json::parse(&rep.to_json()).unwrap();
        assert_eq!(
            doc.get("procs").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(doc.get("makespan_ratio").and_then(|v| v.as_f64()), Some(2.0));
    }
}
