//! Timed spans: what each process was doing at every instant of virtual
//! time.
//!
//! A [`Timeline`] is per-process and *gap-free*: spans are contiguous from
//! virtual time 0 to the process's halt time, because every stall the
//! engine introduces is materialized as an explicit [`SpanKind::Blocked`]
//! span. That invariant is what lets the critical-path walk in
//! [`crate::critical`] cover `[0, makespan]` exactly once.
//!
//! Two exports are provided: a plain JSON dump of the spans (stable schema,
//! mirrors the struct fields) and the Chrome `trace_event` format, which
//! `chrome://tracing` and Perfetto load directly — each process becomes a
//! track, each span a complete (`"ph":"X"`) event with microsecond
//! timestamps.

use ssp_runtime::{BlockKind, ChannelId, ProcId};

/// What a process was doing during one span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// Local computation.
    Compute {
        /// Abstract work units charged at the model's `t_flop`.
        units: u64,
    },
    /// Send-side software occupancy (`o_send`) of one message.
    Send {
        /// The channel sent on.
        chan: ChannelId,
        /// Payload bytes (drives the wire's bandwidth term).
        bytes: u64,
    },
    /// Receive-side software occupancy (`o_recv`) of one delivered message.
    Recv {
        /// The channel received from.
        chan: ChannelId,
        /// Payload bytes of the delivered message.
        bytes: u64,
        /// True if the wire arrival gated this receive (the process sat in
        /// a blocked span on the receive side first); false if the message
        /// was already waiting when the receive was posted.
        delayed: bool,
        /// The matching [`SpanKind::Send`] span, as `(proc, span index)` in
        /// that process's timeline — the causal edge the critical-path walk
        /// follows when `delayed`.
        sent_by: (ProcId, usize),
    },
    /// Stalled on one side of a channel: [`BlockKind::Recv`] waits for the
    /// head message to arrive off the wire, [`BlockKind::Send`] for buffer
    /// space on a bounded channel (back-pressure: the reader has not yet
    /// drained the slot this send needs).
    Blocked {
        /// The channel waited on.
        chan: ChannelId,
        /// Which side of it.
        on: BlockKind,
    },
}

impl SpanKind {
    /// Short label for exports ("compute", "send", "recv", "blocked").
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Compute { .. } => "compute",
            SpanKind::Send { .. } => "send",
            SpanKind::Recv { .. } => "recv",
            SpanKind::Blocked { .. } => "blocked",
        }
    }
}

/// One contiguous interval of virtual time in a process's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the process was doing.
    pub kind: SpanKind,
    /// Start of the interval, in virtual seconds.
    pub start: f64,
    /// End of the interval (`end >= start`).
    pub end: f64,
}

impl Span {
    /// Duration in virtual seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A single process's timed execution: contiguous spans from virtual time 0
/// to its halt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// The process these spans belong to.
    pub proc: ProcId,
    /// The spans, in increasing time order; each starts where the previous
    /// ended, and the first starts at 0.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// The halt time: end of the last span (0 for a process that did
    /// nothing).
    pub fn end(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.end)
    }

    /// Total virtual time spent in spans matching `f`.
    pub fn time_in(&self, f: impl Fn(&SpanKind) -> bool) -> f64 {
        self.spans.iter().filter(|s| f(&s.kind)).map(Span::dur).sum()
    }
}

fn push_span_json(out: &mut String, p: ProcId, s: &Span) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"proc\":{p},\"kind\":\"{}\",\"start\":{},\"end\":{}",
        s.kind.label(),
        s.start,
        s.end
    );
    match s.kind {
        SpanKind::Compute { units } => {
            let _ = write!(out, ",\"units\":{units}");
        }
        SpanKind::Send { chan, bytes } => {
            let _ = write!(out, ",\"chan\":{},\"bytes\":{bytes}", chan.0);
        }
        SpanKind::Recv { chan, bytes, delayed, .. } => {
            let _ = write!(out, ",\"chan\":{},\"bytes\":{bytes},\"delayed\":{delayed}", chan.0);
        }
        SpanKind::Blocked { chan, on } => {
            let on = match on {
                BlockKind::Recv => "arrival",
                BlockKind::Send => "space",
            };
            let _ = write!(out, ",\"on\":\"{on}\",\"chan\":{}", chan.0);
        }
    }
    out.push('}');
}

/// Dump timelines as a JSON array of span objects
/// (`{"proc":..,"kind":..,"start":..,"end":..,...}`), hand-rolled per the
/// workspace's zero-dependency rule.
pub fn timelines_to_json(timelines: &[Timeline]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for tl in timelines {
        for s in &tl.spans {
            if !first {
                out.push(',');
            }
            first = false;
            push_span_json(&mut out, tl.proc, s);
        }
    }
    out.push(']');
    out
}

/// Dump timelines in Chrome `trace_event` format: a `{"traceEvents":[...]}`
/// object of complete (`"ph":"X"`) events, timestamps and durations in
/// microseconds, one `tid` per process. Load the file in `chrome://tracing`
/// or Perfetto to see the predicted execution as a Gantt chart.
pub fn chrome_trace_json(timelines: &[Timeline]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    push_chrome_events(&mut out, timelines, "des", 0, true);
    out.push_str("]}");
    out
}

fn push_chrome_events(
    out: &mut String,
    timelines: &[Timeline],
    cat: &str,
    pid: u32,
    mut first: bool,
) {
    use std::fmt::Write;
    for tl in timelines {
        for s in &tl.spans {
            if s.dur() == 0.0 {
                continue; // zero-length spans only clutter the viewer
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{},\"dur\":{}}}",
                s.kind.label(),
                tl.proc,
                s.start * 1e6,
                s.dur() * 1e6
            );
        }
    }
}

/// A Chrome trace with **two** process tracks on shared axes: the DES
/// prediction as pid 0 (cat `"des"`) and a measured run reconstructed
/// from a flight log as pid 1 (cat `"measured"`), one tid per rank in
/// each. Metadata events name the tracks, so `chrome://tracing` shows
/// "predicted (des)" above "measured" and scrolling compares the two
/// executions of the same program rank by rank. The clocks differ — DES
/// time is virtual, measured time is wall — so compare *shapes*, and
/// read the scale factor off [`crate::overlay::DriftReport`].
pub fn overlay_chrome_trace(predicted: &[Timeline], measured: &[Timeline]) -> String {
    let mut out = String::from(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
          \"args\":{\"name\":\"predicted (des)\"}},\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
          \"args\":{\"name\":\"measured\"}}",
    );
    push_chrome_events(&mut out, predicted, "des", 0, false);
    push_chrome_events(&mut out, measured, "measured", 1, false);
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Timeline> {
        vec![
            Timeline {
                proc: 0,
                spans: vec![
                    Span { kind: SpanKind::Compute { units: 10 }, start: 0.0, end: 1.0 },
                    Span {
                        kind: SpanKind::Send { chan: ChannelId(0), bytes: 8 },
                        start: 1.0,
                        end: 1.5,
                    },
                ],
            },
            Timeline {
                proc: 1,
                spans: vec![
                    Span {
                        kind: SpanKind::Blocked { chan: ChannelId(0), on: BlockKind::Recv },
                        start: 0.0,
                        end: 2.0,
                    },
                    Span {
                        kind: SpanKind::Recv {
                            chan: ChannelId(0),
                            bytes: 8,
                            delayed: true,
                            sent_by: (0, 1),
                        },
                        start: 2.0,
                        end: 2.25,
                    },
                ],
            },
        ]
    }

    #[test]
    fn timelines_are_contiguous_and_measurable() {
        let tls = sample();
        assert_eq!(tls[0].end(), 1.5);
        assert_eq!(tls[1].end(), 2.25);
        assert_eq!(tls[0].time_in(|k| matches!(k, SpanKind::Compute { .. })), 1.0);
        assert_eq!(tls[1].time_in(|k| matches!(k, SpanKind::Blocked { .. })), 2.0);
    }

    #[test]
    fn json_export_parses_and_keeps_every_span() {
        let tls = sample();
        let doc = ssp_runtime::json::parse(&timelines_to_json(&tls)).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0].get("kind"), Some(&ssp_runtime::JsonValue::Str("compute".into())));
        assert_eq!(arr[2].get("on"), Some(&ssp_runtime::JsonValue::Str("arrival".into())));
        assert_eq!(arr[3].get("delayed"), Some(&ssp_runtime::JsonValue::Bool(true)));
    }

    #[test]
    fn chrome_export_is_valid_json_with_microsecond_stamps() {
        let tls = sample();
        let doc = ssp_runtime::json::parse(&chrome_trace_json(&tls)).unwrap();
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(evs.len(), 4);
        let first = &evs[0];
        assert_eq!(first.get("ph"), Some(&ssp_runtime::JsonValue::Str("X".into())));
        assert_eq!(first.get("dur").and_then(|v| v.as_f64()), Some(1e6));
    }
}
