//! Critical-path extraction: which chain of work determined the makespan,
//! and what kind of cost each link is.
//!
//! The walk starts at the process that halts last and moves backward
//! through virtual time, always following the *cause* of the current span:
//!
//! * compute / send / recv spans are caused by the process itself — walk to
//!   the previous span on the same timeline;
//! * a receive that was gated by its message's wire arrival is caused by
//!   the wire and, before that, the sender — the walk emits the wire's
//!   latency (α) and bandwidth (bytes·β) segments, then jumps to the
//!   sender's matching send span (skipping the receiver's arrival-wait
//!   span, whose interval the wire and sender exactly cover);
//! * a space-wait span (bounded-slack back-pressure) is charged as
//!   *blocked* time and the walk stays on the same timeline — back-pressure
//!   is a buffering artifact, not intrinsic work, and charging it
//!   separately is what makes "this run is slack-limited" visible.
//!
//! Because timelines are gap-free and every jump lands exactly where a span
//! ends, the emitted edges tile `[0, makespan]` with no overlap: the
//! [`CostBreakdown`] sums to the makespan (up to float rounding), an
//! invariant the tests assert.

use crate::timeline::{Span, SpanKind, Timeline};
use machine_model::MachineModel;
use ssp_runtime::ProcId;

/// Where the makespan went, split by cost kind. Produced by the
/// critical-path walk, so the four parts sum to the makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Local computation (units · t_flop).
    pub compute: f64,
    /// Fixed per-message costs: send/receive software occupancy and wire
    /// latency α.
    pub latency: f64,
    /// Volume-proportional wire time (bytes · β).
    pub bandwidth: f64,
    /// Bounded-slack back-pressure: time a critical sender spent waiting
    /// for buffer space. Always 0 at infinite slack.
    pub blocked: f64,
}

impl CostBreakdown {
    /// Sum of the four parts (equals the makespan for a walk result).
    pub fn total(&self) -> f64 {
        self.compute + self.latency + self.bandwidth + self.blocked
    }
}

/// The cost kind of one critical-path edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Local computation.
    Compute,
    /// Per-message fixed cost (o_send, o_recv, or wire α).
    Latency,
    /// Wire bandwidth (bytes · β).
    Bandwidth,
    /// Bounded-slack space wait.
    Blocked,
}

impl EdgeKind {
    /// Short label for exports.
    pub fn label(&self) -> &'static str {
        match self {
            EdgeKind::Compute => "compute",
            EdgeKind::Latency => "latency",
            EdgeKind::Bandwidth => "bandwidth",
            EdgeKind::Blocked => "blocked",
        }
    }
}

/// One link of the critical path: a half-open interval of virtual time
/// attributed to one process and one cost kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpEdge {
    /// The process the interval belongs to (for wire segments, the sender).
    pub proc: ProcId,
    /// The cost kind charged.
    pub kind: EdgeKind,
    /// Interval start, virtual seconds.
    pub start: f64,
    /// Interval end.
    pub end: f64,
}

/// The chain of work that determined the makespan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Edges in increasing time order, tiling `[0, makespan]`.
    pub edges: Vec<CpEdge>,
    /// The per-kind totals of the edges.
    pub breakdown: CostBreakdown,
}

/// Walk the critical path backward from the process that halts last.
pub fn extract(timelines: &[Timeline], model: &MachineModel) -> CriticalPath {
    let mut edges: Vec<CpEdge> = Vec::new();
    let mut bd = CostBreakdown::default();

    // Terminal process: latest halt, lowest id on ties.
    let Some(start_proc) = timelines
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            a.end().partial_cmp(&b.end()).unwrap().then(ib.cmp(ia))
        })
        .map(|(i, _)| i)
    else {
        return CriticalPath::default();
    };

    let mut proc = start_proc;
    let mut idx = timelines[proc].spans.len() as isize - 1;
    while idx >= 0 {
        let s: Span = timelines[proc].spans[idx as usize];
        match s.kind {
            SpanKind::Compute { .. } => {
                bd.compute += s.dur();
                edges.push(CpEdge { proc, kind: EdgeKind::Compute, start: s.start, end: s.end });
                idx -= 1;
            }
            SpanKind::Send { .. } => {
                bd.latency += s.dur();
                edges.push(CpEdge { proc, kind: EdgeKind::Latency, start: s.start, end: s.end });
                idx -= 1;
            }
            SpanKind::Blocked { .. } => {
                // Space waits. (Arrival waits are unreachable: they are
                // always followed by a delayed recv, whose handling below
                // jumps to the sender instead of walking onto them.)
                bd.blocked += s.dur();
                edges.push(CpEdge { proc, kind: EdgeKind::Blocked, start: s.start, end: s.end });
                idx -= 1;
            }
            SpanKind::Recv { bytes, delayed, sent_by: (sender, send_idx), .. } => {
                bd.latency += s.dur();
                edges.push(CpEdge { proc, kind: EdgeKind::Latency, start: s.start, end: s.end });
                if delayed {
                    // The wire gated this receive: its arrival (= s.start)
                    // decomposes as send_end + α + bytes·β. Emit the wire
                    // segments and jump to the sender's send span, which
                    // ends exactly at send_end.
                    let bw = bytes as f64 * model.beta;
                    let arrival = s.start;
                    edges.push(CpEdge {
                        proc: sender,
                        kind: EdgeKind::Bandwidth,
                        start: arrival - bw,
                        end: arrival,
                    });
                    edges.push(CpEdge {
                        proc: sender,
                        kind: EdgeKind::Latency,
                        start: arrival - bw - model.alpha,
                        end: arrival - bw,
                    });
                    bd.bandwidth += bw;
                    bd.latency += model.alpha;
                    proc = sender;
                    idx = send_idx as isize;
                } else {
                    idx -= 1;
                }
            }
        }
    }

    edges.reverse();
    CriticalPath { edges, breakdown: bd }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_runtime::{BlockKind, ChannelId};

    /// Hand-built two-process scenario: p0 computes then sends; p1 posts
    /// its receive immediately, waits for the wire, receives, computes.
    /// Model: α=0.5, β=0.01, o_send=0.25, o_recv=0.25, t_flop=0.1.
    fn scenario() -> (Vec<Timeline>, MachineModel) {
        let model =
            MachineModel::custom("test", 0.1, 0.5, 0.01).with_overheads(0.25, 0.25);
        let c = ChannelId(0);
        // p0: compute 10 units [0,1], send 100B [1,1.25]; arrival = 1.25+0.5+1.0 = 2.75
        let p0 = Timeline {
            proc: 0,
            spans: vec![
                Span { kind: SpanKind::Compute { units: 10 }, start: 0.0, end: 1.0 },
                Span { kind: SpanKind::Send { chan: c, bytes: 100 }, start: 1.0, end: 1.25 },
            ],
        };
        // p1: blocked on arrival [0,2.75], recv [2.75,3.0], compute [3.0,3.5]
        let p1 = Timeline {
            proc: 1,
            spans: vec![
                Span {
                    kind: SpanKind::Blocked { chan: c, on: BlockKind::Recv },
                    start: 0.0,
                    end: 2.75,
                },
                Span {
                    kind: SpanKind::Recv { chan: c, bytes: 100, delayed: true, sent_by: (0, 1) },
                    start: 2.75,
                    end: 3.0,
                },
                Span { kind: SpanKind::Compute { units: 5 }, start: 3.0, end: 3.5 },
            ],
        };
        (vec![p0, p1], model)
    }

    #[test]
    fn walk_crosses_the_message_edge_and_tiles_the_makespan() {
        let (tls, model) = scenario();
        let cp = extract(&tls, &model);
        // compute: p1's 0.5 + p0's 1.0; latency: o_recv 0.25 + α 0.5 + o_send
        // 0.25; bandwidth: 100·0.01 = 1.0; blocked: none (the arrival wait is
        // covered by the wire and the sender).
        assert_eq!(cp.breakdown.compute, 1.5);
        assert_eq!(cp.breakdown.latency, 1.0);
        assert_eq!(cp.breakdown.bandwidth, 1.0);
        assert_eq!(cp.breakdown.blocked, 0.0);
        assert!((cp.breakdown.total() - 3.5).abs() < 1e-12);

        // Edges tile [0, makespan]: increasing, contiguous.
        assert_eq!(cp.edges.first().unwrap().start, 0.0);
        assert_eq!(cp.edges.last().unwrap().end, 3.5);
        for w in cp.edges.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12, "contiguous edges");
        }
    }

    #[test]
    fn undelayed_receives_stay_on_one_timeline() {
        // p1 receives a message that was already there: no jump, the path
        // is entirely p1's own spans.
        let model = MachineModel::custom("test", 0.1, 0.5, 0.01).with_overheads(0.25, 0.25);
        let c = ChannelId(0);
        let p0 = Timeline {
            proc: 0,
            spans: vec![Span { kind: SpanKind::Send { chan: c, bytes: 8 }, start: 0.0, end: 0.25 }],
        };
        let p1 = Timeline {
            proc: 1,
            spans: vec![
                Span { kind: SpanKind::Compute { units: 50 }, start: 0.0, end: 5.0 },
                Span {
                    kind: SpanKind::Recv { chan: c, bytes: 8, delayed: false, sent_by: (0, 0) },
                    start: 5.0,
                    end: 5.25,
                },
            ],
        };
        let cp = extract(&[p0, p1], &model);
        assert!(cp.edges.iter().all(|e| e.proc == 1));
        assert_eq!(cp.breakdown.compute, 5.0);
        assert_eq!(cp.breakdown.latency, 0.25);
        assert_eq!(cp.breakdown.bandwidth, 0.0);
    }
}
