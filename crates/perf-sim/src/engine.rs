//! The discrete-event engine: a third backend that *prices* an execution.
//!
//! [`run_des`] runs the untimed [`Simulator`] and places every
//! [`FlightEvent`] it reports — the pool's flight-recorder vocabulary — on
//! a per-process virtual clock, charging costs from a [`MachineModel`]:
//!
//! * `Compute { units }` advances the process by `units · t_flop`;
//! * a send occupies the sender for `o_send`, then the message travels for
//!   `α + bytes·β` of wire time;
//! * a receive completes at `max(post time, wire arrival) + o_recv`; any
//!   wait for the arrival is an explicit blocked span;
//! * on a channel of capacity `k`, send `i` cannot start before receive
//!   `i−k` completed (the buffer slot it needs) — any wait for that slot is
//!   a blocked span charged to back-pressure.
//!
//! Because the engine *replays* the simulator rather than reimplementing
//! it, the timed execution performs exactly the actions of the untimed one,
//! and Theorem 1 transfers: the final state is bitwise identical to
//! [`ssp_runtime::sim::run_simulated`] under any policy.
//!
//! The virtual-time placement of every action is defined by causal
//! recurrences over predecessor times only (the process's own clock, the
//! message's arrival, the slot-freeing receive's completion). Per-process
//! action sequences and per-channel FIFO orders are schedule-independent
//! (determinism, Theorem 1), so the placements — and hence the makespan and
//! every timeline — are *identical under every scheduling policy*, not just
//! the final state. The `invariance` integration test asserts this exactly.

use std::collections::VecDeque;

use machine_model::MachineModel;
use ssp_runtime::sim::Simulator;
use ssp_runtime::{
    BlockKind, ChannelId, FlightEvent, FlightKind, Process, RunError, RunMetrics, SchedulePolicy,
    Topology,
};

use crate::critical::{extract, CriticalPath};
use crate::timeline::{Span, SpanKind, Timeline};

/// The result of a timed run: the snapshots, metrics and step count of the
/// untimed run, plus the virtual-clock view.
#[derive(Debug, Clone)]
pub struct DesOutcome {
    /// Final per-rank snapshots ([`ssp_runtime::RunOutcome::snapshots`]) —
    /// bitwise identical to the untimed simulator's (Theorem 1).
    pub snapshots: Vec<Vec<u8>>,
    /// Predicted wall time: the latest halt across processes, in virtual
    /// seconds of the machine model.
    pub makespan: f64,
    /// Per-process timed spans (gap-free; see [`Timeline`]).
    pub timelines: Vec<Timeline>,
    /// The chain of work that determined the makespan, with per-edge cost
    /// attribution.
    pub critical: CriticalPath,
    /// The untimed run's profile — the same metrics
    /// [`ssp_runtime::sim::run_simulated`] reports.
    pub metrics: RunMetrics,
    /// Atomic steps taken.
    pub steps: u64,
}

/// A message in flight (sent, not yet delivered) on one channel.
struct InFlight {
    /// When it lands at the receiver, in virtual seconds.
    arrival: f64,
    /// Payload bytes.
    bytes: u64,
    /// The sender's send span: `(proc, span index)`.
    sent_by: (usize, usize),
}

/// The engine proper: per-process virtual clocks and spans, advanced by the
/// simulator's events.
struct Clocks<'a> {
    model: &'a MachineModel,
    caps: Vec<Option<usize>>,
    clock: Vec<f64>,
    spans: Vec<Vec<Span>>,
    in_flight: Vec<VecDeque<InFlight>>,
    /// Completion time of each delivered receive, per channel, in FIFO
    /// order: entry i is when buffer slot i was freed.
    recv_done: Vec<Vec<f64>>,
    sends_placed: Vec<usize>,
}

impl<'a> Clocks<'a> {
    fn new(topo: &Topology, model: &'a MachineModel) -> Self {
        let (n_procs, n_chans) = (topo.n_procs(), topo.n_channels());
        Clocks {
            model,
            caps: topo.specs().iter().map(|s| s.capacity).collect(),
            clock: vec![0.0; n_procs],
            spans: vec![Vec::new(); n_procs],
            in_flight: (0..n_chans).map(|_| VecDeque::new()).collect(),
            recv_done: vec![Vec::new(); n_chans],
            sends_placed: vec![0; n_chans],
        }
    }
}

impl Clocks<'_> {
    fn on_event(&mut self, ev: FlightEvent) {
        let model = self.model;
        let (proc, chan) = (ev.rank as usize, ChannelId(ev.chan as usize));
        match ev.kind {
            FlightKind::Compute => {
                let units = ev.bytes;
                let start = self.clock[proc];
                let end = start + model.compute_time(units);
                self.spans[proc].push(Span { kind: SpanKind::Compute { units }, start, end });
                self.clock[proc] = end;
            }
            FlightKind::Send => {
                let bytes = ev.bytes;
                // Place the send no earlier than the freeing of the buffer
                // slot it occupies (bounded slack only).
                let i = self.sends_placed[chan.0];
                self.sends_placed[chan.0] += 1;
                let space_ready = match self.caps[chan.0] {
                    Some(k) if i >= k => self.recv_done[chan.0][i - k],
                    _ => 0.0,
                };
                let start = self.clock[proc].max(space_ready);
                let spans = &mut self.spans[proc];
                if start > self.clock[proc] {
                    spans.push(Span {
                        kind: SpanKind::Blocked { chan, on: BlockKind::Send },
                        start: self.clock[proc],
                        end: start,
                    });
                }
                let end = start + model.o_send;
                spans.push(Span { kind: SpanKind::Send { chan, bytes }, start, end });
                self.clock[proc] = end;
                self.in_flight[chan.0].push_back(InFlight {
                    arrival: end + model.transit_time(bytes),
                    bytes,
                    sent_by: (proc, spans.len() - 1),
                });
            }
            FlightKind::Recv => {
                let m = self.in_flight[chan.0]
                    .pop_front()
                    .expect("simulator delivered a message the engine saw sent");
                // clock[proc] still reads the post time: posting a receive
                // advances no virtual time.
                let delayed = m.arrival > self.clock[proc];
                let ready = self.clock[proc].max(m.arrival);
                if delayed {
                    self.spans[proc].push(Span {
                        kind: SpanKind::Blocked { chan, on: BlockKind::Recv },
                        start: self.clock[proc],
                        end: ready,
                    });
                }
                let end = ready + model.o_recv;
                self.spans[proc].push(Span {
                    kind: SpanKind::Recv { chan, bytes: m.bytes, delayed, sent_by: m.sent_by },
                    start: ready,
                    end,
                });
                self.clock[proc] = end;
                self.recv_done[chan.0].push(end);
            }
            // Posting a receive and hitting a full channel (`Park`) cost no
            // virtual time themselves; the waits they may start are
            // materialized when the matching Recv/Send is placed. A halt
            // ends the timeline; a fault ends the run.
            _ => {}
        }
    }
}

/// Run `procs` over `topo` under the virtual clock of `model`, breaking
/// scheduling ties with `policy`. The policy affects only the *order* the
/// engine happens to discover the (unique) timed execution in — see the
/// module docs — so any policy, `RoundRobin` say, gives the same outcome.
pub fn run_des<P: Process>(
    topo: Topology,
    procs: Vec<P>,
    model: &MachineModel,
    policy: &mut dyn SchedulePolicy,
) -> Result<DesOutcome, RunError> {
    let mut clocks = Clocks::new(&topo, model);
    let out = Simulator::new(topo, procs).run_observed(policy, &mut |ev| clocks.on_event(ev))?;
    let timelines: Vec<Timeline> = clocks
        .spans
        .into_iter()
        .enumerate()
        .map(|(proc, spans)| Timeline { proc, spans })
        .collect();
    let makespan = timelines.iter().map(Timeline::end).fold(0.0, f64::max);
    let critical = extract(&timelines, model);
    Ok(DesOutcome {
        snapshots: out.snapshots,
        makespan,
        timelines,
        critical,
        metrics: out.metrics,
        steps: out.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_runtime::chan::ChannelSpec;
    use ssp_runtime::proc::push_u64;
    use ssp_runtime::{Effect, RoundRobin};

    /// Sender: one compute of `units`, then `count` messages of 100 bytes
    /// each. Receiver: receives `count`, then one final compute of `units`.
    enum Pipe {
        Tx { chan: ssp_runtime::ChannelId, sent: u64, count: u64, units: u64 },
        Rx { chan: ssp_runtime::ChannelId, got: u64, count: u64, units: u64, sum: u64 },
    }

    impl Process for Pipe {
        type Msg = u64;
        fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
            match self {
                Pipe::Tx { chan, sent, count, units } => {
                    if *sent < *count {
                        if *sent % 2 == 0 && *units > 0 {
                            let u = *units;
                            *units = 0;
                            return Effect::Compute { units: u };
                        }
                        *sent += 1;
                        Effect::Send { chan: *chan, msg: *sent }
                    } else {
                        Effect::Halt
                    }
                }
                Pipe::Rx { chan, got, count, units, sum } => {
                    if let Some(m) = delivery {
                        *sum = sum.wrapping_mul(31).wrapping_add(m);
                        *got += 1;
                    }
                    if *got < *count {
                        Effect::Recv { chan: *chan }
                    } else if *units > 0 {
                        let u = *units;
                        *units = 0;
                        Effect::Compute { units: u }
                    } else {
                        Effect::Halt
                    }
                }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            match self {
                Pipe::Tx { sent, .. } => push_u64(&mut buf, *sent),
                Pipe::Rx { sum, .. } => push_u64(&mut buf, *sum),
            }
            buf
        }
        fn msg_size_bytes(_: &u64) -> u64 {
            100
        }
    }

    fn model() -> MachineModel {
        MachineModel::custom("test", 0.001, 0.5, 0.01).with_overheads(0.25, 0.25)
    }

    #[test]
    fn one_message_has_closed_form_makespan() {
        // Tx: compute 1000 units (1.0s), send (0.25); arrival at
        // 1.25 + 0.5 + 1.0 = 2.75. Rx posts at 0, recv ends 3.0; halt.
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            Pipe::Tx { chan: c, sent: 0, count: 1, units: 1000 },
            Pipe::Rx { chan: c, got: 0, count: 1, units: 0, sum: 0 },
        ];
        let out = run_des(topo, procs, &model(), &mut RoundRobin::new()).unwrap();
        assert!((out.makespan - 3.0).abs() < 1e-12, "makespan {}", out.makespan);
        // The receiver waited for the wire.
        let waited = out.timelines[1]
            .time_in(|k| matches!(k, SpanKind::Blocked { on: BlockKind::Recv, .. }));
        assert!((waited - 2.75).abs() < 1e-12);
        // Critical path: compute 1.0, latency o_send+α+o_recv = 1.0,
        // bandwidth 1.0; no back-pressure.
        let bd = out.critical.breakdown;
        assert!((bd.compute - 1.0).abs() < 1e-12);
        assert!((bd.latency - 1.0).abs() < 1e-12);
        assert!((bd.bandwidth - 1.0).abs() < 1e-12);
        assert_eq!(bd.blocked, 0.0);
        assert!((bd.total() - out.makespan).abs() < 1e-9 * out.makespan);
    }

    #[test]
    fn bounded_slack_creates_back_pressure_spans() {
        // Capacity 1, 4 sends, fast sender, receiver pays o_recv + wire per
        // message: sends 2.. must wait for slots.
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 1));
        let procs = vec![
            Pipe::Tx { chan: c, sent: 0, count: 4, units: 0 },
            Pipe::Rx { chan: c, got: 0, count: 4, units: 0, sum: 0 },
        ];
        let out = run_des(topo, procs, &model(), &mut RoundRobin::new()).unwrap();
        let pressured = out.timelines[0]
            .time_in(|k| matches!(k, SpanKind::Blocked { on: BlockKind::Send, .. }));
        assert!(pressured > 0.0, "capacity-1 channel must stall the sender");

        // The same program at infinite slack is never back-pressured and
        // finishes no later.
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            Pipe::Tx { chan: c, sent: 0, count: 4, units: 0 },
            Pipe::Rx { chan: c, got: 0, count: 4, units: 0, sum: 0 },
        ];
        let unbounded = run_des(topo, procs, &model(), &mut RoundRobin::new()).unwrap();
        let free = unbounded.timelines[0]
            .time_in(|k| matches!(k, SpanKind::Blocked { on: BlockKind::Send, .. }));
        assert_eq!(free, 0.0);
        assert!(unbounded.makespan <= out.makespan + 1e-12);
        assert_eq!(unbounded.snapshots, out.snapshots, "slack never changes results");
    }

    #[test]
    fn timelines_are_gap_free() {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            Pipe::Tx { chan: c, sent: 0, count: 3, units: 500 },
            Pipe::Rx { chan: c, got: 0, count: 3, units: 200, sum: 0 },
        ];
        let out = run_des(topo, procs, &model(), &mut RoundRobin::new()).unwrap();
        for tl in &out.timelines {
            let mut t = 0.0;
            for s in &tl.spans {
                assert!((s.start - t).abs() < 1e-12, "gap at {t} in proc {}", tl.proc);
                assert!(s.end >= s.start);
                t = s.end;
            }
        }
    }

    #[test]
    fn zero_cost_model_predicts_zero_makespan() {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            Pipe::Tx { chan: c, sent: 0, count: 2, units: 7 },
            Pipe::Rx { chan: c, got: 0, count: 2, units: 0, sum: 0 },
        ];
        let free = MachineModel::custom("free", 0.0, 0.0, 0.0);
        let out = run_des(topo, procs, &free, &mut RoundRobin::new()).unwrap();
        assert_eq!(out.makespan, 0.0);
        assert_eq!(out.critical.breakdown.total(), 0.0);
    }
}
