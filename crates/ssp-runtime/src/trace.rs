//! Run metrics and flight-recorder events: how much a run did, and when.
//!
//! A simulated run's *schedule* is its `picks`
//! ([`crate::sim::RunOutcome::picks`]), which
//! [`crate::policy::FixedSchedule`] replays exactly; anything finer is the
//! [`crate::observer::StepEvent`] stream an observer sees. This module holds
//! the counts and the wall-clock events.
//!
//! [`RunMetrics`] is the quantitative record: per-channel message
//! counts, payload volume, and queue-depth high-water marks, plus
//! per-process step/block accounting — the data behind a Figure-2-style
//! communication profile. Every runner populates it. It has one wire form,
//! binary ([`push_run_metrics`], read back by [`Reader::run_metrics`]):
//! its per-channel counters and per-process rows are the same encodings a
//! sealed [`crate::recover::GroupManifest`] carries, and the distributed
//! backend's `GROUP_DONE` ships the whole. A [`FlightLog`] likewise crosses
//! a process in binary ([`push_flight_log`], read back by
//! [`Reader::flight_log`]), in the same `GROUP_DONE`. The `to_json` methods
//! are the human-readable dumps and are never parsed back.

use crate::chan::{ChannelId, Topology};
use crate::error::RunError;
use crate::proc::{push_bytes, push_u32, push_u64, ProcId, Reader};

/// Communication metrics for one channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelMetrics {
    /// The channel's declared writer (copied from the topology so a dumped
    /// profile is self-describing).
    pub writer: ProcId,
    /// The channel's declared reader.
    pub reader: ProcId,
    /// The channel's capacity (`None` = infinite slack).
    pub capacity: Option<usize>,
    /// Messages sent on this channel.
    pub messages: u64,
    /// Total payload bytes sent, as reported by
    /// [`crate::proc::Process::msg_size_bytes`] (0 unless overridden).
    pub bytes: u64,
    /// High-water mark of the channel's queue depth.
    pub max_queue_depth: usize,
}

/// Execution metrics for one process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcMetrics {
    /// Atomic actions this process performed.
    pub steps: u64,
    /// Abstract compute units it reported.
    pub compute_units: u64,
    /// Messages it sent.
    pub sends: u64,
    /// Messages it received.
    pub receives: u64,
    /// Time spent blocked. In the simulator this counts *scheduler steps*
    /// during which the process was blocked while another process acted; in
    /// the threaded runner it counts *block episodes* (condvar waits
    /// entered).
    pub blocked_steps: u64,
    /// Wall-clock nanoseconds spent blocked (threaded runner only; always 0
    /// in the simulator, whose virtual time has no wall-clock meaning).
    pub blocked_nanos: u64,
}

/// Scheduler-level counters of a threaded run: the worker pool's shape and
/// how hard the M:N machinery worked. All zero for the simulator, whose
/// "scheduler" is the policy under test, not a worker pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedMetrics {
    /// Worker threads in the pool (0 = not a pooled run).
    pub workers: usize,
    /// Rank tasks taken from another worker's deque.
    pub steals: u64,
    /// Budget-exhaustion yields (a compute-heavy rank returning its worker).
    pub yields: u64,
    /// Times a rank task parked on a channel edge (recv-empty/send-full).
    pub task_parks: u64,
}

/// Quantitative profile of a run: per-channel traffic and queue pressure,
/// per-process work and blocking, plus scheduler counters. Populated by
/// both runners.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// One entry per channel, indexed by [`ChannelId`].
    pub channels: Vec<ChannelMetrics>,
    /// One entry per process, indexed by [`ProcId`].
    pub procs: Vec<ProcMetrics>,
    /// Worker-pool counters (all zero outside the threaded runner).
    pub sched: SchedMetrics,
}

impl RunMetrics {
    /// Zeroed metrics shaped for `topo`, with channel endpoints and
    /// capacities pre-filled.
    pub fn for_topology(topo: &Topology) -> Self {
        RunMetrics {
            channels: topo
                .specs()
                .iter()
                .map(|s| ChannelMetrics {
                    writer: s.writer,
                    reader: s.reader,
                    capacity: s.capacity,
                    ..ChannelMetrics::default()
                })
                .collect(),
            procs: vec![ProcMetrics::default(); topo.n_procs()],
            sched: SchedMetrics::default(),
        }
    }

    /// Record a send of `bytes` payload bytes on `chan` by its writer,
    /// after which the queue holds `depth_after` messages.
    pub fn on_send(&mut self, chan: ChannelId, bytes: u64, depth_after: usize) {
        let c = &mut self.channels[chan.0];
        c.messages += 1;
        c.bytes += bytes;
        c.max_queue_depth = c.max_queue_depth.max(depth_after);
        let writer = c.writer;
        self.procs[writer].sends += 1;
    }

    /// Record a completed receive on `chan` by its reader.
    pub fn on_recv(&mut self, chan: ChannelId) {
        let reader = self.channels[chan.0].reader;
        self.procs[reader].receives += 1;
    }

    /// Total messages across all channels.
    pub fn total_messages(&self) -> u64 {
        self.channels.iter().map(|c| c.messages).sum()
    }

    /// Total payload bytes across all channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes).sum()
    }

    /// Largest queue-depth high-water mark over all channels.
    pub fn max_queue_depth(&self) -> usize {
        self.channels.iter().map(|c| c.max_queue_depth).max().unwrap_or(0)
    }

    /// Dump the profile as a JSON object (hand-rolled: every value is a
    /// number, `null`, or an array of objects, so no escaping or external
    /// serializer is needed).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        s.push_str("{\"channels\":[");
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let cap = match c.capacity {
                Some(k) => k.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "{{\"id\":{i},\"writer\":{},\"reader\":{},\"capacity\":{cap},\
                 \"messages\":{},\"bytes\":{},\"max_queue_depth\":{}}}",
                c.writer, c.reader, c.messages, c.bytes, c.max_queue_depth
            );
        }
        s.push_str("],\"procs\":[");
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{i},\"steps\":{},\"compute_units\":{},\"sends\":{},\
                 \"receives\":{},\"blocked_steps\":{},\"blocked_nanos\":{}}}",
                p.steps, p.compute_units, p.sends, p.receives, p.blocked_steps, p.blocked_nanos
            );
        }
        let _ = write!(
            s,
            "],\"sched\":{{\"workers\":{},\"steals\":{},\"yields\":{},\"task_parks\":{}}},\
             \"total_messages\":{},\"total_bytes\":{},\"max_queue_depth\":{}}}",
            self.sched.workers,
            self.sched.steals,
            self.sched.yields,
            self.sched.task_parks,
            self.total_messages(),
            self.total_bytes(),
            self.max_queue_depth()
        );
        s
    }

    /// Per-channel writer-side counters `(messages, bytes, max_depth)`:
    /// what a cut carries of each channel's profile (endpoints and capacity
    /// are the topology's).
    pub fn counters(&self) -> Vec<(u64, u64, u64)> {
        self.channels.iter().map(|c| (c.messages, c.bytes, c.max_queue_depth as u64)).collect()
    }

}

/// Append a run's metrics in their binary wire form, the one they cross a
/// process in: [`push_counters`], then `[n: u32]` and [`push_proc_metrics`]
/// per process, then the scheduler's four counters. The inverse is
/// [`Reader::run_metrics`].
pub fn push_run_metrics(buf: &mut Vec<u8>, m: &RunMetrics) {
    push_counters(buf, &m.counters());
    push_u32(buf, m.procs.len() as u32);
    for p in &m.procs {
        push_proc_metrics(buf, p);
    }
    let s = &m.sched;
    for v in [s.workers as u64, s.steals, s.yields, s.task_parks] {
        push_u64(buf, v);
    }
}

/// Append per-channel counters `(messages, bytes, max_depth)`: `[n: u32]`
/// then `3 × u64` each. The inverse is [`Reader::counters`].
pub fn push_counters(buf: &mut Vec<u8>, counters: &[(u64, u64, u64)]) {
    push_u32(buf, counters.len() as u32);
    for &(m, b, d) in counters {
        for v in [m, b, d] {
            push_u64(buf, v);
        }
    }
}

/// Append one process's metrics as `6 × u64` in field order. The inverse is
/// [`Reader::proc_metrics`].
pub fn push_proc_metrics(buf: &mut Vec<u8>, p: &ProcMetrics) {
    let ProcMetrics { steps, compute_units, sends, receives, blocked_steps, blocked_nanos } = *p;
    for v in [steps, compute_units, sends, receives, blocked_steps, blocked_nanos] {
        push_u64(buf, v);
    }
}

impl Reader<'_> {
    /// Per-channel counters written by [`push_counters`].
    pub fn counters(&mut self) -> Result<Vec<(u64, u64, u64)>, RunError> {
        let n = self.count(24, "channel counters")?;
        (0..n)
            .map(|_| Ok((self.u64("messages")?, self.u64("bytes")?, self.u64("max depth")?)))
            .collect()
    }

    /// One process's metrics written by [`push_proc_metrics`].
    pub fn proc_metrics(&mut self) -> Result<ProcMetrics, RunError> {
        Ok(ProcMetrics {
            steps: self.u64("steps")?,
            compute_units: self.u64("compute units")?,
            sends: self.u64("sends")?,
            receives: self.u64("receives")?,
            blocked_steps: self.u64("blocked steps")?,
            blocked_nanos: self.u64("blocked nanos")?,
        })
    }

    /// A run's metrics written by [`push_run_metrics`]. Channel endpoints
    /// and capacities do not travel: each decoded channel carries its
    /// counters only, and the receiver, which knows the topology, checks
    /// the shape.
    pub fn run_metrics(&mut self) -> Result<RunMetrics, RunError> {
        let channels = self
            .counters()?
            .into_iter()
            .map(|(messages, bytes, d)| ChannelMetrics {
                messages,
                bytes,
                max_queue_depth: d as usize,
                ..ChannelMetrics::default()
            })
            .collect();
        let n = self.count(48, "process metrics")?;
        let procs = (0..n).map(|_| self.proc_metrics()).collect::<Result<_, _>>()?;
        let sched = SchedMetrics {
            workers: self.u64("workers")? as usize,
            steals: self.u64("steals")?,
            yields: self.u64("yields")?,
            task_parks: self.u64("task parks")?,
        };
        Ok(RunMetrics { channels, procs, sched })
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder events: wall-clock execution tracing (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// What one flight-recorder event records. Where
/// [`crate::observer::StepEvent`] is the *model-level* action vocabulary
/// (untimed, backend-independent), `FlightKind` is the *execution-level*
/// one: scheduler transitions
/// (run/park/wake/steal/yield), channel transfers with real byte counts,
/// and lifecycle marks (checkpoint/restore/fault/migration) — each stamped
/// with wall-clock nanoseconds by [`crate::flight::FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightKind {
    /// A rank task started running on a worker (dequeue → resume).
    Run,
    /// A rank task parked on a channel edge. `chan` is the edge;
    /// `bytes` is 0 for a recv-empty wait, 1 for a send-full wait.
    Park,
    /// A parked rank was made runnable (recorded in the waker's lane).
    Wake,
    /// A rank task was stolen from another worker's deque. `chan` holds
    /// the victim worker's index.
    Steal,
    /// A rank exhausted its yield budget and requeued itself.
    Yield,
    /// A send completed: the message is in the channel ring.
    Send,
    /// A receive completed: the message was delivered to the rank.
    Recv,
    /// A compute effect completed. `bytes` holds the abstract units.
    Compute,
    /// The rank halted.
    Halt,
    /// Lifecycle: a checkpoint of the run was taken. `bytes` holds the
    /// checkpoint's step ordinal.
    Checkpoint,
    /// Lifecycle: the run (re)started from a checkpoint cut. `bytes`
    /// holds the restored step ordinal.
    Restore,
    /// Lifecycle: an injected fault fired. `bytes` holds the step.
    Fault,
    /// Lifecycle: a rank group migrated between workers (distributed
    /// backend). `chan` holds the source worker, `bytes` the destination.
    Migrate,
    /// Distributed route provenance: a cross-group DATA frame traveled
    /// through the supervisor star. `chan` is the channel, `bytes` the
    /// payload size.
    DataStar,
    /// Distributed route provenance: a cross-group DATA frame traveled a
    /// direct worker↔worker connection.
    DataDirect,
    /// Distributed route provenance: a cross-group payload traveled the
    /// shared-memory ring (doorbell over the direct connection).
    DataShm,
}

impl FlightKind {
    /// Stable wire label (used by the JSON dump and Chrome trace names).
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Run => "run",
            FlightKind::Park => "park",
            FlightKind::Wake => "wake",
            FlightKind::Steal => "steal",
            FlightKind::Yield => "yield",
            FlightKind::Send => "send",
            FlightKind::Recv => "recv",
            FlightKind::Compute => "compute",
            FlightKind::Halt => "halt",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::Restore => "restore",
            FlightKind::Fault => "fault",
            FlightKind::Migrate => "migrate",
            FlightKind::DataStar => "data-star",
            FlightKind::DataDirect => "data-direct",
            FlightKind::DataShm => "data-shm",
        }
    }

    /// Every kind, indexed by its wire tag (`kind as u8`).
    const ALL: [FlightKind; 16] = [
        FlightKind::Run,
        FlightKind::Park,
        FlightKind::Wake,
        FlightKind::Steal,
        FlightKind::Yield,
        FlightKind::Send,
        FlightKind::Recv,
        FlightKind::Compute,
        FlightKind::Halt,
        FlightKind::Checkpoint,
        FlightKind::Restore,
        FlightKind::Fault,
        FlightKind::Migrate,
        FlightKind::DataStar,
        FlightKind::DataDirect,
        FlightKind::DataShm,
    ];
}

/// One timestamped flight-recorder event. `Copy` and fixed-size by design:
/// recording is one slot write into an overwrite-oldest ring
/// ([`crate::spsc::OverwriteRing`]), never an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder's epoch (the run's start).
    pub nanos: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The rank the event is about.
    pub rank: u32,
    /// Channel id, victim worker (steals), or source worker (migrations);
    /// 0 when not meaningful for the kind.
    pub chan: u32,
    /// Payload bytes, compute units, step ordinals, or a park-direction
    /// flag, depending on the kind (see [`FlightKind`]).
    pub bytes: u64,
}

impl Default for FlightEvent {
    fn default() -> Self {
        FlightEvent { nanos: 0, kind: FlightKind::Run, rank: 0, chan: 0, bytes: 0 }
    }
}

/// One drained event lane: the events one writer thread recorded, oldest
/// first, plus how many older events fell out of its window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLane {
    /// Who wrote this lane (`worker-3`, `control`, `gateway`, …).
    pub label: String,
    /// Events that were overwritten before the drain (oldest-first loss:
    /// the retained window is always the *newest* events).
    pub dropped: u64,
    /// The retained window, oldest first.
    pub events: Vec<FlightEvent>,
}

/// A drained flight recording: every lane of one run (or, for the merged
/// distributed dump, of several runs with per-worker lane prefixes).
/// Timestamps are per-recorder relative nanoseconds; lanes from different
/// processes share no clock (DESIGN.md §15 spells out the drift caveat).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// All lanes, in recorder order.
    pub lanes: Vec<FlightLane>,
}

impl FlightLog {
    /// Every event across all lanes, merged and sorted by timestamp
    /// (stable, so same-stamp events keep lane order).
    pub fn merged(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> =
            self.lanes.iter().flat_map(|l| l.events.iter().copied()).collect();
        all.sort_by_key(|e| e.nanos);
        all
    }

    /// Total events retained across lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// True when no lane retained any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last `n` events of each lane that mention `rank`, merged and
    /// time-sorted — the post-mortem's "final events of the blocked cycle".
    pub fn last_events_for(&self, rank: usize, n: usize) -> Vec<FlightEvent> {
        let mut hits: Vec<FlightEvent> = self
            .lanes
            .iter()
            .flat_map(|l| l.events.iter().copied())
            .filter(|e| e.rank as usize == rank)
            .collect();
        hits.sort_by_key(|e| e.nanos);
        if hits.len() > n {
            hits.drain(..hits.len() - n);
        }
        hits
    }

    /// Append a lifecycle mark (checkpoint/restore/migration) recorded
    /// outside any running scheduler, into a dedicated `lifecycle` lane.
    /// `nanos` is relative to whatever epoch the caller is narrating.
    pub fn push_lifecycle(&mut self, nanos: u64, kind: FlightKind, rank: usize, chan: usize, bytes: u64) {
        let lane = match self.lanes.iter_mut().find(|l| l.label == "lifecycle") {
            Some(l) => l,
            None => {
                self.lanes.push(FlightLane {
                    label: "lifecycle".to_string(),
                    dropped: 0,
                    events: Vec::new(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        lane.events.push(FlightEvent {
            nanos,
            kind,
            rank: rank as u32,
            chan: chan as u32,
            bytes,
        });
    }

    /// Dump as JSON for people to read (hand-rolled like every other writer
    /// in the workspace; never parsed back). Events are compact arrays
    /// `[nanos, "kind", rank, chan, bytes]` so a 64-rank post-mortem stays
    /// small.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{\"version\":1,\"lanes\":[");
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            // Labels are generated in-tree ("worker-3") — no escaping
            // needed, but strip quotes defensively if one ever sneaks in.
            let label: String = lane.label.chars().filter(|&c| c != '"' && c != '\\').collect();
            let _ = write!(s, "{{\"label\":\"{label}\",\"dropped\":{},\"events\":[", lane.dropped);
            for (j, e) in lane.events.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "[{},\"{}\",{},{},{}]",
                    e.nanos,
                    e.kind.label(),
                    e.rank,
                    e.chan,
                    e.bytes
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// Bytes one flight event occupies on the wire.
const FLIGHT_EVENT_LEN: usize = 8 + 1 + 4 + 4 + 8;

/// Append a flight log in its binary wire form, the one it crosses a
/// process in: `[lanes: u32]`, then per lane its label ([`push_bytes`]),
/// `[dropped: u64]`, `[events: u32]` and each event as `[nanos: u64]
/// [kind tag: u8][rank: u32][chan: u32][bytes: u64]`. The inverse is
/// [`Reader::flight_log`].
pub fn push_flight_log(buf: &mut Vec<u8>, log: &FlightLog) {
    push_u32(buf, log.lanes.len() as u32);
    for lane in &log.lanes {
        push_bytes(buf, lane.label.as_bytes());
        push_u64(buf, lane.dropped);
        push_u32(buf, lane.events.len() as u32);
        buf.reserve(FLIGHT_EVENT_LEN * lane.events.len());
        for e in &lane.events {
            push_u64(buf, e.nanos);
            buf.push(e.kind as u8);
            push_u32(buf, e.rank);
            push_u32(buf, e.chan);
            push_u64(buf, e.bytes);
        }
    }
}

impl Reader<'_> {
    /// A flight log written by [`push_flight_log`]. Lane and event counts
    /// are checked against the remaining bytes before anything is
    /// allocated, and an unknown event-kind tag is an error.
    pub fn flight_log(&mut self) -> Result<FlightLog, RunError> {
        let n = self.count(4 + 8 + 4, "flight lanes")?;
        let lanes = (0..n)
            .map(|_| {
                let label = self.str("lane label")?.to_string();
                let dropped = self.u64("dropped events")?;
                let m = self.count(FLIGHT_EVENT_LEN, "flight events")?;
                let events = (0..m).map(|_| self.flight_event()).collect::<Result<_, _>>()?;
                Ok(FlightLane { label, dropped, events })
            })
            .collect::<Result<_, RunError>>()?;
        Ok(FlightLog { lanes })
    }

    fn flight_event(&mut self) -> Result<FlightEvent, RunError> {
        let nanos = self.u64("event nanos")?;
        let tag = self.u8("event kind")?;
        let kind = FlightKind::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| self.error(format_args!("unknown event kind tag {tag}")))?;
        Ok(FlightEvent {
            nanos,
            kind,
            rank: self.u32("event rank")?,
            chan: self.u32("event chan")?,
            bytes: self.u64("event bytes")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate_and_dump_as_json() {
        let mut t = Topology::new(2);
        let c = t.connect(0, 1);
        let mut m = RunMetrics::for_topology(&t);
        m.on_send(c, 16, 1);
        m.on_send(c, 16, 2);
        m.on_recv(c);
        m.procs[0].steps = 3;
        m.procs[1].blocked_steps = 2;

        assert_eq!(m.channels[0].messages, 2);
        assert_eq!(m.channels[0].bytes, 32);
        assert_eq!(m.channels[0].max_queue_depth, 2);
        assert_eq!(m.procs[0].sends, 2);
        assert_eq!(m.procs[1].receives, 1);
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 32);
        assert_eq!(m.max_queue_depth(), 2);

        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"capacity\":null"));
        assert!(json.contains("\"messages\":2"));
        assert!(json.contains("\"total_bytes\":32"));
        // Balanced braces — cheap structural sanity without a parser.
        let open = json.chars().filter(|&c| c == '{').count();
        let close = json.chars().filter(|&c| c == '}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn bounded_capacity_appears_in_json() {
        let mut t = Topology::new(2);
        t.add(crate::chan::ChannelSpec::bounded(0, 1, 4));
        let m = RunMetrics::for_topology(&t);
        assert!(m.to_json().contains("\"capacity\":4"));
    }

    #[test]
    fn json_schema_is_stable() {
        // Golden check: the human-readable dump's key names are what people
        // and scripts grep for; renaming a field must fail here first.
        let mut t = Topology::new(2);
        let c = t.connect(0, 1);
        let mut m = RunMetrics::for_topology(&t);
        m.on_send(c, 8, 1);
        m.procs[0].steps = 1;
        let expected = "{\"channels\":[{\"id\":0,\"writer\":0,\"reader\":1,\"capacity\":null,\
                        \"messages\":1,\"bytes\":8,\"max_queue_depth\":1}],\
                        \"procs\":[{\"id\":0,\"steps\":1,\"compute_units\":0,\"sends\":1,\
                        \"receives\":0,\"blocked_steps\":0,\"blocked_nanos\":0},\
                        {\"id\":1,\"steps\":0,\"compute_units\":0,\"sends\":0,\"receives\":0,\
                        \"blocked_steps\":0,\"blocked_nanos\":0}],\
                        \"sched\":{\"workers\":0,\"steals\":0,\"yields\":0,\"task_parks\":0},\
                        \"total_messages\":1,\"total_bytes\":8,\"max_queue_depth\":1}";
        assert_eq!(m.to_json(), expected);
    }

    fn sample_flight_log() -> FlightLog {
        let mk = |nanos, kind, rank, chan, bytes| FlightEvent { nanos, kind, rank, chan, bytes };
        FlightLog {
            lanes: vec![
                FlightLane {
                    label: "worker-0".to_string(),
                    dropped: 3,
                    events: vec![
                        mk(10, FlightKind::Run, 0, 0, 0),
                        mk(25, FlightKind::Send, 0, 2, 64),
                        mk(40, FlightKind::Park, 0, 1, 0),
                    ],
                },
                FlightLane {
                    label: "control".to_string(),
                    dropped: 0,
                    events: vec![mk(18, FlightKind::Wake, 1, 0, 0)],
                },
            ],
        }
    }

    fn decode_flight_log(bytes: &[u8]) -> Result<FlightLog, RunError> {
        let mut r = Reader::new("flight log", bytes);
        let log = r.flight_log()?;
        r.finish(log)
    }

    #[test]
    fn flight_log_round_trips_through_its_wire_form() {
        let log = sample_flight_log();
        let mut bytes = Vec::new();
        push_flight_log(&mut bytes, &log);
        assert_eq!(decode_flight_log(&bytes).unwrap(), log);
        // Merged view is time-sorted across lanes.
        let merged = log.merged();
        let stamps: Vec<u64> = merged.iter().map(|e| e.nanos).collect();
        assert_eq!(stamps, vec![10, 18, 25, 40]);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn flight_kind_labels_round_trip() {
        // Labels are distinct, so a reader of the JSON dump can map each
        // back to its kind; wire tags index `ALL`.
        for (tag, kind) in FlightKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, tag, "ALL must be in tag order");
            let named: Vec<_> = FlightKind::ALL.iter().filter(|k| k.label() == kind.label()).collect();
            assert_eq!(named, vec![kind]);
        }
    }

    #[test]
    fn flight_log_rejects_hostile_bytes_with_typed_errors() {
        let mut bytes = Vec::new();
        push_flight_log(&mut bytes, &sample_flight_log());
        for cut in 0..bytes.len() {
            let r = decode_flight_log(&bytes[..cut]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "cut {cut}: {r:?}");
        }
        // The first event's kind tag sits after the lane header: `[lanes]`,
        // label `worker-0`, `[dropped]`, `[events]`, `[nanos]`.
        let kind_at = 4 + (4 + 8) + 8 + 4 + 8;
        assert_eq!(bytes[kind_at], FlightKind::Run as u8);
        let mut unknown = bytes.clone();
        unknown[kind_at] = FlightKind::ALL.len() as u8;
        let detail = decode_flight_log(&unknown).unwrap_err().to_string();
        assert!(detail.contains("unknown event kind tag 16"), "{detail}");
        let mut bad_label = bytes;
        bad_label[8] = 0xff;
        assert!(matches!(decode_flight_log(&bad_label), Err(RunError::Protocol { .. })));
    }

    #[test]
    fn flight_log_last_events_filter_by_rank() {
        let log = sample_flight_log();
        let last = log.last_events_for(0, 2);
        assert_eq!(last.len(), 2);
        assert!(last.iter().all(|e| e.rank == 0));
        assert_eq!(last[1].kind, FlightKind::Park);
    }
}
