//! Execution traces and metrics: what an interleaving did, and how much.
//!
//! Traces serve three purposes: they *are* the interleaving (Theorem 1
//! quantifies over them), they can be replayed exactly with
//! [`crate::policy::FixedSchedule`], and they feed the permutation argument
//! in `archetypes-core::theorem` that mirrors the paper's proof technique.
//!
//! [`RunMetrics`] is the quantitative companion: per-channel message
//! counts, payload volume, and queue-depth high-water marks, plus
//! per-process step/block accounting — the data behind a Figure-2-style
//! communication profile. Both runners populate it; [`RunMetrics::to_json`]
//! dumps it without any serialization dependency.

use crate::chan::{ChannelId, Topology};
use crate::observer::{StepEvent, StepObserver};
use crate::proc::ProcId;

/// What a single scheduled step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A local-computation action of the given abstract cost.
    Computed {
        /// Abstract work units reported by the process.
        units: u64,
    },
    /// A send on `chan` (never blocks on infinite-slack channels).
    Sent {
        /// The channel sent on.
        chan: ChannelId,
    },
    /// A receive from `chan` completed (the message was delivered).
    Received {
        /// The channel received from.
        chan: ChannelId,
    },
    /// The process halted.
    Halted,
}

/// One atomic action in an interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Which process acted.
    pub proc: ProcId,
    /// What it did.
    pub kind: EventKind,
}

/// A complete interleaving: the ordered list of atomic actions of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Append an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// The events in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of atomic actions taken.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no actions were taken.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The *schedule* of this trace: the sequence of process ids in the
    /// order they acted. Feeding this to
    /// [`crate::policy::FixedSchedule`] replays the identical interleaving
    /// (processes are deterministic, so the schedule determines the trace).
    pub fn schedule(&self) -> Vec<ProcId> {
        self.events.iter().map(|e| e.proc).collect()
    }

    /// Per-process counts of (computes, sends, receives) — useful for
    /// verifying that two interleavings are permutations of the same
    /// multiset of actions, the first step of the paper's proof argument.
    pub fn action_counts(&self, n_procs: usize) -> Vec<(u64, u64, u64)> {
        let mut counts = vec![(0u64, 0u64, 0u64); n_procs];
        for e in &self.events {
            let c = &mut counts[e.proc];
            match e.kind {
                EventKind::Computed { .. } => c.0 += 1,
                EventKind::Sent { .. } => c.1 += 1,
                EventKind::Received { .. } => c.2 += 1,
                EventKind::Halted => {}
            }
        }
        counts
    }

    /// The projection of the trace onto one process: its subsequence of
    /// events. Theorem 1's proof relies on every interleaving having the
    /// *same* per-process projection (determinism), differing only in how
    /// projections are merged.
    pub fn projection(&self, proc: ProcId) -> Vec<Event> {
        self.events.iter().copied().filter(|e| e.proc == proc).collect()
    }

    /// Total abstract compute units across all processes.
    pub fn total_compute_units(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                EventKind::Computed { units } => units,
                _ => 0,
            })
            .sum()
    }

    /// Total number of messages sent.
    pub fn total_sends(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Sent { .. }))
            .count() as u64
    }
}

/// A trace is the observer that keeps the interleaving's *actions*: a
/// posted receive or a blocked send is not one (the delivery and the
/// completed send that follow are), so those two events are dropped.
impl StepObserver for Trace {
    fn on_event(&mut self, ev: StepEvent) {
        let kind = match ev {
            StepEvent::Computed { units, .. } => EventKind::Computed { units },
            StepEvent::Sent { chan, .. } => EventKind::Sent { chan },
            StepEvent::Received { chan, .. } => EventKind::Received { chan },
            StepEvent::Halted { .. } => EventKind::Halted,
            StepEvent::RecvPosted { .. } | StepEvent::SendBlocked { .. } => return,
        };
        self.push(Event { proc: ev.proc(), kind });
    }
}

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

    /// Parse a profile previously dumped by [`RunMetrics::to_json`].
    ///
    /// Inverse of the writer: `from_json(&m.to_json()) == Ok(m)`. Entries
    /// must appear in id order (the writer emits them that way); the
    /// redundant totals are cross-checked against the per-channel sums so a
    /// hand-edited or truncated file is rejected rather than misread.
    pub fn from_json(input: &str) -> Result<Self, crate::json::JsonError> {
        use crate::json::{parse, JsonError, JsonValue};
        fn field(v: &JsonValue, key: &str) -> Result<u64, JsonError> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| JsonError { msg: format!("missing or non-integer '{key}'"), at: 0 })
        }
        let doc = parse(input)?;
        let bad = |msg: &str| JsonError { msg: msg.to_string(), at: 0 };

        let mut channels = Vec::new();
        for (i, c) in doc
            .get("channels")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| bad("missing 'channels' array"))?
            .iter()
            .enumerate()
        {
            if c.get("id").and_then(JsonValue::as_usize) != Some(i) {
                return Err(bad("channel ids must be dense and in order"));
            }
            let cap = c.get("capacity").ok_or_else(|| bad("missing 'capacity'"))?;
            let capacity = if cap.is_null() {
                None
            } else {
                Some(cap.as_usize().ok_or_else(|| bad("non-integer 'capacity'"))?)
            };
            channels.push(ChannelMetrics {
                writer: field(c, "writer")? as ProcId,
                reader: field(c, "reader")? as ProcId,
                capacity,
                messages: field(c, "messages")?,
                bytes: field(c, "bytes")?,
                max_queue_depth: field(c, "max_queue_depth")? as usize,
            });
        }

        let mut procs = Vec::new();
        for (i, p) in doc
            .get("procs")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| bad("missing 'procs' array"))?
            .iter()
            .enumerate()
        {
            if p.get("id").and_then(JsonValue::as_usize) != Some(i) {
                return Err(bad("proc ids must be dense and in order"));
            }
            procs.push(ProcMetrics {
                steps: field(p, "steps")?,
                compute_units: field(p, "compute_units")?,
                sends: field(p, "sends")?,
                receives: field(p, "receives")?,
                blocked_steps: field(p, "blocked_steps")?,
                blocked_nanos: field(p, "blocked_nanos")?,
            });
        }

        // Profiles dumped before the M:N scheduler have no "sched" object;
        // read them as a zeroed pool rather than rejecting the file.
        let sched = match doc.get("sched") {
            Some(s) => SchedMetrics {
                workers: field(s, "workers")? as usize,
                steals: field(s, "steals")?,
                yields: field(s, "yields")?,
                task_parks: field(s, "task_parks")?,
            },
            None => SchedMetrics::default(),
        };

        let m = RunMetrics { channels, procs, sched };
        if field(&doc, "total_messages")? != m.total_messages()
            || field(&doc, "total_bytes")? != m.total_bytes()
            || field(&doc, "max_queue_depth")? as usize != m.max_queue_depth()
        {
            return Err(bad("totals disagree with per-channel entries"));
        }
        Ok(m)
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder events: wall-clock execution tracing (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// What one flight-recorder event records. Where [`EventKind`] is the
/// *model-level* action vocabulary (untimed, backend-independent),
/// `FlightKind` is the *execution-level* one: scheduler transitions
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

    /// Inverse of [`FlightKind::label`]; `None` for unknown labels.
    pub fn from_label(s: &str) -> Option<FlightKind> {
        Some(match s {
            "run" => FlightKind::Run,
            "park" => FlightKind::Park,
            "wake" => FlightKind::Wake,
            "steal" => FlightKind::Steal,
            "yield" => FlightKind::Yield,
            "send" => FlightKind::Send,
            "recv" => FlightKind::Recv,
            "compute" => FlightKind::Compute,
            "halt" => FlightKind::Halt,
            "checkpoint" => FlightKind::Checkpoint,
            "restore" => FlightKind::Restore,
            "fault" => FlightKind::Fault,
            "migrate" => FlightKind::Migrate,
            "data-star" => FlightKind::DataStar,
            "data-direct" => FlightKind::DataDirect,
            "data-shm" => FlightKind::DataShm,
            _ => return None,
        })
    }
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

    /// Dump as JSON (hand-rolled like every other writer in the
    /// workspace). Events are compact arrays `[nanos, "kind", rank, chan,
    /// bytes]` so a 64-rank post-mortem stays small.
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

    /// Parse a dump written by [`FlightLog::to_json`]. Network-facing (the
    /// distributed TRACE frame carries this): every failure is a typed
    /// [`crate::RunError::Protocol`], never a panic — the hostile-input suite
    /// pins that.
    pub fn from_json(input: &str) -> Result<Self, crate::error::RunError> {
        use crate::json::JsonValue;
        let bad = |detail: String| crate::error::RunError::Protocol { proc: 0, detail };
        let doc = crate::json::parse(input)
            .map_err(|e| bad(format!("flight dump is not JSON: {}", e.msg)))?;
        match doc.get("version").and_then(JsonValue::as_u64) {
            Some(1) => {}
            other => return Err(bad(format!("unsupported flight-dump version {other:?}"))),
        }
        let mut lanes = Vec::new();
        for lane in doc
            .get("lanes")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| bad("flight dump missing 'lanes' array".to_string()))?
        {
            let label = match lane.get("label") {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => return Err(bad("lane missing string 'label'".to_string())),
            };
            let dropped = lane
                .get("dropped")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad(format!("lane '{label}' missing integer 'dropped'")))?;
            let mut events = Vec::new();
            for e in lane
                .get("events")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| bad(format!("lane '{label}' missing 'events' array")))?
            {
                let arr = e
                    .as_arr()
                    .filter(|a| a.len() == 5)
                    .ok_or_else(|| bad("event must be a 5-element array".to_string()))?;
                let num = |i: usize, what: &str| {
                    arr[i]
                        .as_u64()
                        .ok_or_else(|| bad(format!("event {what} must be an integer")))
                };
                let kind = match &arr[1] {
                    JsonValue::Str(s) => FlightKind::from_label(s)
                        .ok_or_else(|| bad(format!("unknown event kind '{s}'")))?,
                    _ => return Err(bad("event kind must be a string".to_string())),
                };
                let rank = num(2, "rank")?;
                let chan = num(3, "chan")?;
                if rank > u32::MAX as u64 || chan > u32::MAX as u64 {
                    return Err(bad("event rank/chan out of range".to_string()));
                }
                events.push(FlightEvent {
                    nanos: num(0, "timestamp")?,
                    kind,
                    rank: rank as u32,
                    chan: chan as u32,
                    bytes: num(4, "bytes")?,
                });
            }
            lanes.push(FlightLane { label, dropped, events });
        }
        Ok(FlightLog { lanes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(proc: ProcId, kind: EventKind) -> Event {
        Event { proc, kind }
    }

    #[test]
    fn schedule_extracts_actor_order() {
        let mut t = Trace::new();
        t.push(ev(0, EventKind::Computed { units: 1 }));
        t.push(ev(1, EventKind::Sent { chan: ChannelId(0) }));
        t.push(ev(0, EventKind::Halted));
        assert_eq!(t.schedule(), vec![0, 1, 0]);
    }

    #[test]
    fn projections_partition_the_trace() {
        let mut t = Trace::new();
        t.push(ev(0, EventKind::Computed { units: 1 }));
        t.push(ev(1, EventKind::Sent { chan: ChannelId(0) }));
        t.push(ev(0, EventKind::Received { chan: ChannelId(1) }));
        t.push(ev(1, EventKind::Halted));
        let p0 = t.projection(0);
        let p1 = t.projection(1);
        assert_eq!(p0.len() + p1.len(), t.len());
        assert!(p0.iter().all(|e| e.proc == 0));
        assert!(p1.iter().all(|e| e.proc == 1));
    }

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
    fn metrics_round_trip_through_json() {
        let mut t = Topology::new(3);
        let c0 = t.connect(0, 1);
        t.add(crate::chan::ChannelSpec::bounded(1, 2, 4));
        let mut m = RunMetrics::for_topology(&t);
        m.on_send(c0, 16, 1);
        m.on_send(c0, 24, 2);
        m.on_recv(c0);
        m.on_send(ChannelId(1), 8, 1);
        m.on_recv(ChannelId(1));
        m.procs[0].steps = 5;
        m.procs[0].compute_units = 123;
        m.procs[1].blocked_steps = 2;
        m.procs[2].blocked_nanos = 987;
        m.sched = SchedMetrics { workers: 4, steals: 9, yields: 3, task_parks: 17 };

        assert_eq!(RunMetrics::from_json(&m.to_json()), Ok(m));
    }

    #[test]
    fn from_json_accepts_pre_scheduler_profiles() {
        // A profile dumped before the M:N scheduler existed has no "sched"
        // object; it must parse with a zeroed pool, not be rejected.
        let mut t = Topology::new(2);
        let c = t.connect(0, 1);
        let mut m = RunMetrics::for_topology(&t);
        m.on_send(c, 8, 1);
        let with_sched = m.to_json();
        let legacy = with_sched.replace(
            ",\"sched\":{\"workers\":0,\"steals\":0,\"yields\":0,\"task_parks\":0}",
            "",
        );
        assert_ne!(legacy, with_sched, "the sched object was present to strip");
        assert_eq!(RunMetrics::from_json(&legacy), Ok(m));
    }

    #[test]
    fn from_json_rejects_inconsistent_profiles() {
        let mut t = Topology::new(2);
        let c = t.connect(0, 1);
        let mut m = RunMetrics::for_topology(&t);
        m.on_send(c, 16, 1);
        let good = m.to_json();

        // A tampered total must be caught, not silently accepted.
        let bad = good.replace("\"total_bytes\":16", "\"total_bytes\":17");
        assert_ne!(bad, good);
        assert!(RunMetrics::from_json(&bad).is_err());
        // Structural damage is caught too.
        assert!(RunMetrics::from_json("{\"channels\":[]}").is_err());
        assert!(RunMetrics::from_json("not json").is_err());
    }

    #[test]
    fn json_schema_is_stable() {
        // Golden check: `ssp-dist` workers put this document on the wire in
        // `GROUP_DONE` and the supervisor reads these exact key names;
        // renaming a field must fail here first.
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

    #[test]
    fn flight_log_round_trips_through_json() {
        let log = sample_flight_log();
        let json = log.to_json();
        assert_eq!(FlightLog::from_json(&json).unwrap(), log);
        // Merged view is time-sorted across lanes.
        let merged = log.merged();
        let stamps: Vec<u64> = merged.iter().map(|e| e.nanos).collect();
        assert_eq!(stamps, vec![10, 18, 25, 40]);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn flight_kind_labels_round_trip() {
        for kind in [
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
        ] {
            assert_eq!(FlightKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FlightKind::from_label("nonsense"), None);
    }

    #[test]
    fn flight_log_last_events_filter_by_rank() {
        let log = sample_flight_log();
        let last = log.last_events_for(0, 2);
        assert_eq!(last.len(), 2);
        assert!(last.iter().all(|e| e.rank == 0));
        assert_eq!(last[1].kind, FlightKind::Park);
    }

    #[test]
    fn flight_log_rejects_malformed_dumps_with_typed_errors() {
        use crate::error::RunError;
        let cases = [
            "not json".to_string(),
            "{}".to_string(),
            "{\"version\":2,\"lanes\":[]}".to_string(),
            "{\"version\":1}".to_string(),
            "{\"version\":1,\"lanes\":[{\"label\":7,\"dropped\":0,\"events\":[]}]}".to_string(),
            "{\"version\":1,\"lanes\":[{\"label\":\"w\",\"dropped\":0,\"events\":[[1,2]]}]}"
                .to_string(),
            "{\"version\":1,\"lanes\":[{\"label\":\"w\",\"dropped\":0,\
             \"events\":[[1,\"nope\",0,0,0]]}]}"
                .to_string(),
        ];
        for c in &cases {
            match FlightLog::from_json(c) {
                Err(RunError::Protocol { .. }) => {}
                other => panic!("expected Protocol error for {c:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn action_counts_tally_by_kind() {
        let mut t = Trace::new();
        t.push(ev(0, EventKind::Computed { units: 5 }));
        t.push(ev(0, EventKind::Sent { chan: ChannelId(0) }));
        t.push(ev(0, EventKind::Sent { chan: ChannelId(0) }));
        t.push(ev(1, EventKind::Received { chan: ChannelId(0) }));
        let counts = t.action_counts(2);
        assert_eq!(counts[0], (1, 2, 0));
        assert_eq!(counts[1], (0, 0, 1));
        assert_eq!(t.total_compute_units(), 5);
        assert_eq!(t.total_sends(), 2);
    }
}
