//! Step observation: a hook exposing every atomic simulator action.
//!
//! The simulator's stepping is the single source of truth for *what* a
//! program does; observers let other backends attach *interpretations*
//! without forking that logic. The `perf-sim` crate's discrete-event engine
//! is the canonical client: it watches a [`crate::sim::Simulator::run_observed`]
//! run and charges each event its virtual-clock cost from a machine model,
//! guaranteeing (by construction) that the timed execution performs exactly
//! the actions of the untimed one.
//!
//! The stepper reports to exactly one observer. Besides the actions of the
//! interleaving, the stream reports a posted receive and a blocked send,
//! because a cost model needs to know when waiting started.
//! Together with a run's picks it is the whole record of the run.

use crate::chan::ChannelId;
use crate::proc::ProcId;

/// One atomic simulator action, as reported to a [`StepObserver`].
///
/// A single scheduler step can report up to two events: delivering a
/// message emits [`StepEvent::Received`] followed by the resumed process's
/// next effect (a compute, send, posted receive, or halt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A local computation of `units` abstract work units completed.
    Computed {
        /// The acting process.
        proc: ProcId,
        /// Process-reported cost in abstract work units.
        units: u64,
    },
    /// A message of `bytes` payload bytes was enqueued on `chan`.
    Sent {
        /// The sending process.
        proc: ProcId,
        /// The channel sent on.
        chan: ChannelId,
        /// Payload size per [`crate::proc::Process::msg_size_bytes`].
        bytes: u64,
    },
    /// The process posted a receive on `chan` and will block until the
    /// head message is delivered (which is a later, separate step).
    RecvPosted {
        /// The receiving process.
        proc: ProcId,
        /// The channel receives are posted on.
        chan: ChannelId,
    },
    /// The head message of `chan` was delivered to its reader.
    Received {
        /// The receiving process.
        proc: ProcId,
        /// The channel received from.
        chan: ChannelId,
    },
    /// A send hit a full bounded channel: the process now holds a message
    /// of `bytes` bytes and blocks until the reader makes space. The
    /// eventual completion is reported as a normal [`StepEvent::Sent`].
    SendBlocked {
        /// The blocked sender.
        proc: ProcId,
        /// The full channel.
        chan: ChannelId,
        /// Payload size of the held message.
        bytes: u64,
    },
    /// The process halted.
    Halted {
        /// The halting process.
        proc: ProcId,
    },
}

impl StepEvent {
    /// The process this event belongs to.
    pub fn proc(&self) -> ProcId {
        match *self {
            StepEvent::Computed { proc, .. }
            | StepEvent::Sent { proc, .. }
            | StepEvent::RecvPosted { proc, .. }
            | StepEvent::Received { proc, .. }
            | StepEvent::SendBlocked { proc, .. }
            | StepEvent::Halted { proc } => proc,
        }
    }
}

/// Receives every [`StepEvent`] of an observed simulated run, in execution
/// order. Observation is passive: observers cannot alter the run.
pub trait StepObserver {
    /// Called once per event, immediately after the simulator applied it.
    fn on_event(&mut self, ev: StepEvent);
}

/// The do-nothing observer used by the unobserved entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl StepObserver for NoopObserver {
    fn on_event(&mut self, _ev: StepEvent) {}
}

/// An observer that records every event — handy in tests and for replay
/// tooling.
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    /// The events observed so far, in order.
    pub events: Vec<StepEvent>,
}

impl StepObserver for RecordingObserver {
    fn on_event(&mut self, ev: StepEvent) {
        self.events.push(ev);
    }
}
