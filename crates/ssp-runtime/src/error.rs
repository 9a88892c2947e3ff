//! Errors raised by the runners.

use crate::chan::ChannelId;
use crate::proc::ProcId;
use crate::waitgraph::WaitFor;

/// Failure modes of a simulated or threaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A process referenced a channel id not in the topology.
    UnknownChannel {
        /// The unknown channel.
        chan: ChannelId,
        /// The offending process.
        proc: ProcId,
    },
    /// A process tried to send on a channel it is not the writer of.
    NotWriter {
        /// The channel.
        chan: ChannelId,
        /// The offending process.
        proc: ProcId,
        /// The channel's sole writer.
        writer: ProcId,
    },
    /// A process tried to receive from a channel it is not the reader of.
    NotReader {
        /// The channel.
        chan: ChannelId,
        /// The offending process.
        proc: ProcId,
        /// The channel's sole reader.
        reader: ProcId,
    },
    /// No process can take a step but not all have halted. `blocked` lists
    /// every process stuck on a receive (or, for bounded channels, a send)
    /// with the channel it waits on and the peer that could unblock it;
    /// `cycle` names one wait-for cycle among them, or is empty when the
    /// deadlock is acyclic (a wait on an already-halted peer).
    Deadlock {
        /// Every blocked process, its channel, side, and peer.
        blocked: Vec<WaitFor>,
        /// One wait-for cycle (`cycle[i].on == cycle[(i+1) % len].proc`),
        /// empty if the wait-for graph is acyclic.
        cycle: Vec<WaitFor>,
    },
    /// A process received a message that violates the communication
    /// protocol its driver established (e.g. a mesh worker expecting a halo
    /// got a scatter block). Replaces what was previously a panic inside
    /// the process body.
    Protocol {
        /// The process that observed the violation.
        proc: ProcId,
        /// Human-readable description of what was expected vs received.
        detail: String,
    },
    /// The step limit given to the simulator was exhausted before all
    /// processes halted — the interleaving was not maximal.
    StepLimit {
        /// The limit that was exhausted.
        limit: u64,
    },
    /// A thread panicked in the threaded runner.
    ThreadPanic {
        /// The process whose thread panicked.
        proc: ProcId,
    },
    /// An injected crash ([`crate::fault::Crashing`]) killed the process at
    /// its `step`-th own `resume`, the same one on every backend. This is
    /// the *expected* error of a chaos run; the recovery supervisor
    /// ([`crate::recover`]) catches it, restores the latest checkpoint, and
    /// re-runs.
    Injected {
        /// The process that was killed.
        proc: ProcId,
        /// The process-local resume count (1-based) the crash fired at.
        step: u64,
    },
    /// A distributed worker process died (its socket's EOF, or a failed write)
    /// and the supervisor could not — or was configured not to — migrate
    /// its ranks to another worker.
    WorkerLost {
        /// The supervisor-assigned index of the lost worker.
        worker: usize,
        /// Why migration was not possible (budget exhausted, spawn failed…).
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownChannel { chan, proc } => {
                write!(f, "process {proc} referenced unknown channel {chan}")
            }
            RunError::NotWriter { chan, proc, writer } => write!(
                f,
                "process {proc} sent on {chan}, whose sole writer is {writer}"
            ),
            RunError::NotReader { chan, proc, reader } => write!(
                f,
                "process {proc} received from {chan}, whose sole reader is {reader}"
            ),
            RunError::Deadlock { blocked, cycle } => {
                write!(f, "deadlock; blocked: ")?;
                for (i, w) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                if !cycle.is_empty() {
                    write!(f, "; wait-for cycle: ")?;
                    for (i, w) in cycle.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{w}")?;
                    }
                }
                Ok(())
            }
            RunError::Protocol { proc, detail } => {
                write!(f, "protocol violation in process {proc}: {detail}")
            }
            RunError::StepLimit { limit } => {
                write!(f, "step limit {limit} exhausted before termination")
            }
            RunError::ThreadPanic { proc } => {
                write!(f, "process {proc} panicked in the threaded runner")
            }
            RunError::Injected { proc, step } => {
                write!(f, "injected crash killed process {proc} at its step {step}")
            }
            RunError::WorkerLost { worker, detail } => {
                write!(f, "distributed worker {worker} lost: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offenders() {
        use crate::waitgraph::BlockKind;

        let e = RunError::NotWriter { chan: ChannelId(3), proc: 1, writer: 0 };
        let s = e.to_string();
        assert!(s.contains("ch3") && s.contains("process 1") && s.contains('0'));

        let w0 = WaitFor { proc: 0, chan: ChannelId(1), kind: BlockKind::Recv, on: 2 };
        let w2 = WaitFor { proc: 2, chan: ChannelId(4), kind: BlockKind::Send, on: 0 };
        let e = RunError::Deadlock { blocked: vec![w0, w2], cycle: vec![w0, w2] };
        let s = e.to_string();
        assert!(s.contains("process 0 -recv ch1-> process 2"), "got: {s}");
        assert!(s.contains("process 2 -send ch4-> process 0"), "got: {s}");
        assert!(s.contains("wait-for cycle"), "got: {s}");

        let e = RunError::Deadlock { blocked: vec![w0], cycle: vec![] };
        assert!(!e.to_string().contains("cycle"), "acyclic deadlocks omit the cycle clause");

        let e = RunError::Protocol { proc: 3, detail: "expected Halo, got Block".into() };
        let s = e.to_string();
        assert!(s.contains("process 3") && s.contains("expected Halo"));

        let e = RunError::Injected { proc: 2, step: 40 };
        let s = e.to_string();
        assert!(s.contains("process 2") && s.contains("40"), "got: {s}");
    }
}
