//! Deterministic crash injection: a process wrapper.
//!
//! A crash is keyed to a process's **own** action sequence ("kill process
//! `p` at its `k`-th `resume`"), not to a global step index or to how a
//! runner counts steps: in the paper's model (§3.1–3.2) each process's
//! action sequence is the same under every maximal interleaving, so a
//! trigger on it fires at the same point of the same action sequence under
//! every [`crate::policy::SchedulePolicy`], at every slack, and on every
//! backend. That makes a crash a property of the process, so it lives in
//! one: [`Crashing`] counts its own `resume` calls and, at the named one,
//! returns [`Effect::Fault`] with [`RunError::Injected`] instead of calling
//! the process it wraps. Every other [`Process`] method delegates, so a
//! wrapped run is bitwise comparable with an unwrapped one and runs
//! unchanged on the simulator, the discrete-event engine and the pool.
//!
//! A crash fires once. Its fired flag is shared by every clone of the
//! wrapper, so when the [`crate::recover`] supervisor restores a checkpoint
//! (a clone taken before the crash, its resume count rewound) the same
//! crash does not fire again, and recovery cannot livelock on it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::RunError;
use crate::proc::{Effect, ProcId, Process};

/// Kill one process deterministically: the crash fires at the `at_step`-th
/// (1-based) `resume` of `proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The process to kill.
    pub proc: ProcId,
    /// The process-local resume count (1-based) at which to kill it.
    pub at_step: u64,
}

/// A process that crashes where its [`Crash`] says, and otherwise is the
/// process it wraps. Build a collection with [`crashing`].
#[derive(Clone)]
pub struct Crashing<P> {
    inner: P,
    crash: Option<Crash>,
    resumes: u64,
    /// Set when the crash fires; shared by every clone of this wrapper.
    fired: Arc<AtomicBool>,
}

/// Wrap every process of `procs` (process `i` is `procs[i]`), crashing the
/// ones `crashes` name. At most one crash per process.
pub fn crashing<P: Process>(procs: Vec<P>, crashes: &[Crash]) -> Vec<Crashing<P>> {
    procs
        .into_iter()
        .enumerate()
        .map(|(p, inner)| {
            let mut mine = crashes.iter().filter(|c| c.proc == p);
            let crash = mine.next().copied();
            assert!(mine.next().is_none(), "at most one crash per process (process {p})");
            Crashing { inner, crash, resumes: 0, fired: Arc::new(AtomicBool::new(false)) }
        })
        .collect()
}

impl<P: Process> Process for Crashing<P> {
    type Msg = P::Msg;

    fn resume(&mut self, delivery: Option<P::Msg>) -> Effect<P::Msg> {
        self.resumes += 1;
        if let Some(Crash { proc, at_step }) = self.crash {
            if at_step == self.resumes && !self.fired.swap(true, Ordering::SeqCst) {
                return Effect::Fault { error: RunError::Injected { proc, step: at_step } };
            }
        }
        self.inner.resume(delivery)
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn rank_snapshots(&self) -> Vec<Vec<u8>> {
        self.inner.rank_snapshots()
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn msg_size_bytes(msg: &P::Msg) -> u64 {
        P::msg_size_bytes(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Computes forever, counting its resumes.
    #[derive(Clone)]
    struct Counter(u64);

    impl Process for Counter {
        type Msg = ();
        fn resume(&mut self, _: Option<()>) -> Effect<()> {
            self.0 += 1;
            Effect::Compute { units: 1 }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }
    }

    #[test]
    fn crashes_are_one_shot() {
        let mut procs = crashing(vec![Counter(0), Counter(0)], &[Crash { proc: 1, at_step: 3 }]);
        let checkpoint = procs[1].clone();
        for _ in 0..5 {
            assert_eq!(procs[0].resume(None), Effect::Compute { units: 1 }, "no crash named");
        }
        assert_eq!(procs[1].resume(None), Effect::Compute { units: 1 });
        assert_eq!(procs[1].resume(None), Effect::Compute { units: 1 });
        let fault = Effect::Fault { error: RunError::Injected { proc: 1, step: 3 } };
        assert_eq!(procs[1].resume(None), fault);
        assert_eq!(procs[1].snapshot(), 2u64.to_le_bytes(), "the crash skips the inner process");

        // A clone taken before the crash rewinds the count, not the flag.
        let mut restored = checkpoint;
        for _ in 0..4 {
            assert_eq!(restored.resume(None), Effect::Compute { units: 1 });
        }
        assert_eq!(restored.snapshot(), 4u64.to_le_bytes());
    }
}
