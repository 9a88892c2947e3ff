//! Deterministic fault injection: process crashes and channel stalls.
//!
//! A [`FaultPlan`] is a *schedule-independent* description of the faults a
//! run must suffer. Crashes are keyed to a process's **own** step count
//! ("kill process `p` when it is about to take its `k`-th atomic step"),
//! not to a global step index: in the paper's model (§3.1–3.2) each
//! process's action sequence is the same under every maximal interleaving,
//! so a proc-local trigger fires at the same point of the same action
//! sequence under every [`crate::policy::SchedulePolicy`]. That is what
//! makes chaos runs replayable. On the threaded backend the counter is the
//! process's resume count, which coincides with the simulator's per-process
//! step count exactly when no send ever blocks (the paper's infinite-slack
//! model); on bounded channels the simulator counts a blocked send's later
//! completion as one extra step.
//!
//! Channel stalls delay message *delivery* without dropping or reordering
//! anything. By Theorem 1 a stall can never change the final state — it
//! merely forces a different (equally maximal) interleaving — so stalls are
//! the "harmless" fault used to shake out schedule dependence, while
//! crashes are the "hard" fault the [`crate::recover`] supervisor exists
//! for.
//!
//! The plan lives *outside* the simulator state on purpose: when the
//! supervisor restores a checkpoint, the record of which crashes have
//! already fired must survive the rollback (else the same crash re-fires on
//! every re-run and recovery livelocks). See
//! [`crate::recover::run_recovering`].

use std::collections::BTreeMap;
use std::time::Duration;

use crate::chan::ChannelId;
use crate::proc::ProcId;

/// Kill one process deterministically: the crash fires when `proc` is about
/// to take its `at_step`-th own atomic step (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The process to kill.
    pub proc: ProcId,
    /// The process-local step count (1-based) at which to kill it.
    pub at_step: u64,
}

/// Delay deliveries on one channel: the `(after_receives + 1)`-th receive
/// on `chan` is withheld.
///
/// On the simulated backend the delivery is withheld for `ticks` global
/// scheduler steps (counted from the reference point of the previous
/// delivery on that channel); on the threaded backend the reader sleeps
/// `ticks` milliseconds before completing that receive. Either way the
/// message is delayed, never lost: Theorem 1 guarantees the final state is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The channel whose delivery is delayed.
    pub chan: ChannelId,
    /// How many receives on `chan` complete normally before the stall
    /// applies to the next one (0 = stall the first delivery).
    pub after_receives: u64,
    /// Stall duration: global steps (simulated) or milliseconds (threaded).
    pub ticks: u64,
}

/// A deterministic set of faults to inject into a run.
///
/// Build with the [`FaultPlan::crash`] / [`FaultPlan::stall`] builders,
/// then hand the plan to [`crate::threaded::run_threaded_faulted`] or the
/// recovery supervisor [`crate::recover::run_recovering`] (with
/// `max_restarts: 0` for injection alone). The plan also carries the run-position
/// bookkeeping (global tick count, per-channel delivery counts) that stall
/// triggers are evaluated against, which is why the stepping APIs take it
/// `&mut`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<Crash>,
    stalls: Vec<Stall>,
    /// Global atomic steps executed so far (simulated backend only).
    ticks: u64,
    /// Per channel: (deliveries completed, tick of the latest delivery).
    recvs: BTreeMap<usize, (u64, u64)>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a crash killing `proc` at its `at_step`-th own step (builder).
    pub fn crash(mut self, proc: ProcId, at_step: u64) -> Self {
        self.crashes.push(Crash { proc, at_step });
        self
    }

    /// Add a delivery stall on `chan` (builder); see [`Stall`].
    pub fn stall(mut self, chan: ChannelId, after_receives: u64, ticks: u64) -> Self {
        self.stalls.push(Stall { chan, after_receives, ticks });
        self
    }

    /// True if the plan holds no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stalls.is_empty()
    }

    /// The crashes still pending.
    pub fn crashes(&self) -> &[Crash] {
        &self.crashes
    }

    /// The stalls in the plan.
    pub fn stalls(&self) -> &[Stall] {
        &self.stalls
    }

    /// Does a crash fire for `proc` taking its `local_step`-th step?
    pub fn crash_at(&self, proc: ProcId, local_step: u64) -> bool {
        self.crashes.iter().any(|c| c.proc == proc && c.at_step == local_step)
    }

    /// [`FaultPlan::crash_at`], consuming the fired crash so it cannot fire
    /// again (one-shot semantics). Returns the crash that fired, if any.
    pub fn take_crash(&mut self, proc: ProcId, local_step: u64) -> Option<Crash> {
        let i = self.crashes.iter().position(|c| c.proc == proc && c.at_step == local_step)?;
        Some(self.crashes.remove(i))
    }

    /// Remove a specific crash (used by the supervisor to re-apply fired
    /// crashes to a plan restored from a checkpoint).
    pub fn remove_crash(&mut self, crash: Crash) {
        self.crashes.retain(|c| *c != crash);
    }

    /// Advance the global step counter (simulated backend; called once per
    /// atomic step by the simulator's pick loop).
    pub fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Record a completed delivery on `chan` (simulated backend).
    pub fn note_recv(&mut self, chan: ChannelId) {
        let e = self.recvs.entry(chan.0).or_insert((0, 0));
        e.0 += 1;
        e.1 = self.ticks;
    }

    /// Is the next delivery on `chan` currently withheld by a stall?
    ///
    /// A stall withholds the `(after_receives + 1)`-th delivery until
    /// `ticks` global steps have elapsed since the `after_receives`-th one
    /// (or since the start of the run, for the first delivery).
    pub fn delivery_withheld(&self, chan: ChannelId) -> bool {
        let (done, last_tick) = self.recvs.get(&chan.0).copied().unwrap_or((0, 0));
        self.stalls.iter().any(|s| {
            s.chan == chan && s.after_receives == done && self.ticks < last_tick + s.ticks
        })
    }

    /// The sleep the threaded backend applies before completing the
    /// `receives_so_far`-th (0-based) receive on `chan`, if a stall matches.
    pub fn stall_sleep(&self, chan: ChannelId, receives_so_far: u64) -> Option<Duration> {
        self.stalls
            .iter()
            .find(|s| s.chan == chan && s.after_receives == receives_so_far)
            .map(|s| Duration::from_millis(s.ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashes_are_one_shot() {
        let mut plan = FaultPlan::none().crash(2, 5).crash(1, 3);
        assert!(plan.crash_at(2, 5));
        assert!(!plan.crash_at(2, 4));
        let fired = plan.take_crash(2, 5).unwrap();
        assert_eq!(fired, Crash { proc: 2, at_step: 5 });
        assert!(!plan.crash_at(2, 5), "fired crashes are consumed");
        assert!(plan.crash_at(1, 3), "other crashes survive");
        plan.remove_crash(Crash { proc: 1, at_step: 3 });
        assert!(plan.is_empty() || plan.crashes().is_empty());
    }

    #[test]
    fn stalls_withhold_then_release_by_tick_count() {
        let c = ChannelId(0);
        let mut plan = FaultPlan::none().stall(c, 0, 3);
        // First delivery withheld until 3 ticks elapse.
        assert!(plan.delivery_withheld(c));
        plan.tick();
        plan.tick();
        assert!(plan.delivery_withheld(c));
        plan.tick();
        assert!(!plan.delivery_withheld(c), "stall expires after its ticks");
        plan.note_recv(c);
        // Only the configured ordinal is stalled.
        assert!(!plan.delivery_withheld(c));
    }

    #[test]
    fn threaded_mapping_returns_millis_for_matching_ordinal() {
        let c = ChannelId(4);
        let plan = FaultPlan::none().stall(c, 2, 50);
        assert_eq!(plan.stall_sleep(c, 2), Some(Duration::from_millis(50)));
        assert_eq!(plan.stall_sleep(c, 1), None);
        assert_eq!(plan.stall_sleep(ChannelId(5), 2), None);
    }
}
