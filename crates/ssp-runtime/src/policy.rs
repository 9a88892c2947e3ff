//! Scheduling policies: how the simulator picks the next process to step.
//!
//! Theorem 1 claims final-state equivalence over *all* maximal interleavings,
//! so the more adversarially diverse the policies, the stronger the
//! empirical check. Every policy here picks from the set of currently
//! *runnable* processes (non-halted, not blocked on an empty channel), which
//! is exactly what makes the resulting interleaving maximal when the run
//! terminates: a maximal interleaving is one that cannot be extended.

use crate::proc::ProcId;
use crate::rng::SplitMix64;

/// Chooses the next process to step from the runnable set.
///
/// `runnable` is always non-empty and sorted ascending. Implementations must
/// return one of its elements.
pub trait SchedulePolicy {
    /// Pick the next process to step.
    fn pick(&mut self, runnable: &[ProcId]) -> ProcId;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Cycles fairly through process ids; the canonical "fair interleaving".
/// This is also the order in which the *sequential simulated-parallel*
/// program executes its per-process blocks, so a round-robin simulated run
/// is the closest executable analogue of the paper's Figure 1 right-hand
/// side.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: ProcId,
}

impl RoundRobin {
    /// A round-robin policy starting at process 0.
    pub fn new() -> Self {
        RoundRobin { next: 0 }
    }
}

impl SchedulePolicy for RoundRobin {
    fn pick(&mut self, runnable: &[ProcId]) -> ProcId {
        // First runnable id >= self.next, else wrap to the smallest.
        let chosen = runnable
            .iter()
            .copied()
            .find(|&p| p >= self.next)
            .unwrap_or(runnable[0]);
        self.next = chosen + 1;
        chosen
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Picks uniformly at random among runnable processes, reproducibly from a
/// seed. Distinct seeds explore distinct interleavings.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// A random policy with the given seed.
    pub fn seeded(seed: u64) -> Self {
        RandomPolicy { rng: SplitMix64::seed_from_u64(seed) }
    }
}

impl SchedulePolicy for RandomPolicy {
    fn pick(&mut self, runnable: &[ProcId]) -> ProcId {
        runnable[self.rng.gen_range(runnable.len())]
    }

    fn name(&self) -> &'static str {
        "seeded-random"
    }
}

/// Adversarial strategies designed to produce extreme interleavings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Always run the lowest-id runnable process: one process races far
    /// ahead, flooding its outgoing channels before anyone reads them (the
    /// interleaving that maximizes queue occupancy — only admissible because
    /// slack is infinite).
    LowestFirst,
    /// Always run the highest-id runnable process.
    HighestFirst,
    /// Starve the given process: run it only when it is the sole runnable
    /// process. The starved process's receives are delayed as long as the
    /// model allows.
    Starve(ProcId),
    /// Alternate between extremes: odd steps pick the lowest runnable, even
    /// steps the highest.
    PingPong,
}

/// A policy wrapping an [`Adversary`] strategy.
#[derive(Debug)]
pub struct AdversarialPolicy {
    strategy: Adversary,
    step: u64,
}

impl AdversarialPolicy {
    /// Wrap a strategy.
    pub fn new(strategy: Adversary) -> Self {
        AdversarialPolicy { strategy, step: 0 }
    }
}

impl SchedulePolicy for AdversarialPolicy {
    fn pick(&mut self, runnable: &[ProcId]) -> ProcId {
        self.step += 1;
        match self.strategy {
            Adversary::LowestFirst => runnable[0],
            Adversary::HighestFirst => *runnable.last().unwrap(),
            Adversary::Starve(victim) => runnable
                .iter()
                .copied()
                .find(|&p| p != victim)
                .unwrap_or(victim),
            Adversary::PingPong => {
                if self.step % 2 == 1 {
                    runnable[0]
                } else {
                    *runnable.last().unwrap()
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.strategy {
            Adversary::LowestFirst => "adversary:lowest-first",
            Adversary::HighestFirst => "adversary:highest-first",
            Adversary::Starve(_) => "adversary:starve",
            Adversary::PingPong => "adversary:ping-pong",
        }
    }
}

/// Replays a prerecorded schedule (e.g. a run's
/// [`crate::sim::RunOutcome::picks`]), enabling exact re-execution of an
/// interleaving and the swap-two-adjacent-
/// actions experiments of the permutation proof. When the script runs out or
/// names a non-runnable process, falls back to the first runnable process
/// (so perturbed schedules still yield *some* maximal interleaving).
#[derive(Debug)]
pub struct FixedSchedule {
    script: Vec<ProcId>,
    pos: usize,
    /// Number of picks that could not follow the script.
    pub deviations: u64,
}

impl FixedSchedule {
    /// Replay `script`.
    pub fn new(script: Vec<ProcId>) -> Self {
        FixedSchedule { script, pos: 0, deviations: 0 }
    }
}

impl SchedulePolicy for FixedSchedule {
    fn pick(&mut self, runnable: &[ProcId]) -> ProcId {
        if self.pos < self.script.len() {
            let want = self.script[self.pos];
            self.pos += 1;
            if runnable.contains(&want) {
                return want;
            }
        }
        self.deviations += 1;
        runnable[0]
    }

    fn name(&self) -> &'static str {
        "fixed-schedule"
    }
}

/// The standard battery of policies used by tests and the `theorem1` bench:
/// round-robin, both adversarial extremes, ping-pong, per-process starvation,
/// and `n_random` seeded-random policies.
pub fn standard_battery(n_procs: usize, n_random: usize) -> Vec<Box<dyn SchedulePolicy>> {
    let mut v: Vec<Box<dyn SchedulePolicy>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(AdversarialPolicy::new(Adversary::LowestFirst)),
        Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
        Box::new(AdversarialPolicy::new(Adversary::PingPong)),
    ];
    for p in 0..n_procs {
        v.push(Box::new(AdversarialPolicy::new(Adversary::Starve(p))));
    }
    for seed in 0..n_random as u64 {
        v.push(Box::new(RandomPolicy::seeded(0x5eed_0000 + seed)));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let runnable = vec![0, 1, 2];
        assert_eq!(rr.pick(&runnable), 0);
        assert_eq!(rr.pick(&runnable), 1);
        assert_eq!(rr.pick(&runnable), 2);
        assert_eq!(rr.pick(&runnable), 0);
    }

    #[test]
    fn round_robin_skips_blocked() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&[0, 2]), 0);
        // Process 1 blocked: next >= 1 finds 2.
        assert_eq!(rr.pick(&[0, 2]), 2);
        assert_eq!(rr.pick(&[0, 2]), 0);
    }

    #[test]
    fn random_policy_is_reproducible() {
        let runnable = vec![0, 1, 2, 3, 4];
        let picks = |seed| {
            let mut p = RandomPolicy::seeded(seed);
            (0..32).map(|_| p.pick(&runnable)).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds should diverge");
    }

    #[test]
    fn starvation_avoids_victim_when_possible() {
        let mut p = AdversarialPolicy::new(Adversary::Starve(1));
        assert_eq!(p.pick(&[0, 1, 2]), 0);
        assert_eq!(p.pick(&[1, 2]), 2);
        // Victim is the only runnable process: must be picked (fairness).
        assert_eq!(p.pick(&[1]), 1);
    }

    #[test]
    fn ping_pong_alternates_extremes() {
        let mut p = AdversarialPolicy::new(Adversary::PingPong);
        assert_eq!(p.pick(&[0, 1, 2]), 0);
        assert_eq!(p.pick(&[0, 1, 2]), 2);
        assert_eq!(p.pick(&[0, 1, 2]), 0);
    }

    #[test]
    fn fixed_schedule_replays_and_counts_deviations() {
        let mut p = FixedSchedule::new(vec![2, 0, 1]);
        assert_eq!(p.pick(&[0, 1, 2]), 2);
        assert_eq!(p.pick(&[0, 1]), 0);
        // Script says 1 but 1 is not runnable: deviate to first runnable.
        assert_eq!(p.pick(&[0]), 0);
        assert_eq!(p.deviations, 1);
        // Script exhausted: deviate again.
        assert_eq!(p.pick(&[3]), 3);
        assert_eq!(p.deviations, 2);
    }

    #[test]
    fn standard_battery_size() {
        let battery = standard_battery(3, 5);
        assert_eq!(battery.len(), 4 + 3 + 5);
    }
}
