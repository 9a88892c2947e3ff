//! Pricing checkpoint/recovery overhead on a machine model.
//!
//! The crash-recovery supervisor ([`ssp_runtime::recover`]) reports *what*
//! happened — checkpoints taken, restarts, steps re-executed — but not what
//! it costs in time. This module combines those counts with a clean
//! [`DesOutcome`] prediction of the same program to answer the operational
//! question: *what does surviving a crash cost on this machine?*
//!
//! The model is deliberately simple and conservative:
//!
//! * a checkpoint costs a fixed `t_checkpoint` (snapshot all process states
//!   plus in-flight channel contents — on real systems dominated by the
//!   serialize-and-flush, which is size-dependent; callers can fold the
//!   size into the constant);
//! * a restore costs a fixed `t_restore`;
//! * re-executed steps are priced at the clean run's *average* step
//!   duration, `makespan / steps` — exact for uniform steps, a fair
//!   estimate otherwise, and by Theorem 1 the re-executed steps perform
//!   the same actions as their first execution.

use ssp_runtime::RecoveryStats;

use crate::engine::DesOutcome;

/// Per-event costs (virtual seconds) of the fault-tolerance machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCosts {
    /// Cost of taking one checkpoint.
    pub t_checkpoint: f64,
    /// Cost of restoring from a checkpoint after a crash.
    pub t_restore: f64,
}

impl Default for RecoveryCosts {
    /// Defaults in the spirit of the paper's 1998-era machine constants:
    /// a checkpoint ~ a large message flush (5 ms), a restore ~ a process
    /// respawn plus the flush back (50 ms).
    fn default() -> Self {
        RecoveryCosts { t_checkpoint: 5e-3, t_restore: 50e-3 }
    }
}

/// The predicted time cost of a recovered run, decomposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOverhead {
    /// Predicted makespan of the clean (uninjected) run.
    pub clean_makespan: f64,
    /// Time spent taking checkpoints (`checkpoints_taken × t_checkpoint`).
    pub checkpoint_time: f64,
    /// Time spent restoring state (`restarts × t_restore`).
    pub restore_time: f64,
    /// Time spent re-executing rolled-back steps, priced at the clean
    /// run's mean step duration.
    pub reexec_time: f64,
}

impl RecoveryOverhead {
    /// Total predicted wall time of the recovered run.
    pub fn total(&self) -> f64 {
        self.clean_makespan + self.checkpoint_time + self.restore_time + self.reexec_time
    }

    /// Overhead relative to the clean run (0.0 = free recovery).
    pub fn relative(&self) -> f64 {
        if self.clean_makespan > 0.0 {
            self.total() / self.clean_makespan - 1.0
        } else {
            0.0
        }
    }
}

/// Price the recovery accounting of `stats` against the clean prediction
/// `clean` of the same program on the same machine.
pub fn price_recovery(
    clean: &DesOutcome,
    stats: &RecoveryStats,
    costs: &RecoveryCosts,
) -> RecoveryOverhead {
    let mean_step = if clean.steps > 0 { clean.makespan / clean.steps as f64 } else { 0.0 };
    RecoveryOverhead {
        clean_makespan: clean.makespan,
        checkpoint_time: stats.checkpoints_taken as f64 * costs.t_checkpoint,
        restore_time: stats.restarts as f64 * costs.t_restore,
        reexec_time: stats.steps_reexecuted as f64 * mean_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::MachineModel;
    use ssp_runtime::{run_recovering, FaultPlan, RecoveryConfig, RoundRobin};
    use ssp_runtime::{ChannelId, Effect, Process, Topology};

    #[derive(Clone)]
    struct Pulse {
        out: Option<ChannelId>,
        inp: Option<ChannelId>,
        remaining: u64,
        acc: u64,
    }

    impl Process for Pulse {
        type Msg = u64;
        fn resume(&mut self, d: Option<u64>) -> Effect<u64> {
            if let Some(v) = d {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(v);
            }
            if self.remaining == 0 {
                return Effect::Halt;
            }
            self.remaining -= 1;
            match (self.out, self.inp) {
                (Some(c), _) if self.remaining % 2 == 1 => {
                    Effect::Send { chan: c, msg: self.acc }
                }
                (_, Some(c)) if self.remaining.is_multiple_of(2) => Effect::Recv { chan: c },
                _ => Effect::Compute { units: 3 },
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.acc.to_le_bytes().to_vec()
        }
    }

    fn pulse_pair(k: u64) -> (Topology, Vec<Pulse>) {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            Pulse { out: Some(c), inp: None, remaining: 2 * k, acc: 1 },
            Pulse { out: None, inp: Some(c), remaining: 2 * k, acc: 2 },
        ];
        (topo, procs)
    }

    #[test]
    fn hand_computed_overhead_decomposition() {
        let clean = DesOutcome {
            snapshots: Vec::new(),
            makespan: 10.0,
            timelines: Vec::new(),
            critical: crate::critical::CriticalPath::default(),
            metrics: Default::default(),
            steps: 100,
        };
        let stats = RecoveryStats {
            restarts: 2,
            checkpoints_taken: 5,
            steps_reexecuted: 30,
            faults_fired: Vec::new(),
        };
        let costs = RecoveryCosts { t_checkpoint: 0.1, t_restore: 1.0 };
        let o = price_recovery(&clean, &stats, &costs);
        assert_eq!(o.clean_makespan, 10.0);
        assert_eq!(o.checkpoint_time, 0.5, "5 checkpoints at 0.1");
        assert_eq!(o.restore_time, 2.0, "2 restores at 1.0");
        // 30 steps at 10.0/100 each.
        assert!((o.reexec_time - 3.0).abs() < 1e-12);
        assert!((o.total() - 15.5).abs() < 1e-12);
        assert!((o.relative() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_pricing_of_a_recovered_run() {
        let model = MachineModel::custom("test", 0.001, 0.5, 0.01).with_overheads(0.25, 0.25);
        let (topo, procs) = pulse_pair(6);
        let clean = crate::engine::run_des_default(topo, procs, &model).unwrap();

        let (topo, procs) = pulse_pair(6);
        let out = run_recovering(
            topo,
            procs,
            FaultPlan::none().crash(0, 5),
            &mut RoundRobin::new(),
            RecoveryConfig::every(4),
        )
        .unwrap();
        assert_eq!(out.snapshots, clean.snapshots, "Theorem 1 across backends");

        let o = price_recovery(&clean, &out.stats, &RecoveryCosts::default());
        assert!(o.total() > o.clean_makespan, "a crash is never free");
        assert!(o.restore_time > 0.0);
        assert!(o.relative() > 0.0);
    }
}
