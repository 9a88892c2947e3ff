//! Scaling prediction: run one program shape at several process counts and
//! read off the predicted curve.
//!
//! This is the driver behind the paper's Figure 2 methodology, inverted:
//! instead of measuring real executions at each machine size, we *price*
//! the same executions on a [`MachineModel`] and predict where the measured
//! curve will bend. Each point carries the critical path's cost breakdown,
//! so a flattening curve comes with its explanation (latency-bound,
//! bandwidth-bound, or back-pressured).

use machine_model::MachineModel;
use ssp_runtime::{Process, RoundRobin, RunError, Topology};

use crate::critical::CostBreakdown;
use crate::engine::run_des;

/// One point of a predicted scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedPoint {
    /// Process (rank) count this point was simulated at.
    pub nprocs: usize,
    /// Predicted wall time (the DES makespan), virtual seconds.
    pub time: f64,
    /// Critical-path attribution of that time.
    pub breakdown: CostBreakdown,
}

impl PredictedPoint {
    /// Speedup against a one-processor time `t1`.
    pub fn speedup_vs(&self, t1: f64) -> f64 {
        t1 / self.time
    }
}

/// Predict the scaling curve of a program family under `model`.
///
/// `build(n)` must return the `n`-process instance of the *same* program
/// (same global problem); each instance is run once under the virtual
/// clock. Points come back in the order of `nprocs_list`.
pub fn predict_speedup<P, F>(
    model: &MachineModel,
    nprocs_list: &[usize],
    mut build: F,
) -> Result<Vec<PredictedPoint>, RunError>
where
    P: Process,
    F: FnMut(usize) -> (Topology, Vec<P>),
{
    nprocs_list
        .iter()
        .map(|&n| {
            let (topo, procs) = build(n);
            let out = run_des(topo, procs, model, &mut RoundRobin::new())?;
            Ok(PredictedPoint { nprocs: n, time: out.makespan, breakdown: out.critical.breakdown })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_runtime::{Effect, Process};

    /// `n` independent workers splitting `TOTAL` units evenly; no
    /// communication, so scaling is perfectly ideal.
    struct Worker {
        units: u64,
        done: bool,
    }
    const TOTAL: u64 = 1_000_000;

    impl Process for Worker {
        type Msg = ();
        fn resume(&mut self, _d: Option<()>) -> Effect<()> {
            if self.done {
                Effect::Halt
            } else {
                self.done = true;
                Effect::Compute { units: self.units }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![u8::from(self.done)]
        }
    }

    #[test]
    fn embarrassingly_parallel_work_scales_ideally() {
        let model = MachineModel::custom("test", 1e-6, 0.0, 0.0);
        let points = predict_speedup(&model, &[1, 2, 4], |n| {
            let procs =
                (0..n).map(|_| Worker { units: TOTAL / n as u64, done: false }).collect();
            (Topology::new(n), procs)
        })
        .unwrap();
        let t1 = points[0].time;
        assert!((t1 - 1.0).abs() < 1e-9);
        assert!((points[1].speedup_vs(t1) - 2.0).abs() < 1e-9);
        assert!((points[2].speedup_vs(t1) - 4.0).abs() < 1e-9);
        for p in &points {
            assert_eq!(p.breakdown.latency, 0.0);
        }
    }
}
