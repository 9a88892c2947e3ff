//! Machine-parameter sweeps for the E8 ablation: how the speedup shape
//! responds to interconnect latency and bandwidth, explaining *why* the
//! network of Suns flattens where the IBM SP keeps scaling.

use crate::model::MachineModel;
use crate::trace::CommTrace;

/// One point of a machine-parameter sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// Modeled parallel execution time under the perturbed machine.
    pub time: f64,
    /// Speedup versus the supplied sequential baseline.
    pub speedup: f64,
}

/// Price `trace` under `base` with α swept over `alphas`; `t_seq` is the
/// sequential baseline for the speedup column.
pub fn sweep_alpha(
    base: MachineModel,
    trace: &CommTrace,
    t_seq: f64,
    alphas: &[f64],
) -> Vec<SweepPoint> {
    alphas
        .iter()
        .map(|&alpha| {
            let m = MachineModel { alpha, ..base };
            let time = m.price_trace(trace);
            SweepPoint { value: alpha, time, speedup: t_seq / time }
        })
        .collect()
}

/// Price `trace` under `base` with β swept over `betas`.
pub fn sweep_beta(
    base: MachineModel,
    trace: &CommTrace,
    t_seq: f64,
    betas: &[f64],
) -> Vec<SweepPoint> {
    betas
        .iter()
        .map(|&beta| {
            let m = MachineModel { beta, ..base };
            let time = m.price_trace(trace);
            SweepPoint { value: beta, time, speedup: t_seq / time }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MsgRecord, PhaseCost};

    fn trace() -> CommTrace {
        let mut t = CommTrace::new(2);
        t.push(PhaseCost::compute("w", vec![1_000, 1_000]));
        t.push(PhaseCost {
            name: "x".into(),
            flops: vec![0, 0],
            msgs: vec![MsgRecord { src: 0, dst: 1, bytes: 800 }],
        });
        t
    }

    #[test]
    fn time_is_monotone_in_alpha_and_beta() {
        let base = crate::model::network_of_suns();
        let t = trace();
        let pts = sweep_alpha(base, &t, 1.0, &[1e-6, 1e-4, 1e-2]);
        assert!(pts.windows(2).all(|w| w[1].time > w[0].time));
        assert!(pts.windows(2).all(|w| w[1].speedup < w[0].speedup));
        let pts = sweep_beta(base, &t, 1.0, &[1e-9, 1e-7, 1e-5]);
        assert!(pts.windows(2).all(|w| w[1].time > w[0].time));
    }
}
