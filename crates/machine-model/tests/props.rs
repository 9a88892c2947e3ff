//! Property-based tests of the analytic machine model: monotonicity in
//! every parameter, additive decomposition, and scale invariances.

use machine_model::trace::{CommTrace, MsgRecord, PhaseCost};
use machine_model::{ibm_sp, network_of_suns, MachineModel};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = CommTrace> {
    (2usize..6, 1usize..8).prop_flat_map(|(nprocs, nphases)| {
        let phase = (
            prop::collection::vec(0u64..1_000_000, nprocs),
            prop::collection::vec((0usize..6, 0usize..6, 1u64..100_000), 0..6),
        )
            .prop_map(move |(flops, raw_msgs)| {
                let msgs = raw_msgs
                    .into_iter()
                    .map(|(s, d, b)| MsgRecord {
                        src: s % nprocs,
                        dst: d % nprocs,
                        bytes: b,
                    })
                    .collect();
                PhaseCost { name: "p".into(), flops, msgs }
            });
        prop::collection::vec(phase, nphases).prop_map(move |phases| CommTrace {
            nprocs,
            phases,
        })
    })
}

proptest! {
    /// Price is monotone non-decreasing in each machine parameter.
    #[test]
    fn price_monotone_in_parameters(trace in arb_trace(), scale in 1.5f64..100.0) {
        let base = network_of_suns();
        let t0 = base.price_trace(&trace);
        for bumped in [
            MachineModel { t_flop: base.t_flop * scale, ..base },
            MachineModel { alpha: base.alpha * scale, ..base },
            MachineModel { beta: base.beta * scale, ..base },
        ] {
            prop_assert!(bumped.price_trace(&trace) >= t0);
        }
    }

    /// Total price decomposes exactly into compute + communication.
    #[test]
    fn price_decomposes(trace in arb_trace()) {
        for m in [network_of_suns(), ibm_sp()] {
            let total = m.price_trace(&trace);
            let parts = m.price_comp_only(&trace) + m.price_comm_only(&trace);
            prop_assert!((total - parts).abs() <= 1e-9 * total.max(1e-30));
        }
    }

    /// Appending a phase never decreases the price, and pricing is additive
    /// over concatenation.
    #[test]
    fn price_additive_over_phases(trace in arb_trace()) {
        let m = ibm_sp();
        let total = m.price_trace(&trace);
        let sum: f64 = trace
            .phases
            .iter()
            .map(|p| m.price_phase(p, trace.nprocs))
            .sum();
        prop_assert!((total - sum).abs() <= 1e-9 * total.max(1e-30));
        prop_assert!(total >= 0.0);
    }

    /// A trace with zero messages costs exactly its critical-path compute.
    #[test]
    fn compute_only_traces(nprocs in 1usize..6, flops in prop::collection::vec(0u64..1_000_000, 1..5)) {
        let mut t = CommTrace::new(nprocs);
        for f in &flops {
            t.push(PhaseCost::compute("c", (0..nprocs).map(|r| f + r as u64).collect()));
        }
        let m = network_of_suns();
        let expect = t.critical_flops() as f64 * m.t_flop;
        prop_assert!((m.price_trace(&t) - expect).abs() <= 1e-12 * expect.max(1e-30));
    }
}
