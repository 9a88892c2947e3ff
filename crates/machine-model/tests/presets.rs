//! Exact-cost unit tests for the two calibrated machine presets.
//!
//! The paper's machines are fixed numbers (Table 1's network of Suns,
//! Figure 2's IBM SP); a silent recalibration would silently move every
//! regenerated table. These tests price a hand-built [`CommTrace`] against
//! both presets and assert the *exact* expected f64 costs, mirroring the
//! pricer's arithmetic term by term.

use machine_model::trace::{CommTrace, MsgRecord, PhaseCost};
use machine_model::{ibm_sp, network_of_suns, MachineModel};

/// Two ranks: a compute phase, a symmetric 8 kB halo exchange, and a
/// one-double reduction message.
fn hand_trace() -> CommTrace {
    let mut t = CommTrace::new(2);
    t.push(PhaseCost::compute("relax", vec![1_000_000, 2_000_000]));
    t.push(PhaseCost {
        name: "halo".into(),
        flops: vec![0, 0],
        msgs: vec![
            MsgRecord { src: 0, dst: 1, bytes: 8_000 },
            MsgRecord { src: 1, dst: 0, bytes: 8_000 },
        ],
    });
    t.push(PhaseCost {
        name: "reduce".into(),
        flops: vec![0, 0],
        msgs: vec![MsgRecord { src: 1, dst: 0, bytes: 8 }],
    });
    t
}

/// The pricer's per-phase formula, replicated with the same expression
/// shape so f64 equality is exact: critical-rank compute plus
/// critical-endpoint communication (each message occupies both endpoints).
fn expected_total(m: &MachineModel) -> f64 {
    let compute = 2_000_000.0 * m.t_flop;
    // Halo: each rank touches 2 messages and 16 000 bytes.
    let halo = 2.0 * m.alpha + 16_000.0 * m.beta;
    // Reduce: each endpoint touches 1 message and 8 bytes.
    let reduce = 1.0 * m.alpha + 8.0 * m.beta;
    compute + halo + reduce
}

#[test]
fn network_of_suns_prices_exactly() {
    let m = network_of_suns();
    assert_eq!(m.name, "network-of-suns");
    assert_eq!((m.t_flop, m.alpha, m.beta), (5.0e-7, 5.0e-4, 1.0e-6));
    assert_eq!((m.o_send, m.o_recv), (1.0e-4, 1.0e-4));
    let t = hand_trace();
    assert_eq!(m.price_trace(&t), expected_total(&m));
    // Spelled out: 1 s of compute, 17 ms of halo, 508 µs of reduce.
    assert_eq!(m.price_trace(&t), 1.0 + (1.0e-3 + 1.6e-2) + (5.0e-4 + 8.0e-6));
    assert_eq!(m.price_comp_only(&t), 1.0);
    assert_eq!(m.price_comm_only(&t), (1.0e-3 + 1.6e-2) + (5.0e-4 + 8.0e-6));
}

#[test]
fn ibm_sp_prices_exactly() {
    let m = ibm_sp();
    assert_eq!(m.name, "ibm-sp");
    assert_eq!((m.t_flop, m.alpha, m.beta), (2.5e-8, 4.0e-5, 2.9e-8));
    assert_eq!((m.o_send, m.o_recv), (5.0e-6, 5.0e-6));
    let t = hand_trace();
    assert_eq!(m.price_trace(&t), expected_total(&m));
    assert_eq!(m.price_comp_only(&t), 2_000_000.0 * 2.5e-8);
    assert_eq!(
        m.price_comm_only(&t),
        (2.0 * 4.0e-5 + 16_000.0 * 2.9e-8) + (4.0e-5 + 8.0 * 2.9e-8)
    );
}

#[test]
fn discrete_event_glue_matches_the_fields() {
    for m in [network_of_suns(), ibm_sp()] {
        assert_eq!(m.compute_time(1_000), 1_000.0 * m.t_flop);
        assert_eq!(m.compute_time(0), 0.0);
        assert_eq!(m.transit_time(0), m.alpha);
        assert_eq!(m.transit_time(4_096), m.alpha + 4_096.0 * m.beta);
    }
    // Overheads are DES-side occupancies: they must NOT change the
    // closed-form price (α already folds software overhead in).
    let bare = MachineModel::custom("x", 1e-7, 1e-4, 1e-8);
    let padded = bare.with_overheads(1e-3, 1e-3);
    let t = hand_trace();
    assert_eq!(bare.price_trace(&t), padded.price_trace(&t));
}

#[test]
fn preset_relationship_holds() {
    // The SP beats the Suns on every axis — the qualitative fact behind
    // the two experiments' very different speedup curves.
    let suns = network_of_suns();
    let sp = ibm_sp();
    assert!(suns.t_flop > sp.t_flop);
    assert!(suns.alpha > sp.alpha);
    assert!(suns.beta > sp.beta);
    assert!(suns.o_send > sp.o_send);
    assert!(suns.transit_time(8_000) > 10.0 * sp.transit_time(8_000));
}
