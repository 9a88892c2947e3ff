//! Exact-cost unit tests for the two calibrated machine presets.
//!
//! The paper's machines are fixed numbers (Table 1's network of Suns,
//! Figure 2's IBM SP); a silent recalibration would silently move every
//! regenerated table. These tests pin each preset's parameters and the
//! exact f64 cost of the charges the discrete-event simulator applies: a
//! local block's work units and a message's wire time.

use machine_model::{ibm_sp, network_of_suns, MachineModel};

#[test]
fn network_of_suns_prices_exactly() {
    let m = network_of_suns();
    assert_eq!(m.name, "network-of-suns");
    assert_eq!((m.t_flop, m.alpha, m.beta), (5.0e-7, 5.0e-4, 1.0e-6));
    assert_eq!((m.o_send, m.o_recv), (1.0e-4, 1.0e-4));
    // Spelled out: 2 M units are 1 s; an 8 kB halo is 500 µs of latency
    // and 8 ms on the wire; one double of a reduction, 508 µs.
    assert_eq!(m.compute_time(2_000_000), 1.0);
    assert_eq!(m.transit_time(8_000), 5.0e-4 + 8.0e-3);
    assert_eq!(m.transit_time(8), 5.0e-4 + 8.0e-6);
}

#[test]
fn ibm_sp_prices_exactly() {
    let m = ibm_sp();
    assert_eq!(m.name, "ibm-sp");
    assert_eq!((m.t_flop, m.alpha, m.beta), (2.5e-8, 4.0e-5, 2.9e-8));
    assert_eq!((m.o_send, m.o_recv), (5.0e-6, 5.0e-6));
    assert_eq!(m.compute_time(2_000_000), 2_000_000.0 * 2.5e-8);
    assert_eq!(m.transit_time(8_000), 4.0e-5 + 8_000.0 * 2.9e-8);
    assert_eq!(m.transit_time(8), 4.0e-5 + 8.0 * 2.9e-8);
}

#[test]
fn discrete_event_glue_matches_the_fields() {
    for m in [network_of_suns(), ibm_sp()] {
        assert_eq!(m.compute_time(1_000), 1_000.0 * m.t_flop);
        assert_eq!(m.compute_time(0), 0.0);
        assert_eq!(m.transit_time(0), m.alpha);
        assert_eq!(m.transit_time(4_096), m.alpha + 4_096.0 * m.beta);
    }
    // Overheads are endpoint occupancies: they do not change a message's
    // wire time.
    let bare = MachineModel::custom("x", 1e-7, 1e-4, 1e-8);
    let padded = bare.with_overheads(1e-3, 1e-3);
    assert_eq!((bare.o_send, bare.o_recv), (0.0, 0.0));
    assert_eq!((padded.o_send, padded.o_recv), (1e-3, 1e-3));
    assert_eq!(bare.transit_time(4_096), padded.transit_time(4_096));
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
