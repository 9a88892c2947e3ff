//! The PR's acceptance artifact, as a test: one Chrome trace file
//! overlaying the DES *prediction* against a *measured* threaded run of
//! the same FDTD-A program, plus the drift report that quantifies how
//! far the model was off — all from real executions, end to end.
//!
//! The threaded run pins a pool of one worker per rank (W = P = 4), so its
//! flight lanes are the per-rank processes the DES predicts.

use std::sync::Arc;

use fdtd::par::{init_a, plan_a};
use fdtd::Params;
use machine_model::network_of_suns;
use mesh_archetype::{run_msg_predicted, run_msg_threaded_slack};
use meshgrid::ProcGrid3;
use perf_sim::{drift_report, measured_timelines, overlay_chrome_trace};
use ssp_runtime::{JsonValue, ThreadedConfig};

#[test]
fn overlay_trace_and_drift_report_from_a_real_run() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let pg = ProcGrid3::choose(params.n, 4);
    let init = init_a(params.clone());

    let des = run_msg_predicted(&plan, pg, &init, &network_of_suns()).unwrap();
    let cfg = ThreadedConfig::with_watchdog(std::time::Duration::from_secs(30))
        .with_workers(pg.nprocs())
        .with_flight(1 << 15);
    let out = run_msg_threaded_slack(&plan, pg, &init, None, cfg).unwrap();
    assert_eq!(out.snapshots, des.snapshots, "predicted and measured runs agree bitwise");
    let log = out.flight.expect("recorder was enabled");

    // Reconstruction: one timeline per rank, time-ordered, with real
    // activity on at least every compute-bearing rank.
    let n = des.timelines.len();
    let measured = measured_timelines(&log, n);
    assert_eq!(measured.len(), n);
    let busy = measured.iter().filter(|tl| !tl.spans.is_empty()).count();
    assert!(busy >= n / 2, "only {busy}/{n} measured ranks have spans");
    for tl in &measured {
        for w in tl.spans.windows(2) {
            assert!(w[1].start >= w[0].end - 1e-12, "overlap in rank {}", tl.proc);
        }
    }

    // Drift: shares are probabilities, the ratio is the clock scale.
    let report = drift_report(&des.timelines, &measured);
    assert_eq!(report.procs.len(), n);
    assert!(report.makespan_ratio.is_finite() && report.makespan_ratio > 0.0);
    assert!(report.max_drift >= report.mean_drift - 1e-12);
    assert!((0.0..=1.0 + 1e-12).contains(&report.max_drift));
    for row in &report.procs {
        for share in row.predicted.iter().chain(&row.measured) {
            assert!((0.0..=1.0 + 1e-12).contains(share));
        }
    }
    // Four ranks exchanging halos wait for each other: some measured time
    // is blocked time.
    assert!(
        report.procs.iter().any(|row| row.measured[2] > 0.0),
        "no rank shows a blocked share: {:?}",
        report.procs
    );
    let doc = ssp_runtime::json::parse(&report.to_json()).unwrap();
    assert_eq!(
        doc.get("procs").and_then(|v| v.as_arr()).map(|a| a.len()),
        Some(n),
        "drift report archives one row per rank"
    );

    // The overlay itself: valid JSON, named tracks, and complete events
    // on both pids so chrome://tracing shows the two executions stacked.
    let overlay = overlay_chrome_trace(&des.timelines, &measured);
    let doc = ssp_runtime::json::parse(&overlay).unwrap();
    let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let spans_on = |pid: f64| {
        evs.iter()
            .filter(|e| {
                e.get("ph") == Some(&JsonValue::Str("X".into()))
                    && e.get("pid").and_then(|v| v.as_f64()) == Some(pid)
            })
            .count()
    };
    assert!(spans_on(0.0) > 0, "predicted track is empty");
    assert!(spans_on(1.0) > 0, "measured track is empty");
    let names: Vec<_> = evs
        .iter()
        .filter(|e| e.get("ph") == Some(&JsonValue::Str("M".into())))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).cloned())
        .collect();
    assert!(names.contains(&JsonValue::Str("predicted (des)".into())));
    assert!(names.contains(&JsonValue::Str("measured".into())));
}
