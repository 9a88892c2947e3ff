//! Microbenchmarks of the collective hot paths that `ledger` has no row
//! for yet: reduction schedules and the ordered sum. (The kernel, halo,
//! channel and simulator rows live in `ledger/src/micro.rs`.)
//!
//! Self-contained timing harness (median-of-samples over a calibrated
//! batch size) — the build environment is offline, so no external
//! benchmarking framework is used.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::print_table;
use mesh_archetype::driver::ordered_sum;
use mesh_archetype::plan::Contribution;
use mesh_archetype::reduce::{ReduceAlgo, ReduceOp, ReducePlan};
use mesh_archetype::sum::{magnitude_spread_workload, SumMethod};

/// Time `f` with enough iterations per sample to dwarf timer noise, and
/// report the median per-iteration time over `samples` samples.
fn measure(mut f: impl FnMut()) -> Duration {
    // Calibrate: grow the batch until one batch takes >= 2 ms.
    let mut batch = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_millis(2) || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let samples = 9;
    let mut per_iter: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed() / batch
        })
        .collect();
    per_iter.sort();
    per_iter[samples / 2]
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{:.2} ms", ns as f64 / 1e6)
    }
}

fn bench_reduce(rows: &mut Vec<Vec<String>>) {
    for (name, algo) in [
        ("reduce_all_to_one_p8", ReduceAlgo::AllToOne),
        ("reduce_recursive_doubling_p8", ReduceAlgo::RecursiveDoubling),
    ] {
        let plan = ReducePlan::build(algo, 8);
        let partials: Vec<Vec<f64>> =
            (0..8).map(|r| magnitude_spread_workload(512, 8, r as u64)).collect();
        let t = measure(|| {
            let mut parts = partials.clone();
            plan.execute(ReduceOp::Sum, black_box(&mut parts));
        });
        rows.push(vec![name.into(), fmt(t)]);
    }
}

fn bench_ordered_sum(rows: &mut Vec<Vec<String>>) {
    let contribs: Vec<Contribution> = (0..50_000u64)
        .map(|i| Contribution {
            bin: (i % 64) as u32,
            order: (i * 7919) % 50_000,
            value: (i as f64).sin() * 10f64.powi((i % 20) as i32 - 10),
        })
        .collect();
    let t = measure(|| {
        black_box(ordered_sum(contribs.clone(), 64, SumMethod::Naive));
    });
    rows.push(vec!["ordered_sum_50k_contribs".into(), fmt(t)]);
}

fn main() {
    let mut rows = Vec::new();
    bench_reduce(&mut rows);
    bench_ordered_sum(&mut rows);
    print_table(
        "micro: collective hot paths (median per iteration)",
        &["benchmark", "time"],
        &rows,
    );
}
