//! **Ablation E7** — reduction strategy and summation arithmetic.
//!
//! The design choices DESIGN.md calls out: all-to-one vs recursive-doubling
//! communication patterns (§4.2 offers both), and naive vs Kahan vs
//! pairwise summation for the far-field double sums (§4.5's negative result
//! and its fixes). Measured on synthetic magnitude-spread workloads
//! (footnote 2's regime) and on the real Version C far field.

use std::sync::Arc;

use bench::{print_table, run_version_c, Verdicts};
use fdtd::verify::{count_bitwise_diffs, max_rel_err};
use fdtd::{run_seq_version_c, FarFieldSpec, FarFieldStrategy, Params};
use mesh_archetype::reduce::{rank_order_reduce, ReduceAlgo, ReduceOp, ReducePlan};
use mesh_archetype::sum::{magnitude_spread_workload, sum_kahan, SumMethod};

/// Reference "exact" sum via two-pass compensation (Neumaier over sorted
/// magnitudes) — good enough to rank the other methods.
fn reference_sum(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.abs().partial_cmp(&b.abs()).unwrap());
    sum_kahan(&sorted)
}

fn main() -> Verdicts {
    let mut verdicts = Verdicts::default();

    // --- Summation arithmetic on magnitude-spread workloads -------------
    let mut rows = Vec::new();
    let mut naive_is_least_accurate = true;
    for spread in [4i32, 8, 12] {
        let xs = magnitude_spread_workload(100_000, spread, 0xbeef);
        let exact = reference_sum(&xs);
        let rel_err = |m: SumMethod| {
            let got = m.sum(&xs);
            if exact == 0.0 { got.abs() } else { ((got - exact) / exact).abs() }
        };
        let naive_err = rel_err(SumMethod::Naive);
        for m in SumMethod::ALL {
            let err = rel_err(m);
            naive_is_least_accurate &= err <= naive_err;
            rows.push(vec![
                format!("1e±{spread}"),
                m.name().to_string(),
                format!("{err:.2e}"),
            ]);
        }
    }
    print_table(
        "E7a: summation arithmetic vs magnitude spread (n = 100000)",
        &["spread", "method", "relative error"],
        &rows,
    );
    verdicts.claim(
        "E7a: Kahan and pairwise summation are at least as accurate as naive at every \
         magnitude spread",
        naive_is_least_accurate,
    );

    // --- Reduction communication patterns --------------------------------
    let mut rows = Vec::new();
    let mut all_to_one_is_rank_order = true;
    let mut doubling_reorders = false;
    for p in [4usize, 8, 16] {
        let partials: Vec<Vec<f64>> =
            (0..p).map(|r| magnitude_spread_workload(64, 10, 100 + r as u64)).collect();
        let reference = rank_order_reduce(ReduceOp::Sum, &partials);
        for algo in [ReduceAlgo::AllToOne, ReduceAlgo::RecursiveDoubling] {
            let plan = ReducePlan::build(algo, p);
            let mut parts = partials.clone();
            plan.execute(ReduceOp::Sum, &mut parts);
            let diffs = count_bitwise_diffs(&parts[0], &reference);
            match algo {
                ReduceAlgo::AllToOne => all_to_one_is_rank_order &= diffs == 0,
                ReduceAlgo::RecursiveDoubling => doubling_reorders |= diffs > 0,
            }
            rows.push(vec![
                p.to_string(),
                algo.name().to_string(),
                plan.message_count().to_string(),
                plan.depth().to_string(),
                format!("{diffs}/{}", reference.len()),
            ]);
        }
    }
    print_table(
        "E7b: reduction algorithms — cost and combine-order sensitivity",
        &["P", "algorithm", "messages", "rounds", "bits differing vs rank-order"],
        &rows,
    );
    verdicts.claim(
        "E7b: all-to-one reproduces the rank-order combine bitwise at every P; recursive \
         doubling reorders it",
        all_to_one_is_rank_order && doubling_reorders,
    );

    // --- End-to-end on the real far field --------------------------------
    // 32 steps unscaled, as in the correctness bench: any fewer and the
    // pulse has not reached the integration surface, so every strategy
    // trivially agrees.
    let params = Arc::new(Params { steps: 32, ..Params::table1() });
    let spec = FarFieldSpec::standard(3);
    let seq = run_seq_version_c(&params, &spec);
    let mut rows = Vec::new();
    let mut naive_differs = true;
    let mut ordered_naive_identical = false;
    for (label, strategy) in [
        ("naive + all-to-one", FarFieldStrategy::NaiveReorder(ReduceAlgo::AllToOne)),
        (
            "naive + recursive doubling",
            FarFieldStrategy::NaiveReorder(ReduceAlgo::RecursiveDoubling),
        ),
        ("ordered + naive", FarFieldStrategy::Ordered(SumMethod::Naive)),
        ("ordered + kahan", FarFieldStrategy::Ordered(SumMethod::Kahan)),
        ("ordered + pairwise", FarFieldStrategy::Ordered(SumMethod::Pairwise)),
    ] {
        let (out, wall) = run_version_c(&params, &spec, strategy, 8);
        let pots = &out.locals[0].potentials;
        let diffs = count_bitwise_diffs(pots, &seq.potentials);
        match strategy {
            FarFieldStrategy::NaiveReorder(_) => naive_differs &= diffs > 0,
            FarFieldStrategy::Ordered(SumMethod::Naive) => ordered_naive_identical = diffs == 0,
            FarFieldStrategy::Ordered(_) => {}
        }
        rows.push(vec![
            label.to_string(),
            diffs.to_string(),
            format!("{:.2e}", max_rel_err(pots, &seq.potentials)),
            format!("{wall:.2}"),
        ]);
    }
    print_table(
        "E7c: far-field strategies at P = 8 vs sequential (version C)",
        &["strategy", "bitwise diffs", "max rel err", "host wall (s)"],
        &rows,
    );
    verdicts.claim(
        "E7c: naive reordering loses bitwise identity with the sequential far field under \
         either reduction algorithm; ordered + naive restores it",
        naive_differs && ordered_naive_identical,
    );
    verdicts
}
