//! **Ablation E8** — machine-parameter sensitivity: *why* the network of
//! Suns flattens where the IBM SP keeps scaling.
//!
//! The Table 1 workload's recorded trace is re-priced under machines whose
//! latency (α) and bandwidth (1/β) are swept across four orders of
//! magnitude, tracing the speedup-at-P=8 surface between the two presets.

use std::sync::Arc;

use bench::{print_table, run_version_c, scaled_steps, Verdicts};
use fdtd::{FarFieldSpec, FarFieldStrategy, Params};
use machine_model::{ibm_sp, network_of_suns, sweep_alpha, sweep_beta};
use mesh_archetype::ReduceAlgo;

fn main() -> Verdicts {
    let mut verdicts = Verdicts::default();
    let mut params = Params::table1();
    params.steps = scaled_steps(64);
    let params = Arc::new(params);
    let spec = FarFieldSpec::standard(3);
    let strategy = FarFieldStrategy::NaiveReorder(ReduceAlgo::AllToOne);

    let (_, seq_point, _) = run_version_c(&params, &spec, strategy, 1);
    let (_, par_point, _) = run_version_c(&params, &spec, strategy, 8);

    let suns = network_of_suns();
    let sp = ibm_sp();
    let t_seq_suns = suns.price_trace(&seq_point.trace);
    let t_seq_sp = sp.price_trace(&seq_point.trace);

    // Latency sweep around the Suns preset.
    let alphas = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    let pts = sweep_alpha(suns, &par_point.trace, t_seq_suns, &alphas);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![format!("{:.0e}", p.value), format!("{:.3}", p.time), format!("{:.2}", p.speedup)]
        })
        .collect();
    print_table(
        "E8a: speedup at P=8 vs per-message latency α (Suns compute/bandwidth)",
        &["alpha (s)", "modeled time (s)", "speedup"],
        &rows,
    );
    let mut falls_with_cost = pts.windows(2).all(|w| w[1].speedup < w[0].speedup);

    // Bandwidth sweep around the SP preset.
    let betas = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5];
    let pts = sweep_beta(sp, &par_point.trace, t_seq_sp, &betas);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![format!("{:.0e}", p.value), format!("{:.3}", p.time), format!("{:.2}", p.speedup)]
        })
        .collect();
    print_table(
        "E8b: speedup at P=8 vs per-byte cost β (SP compute/latency)",
        &["beta (s/B)", "modeled time (s)", "speedup"],
        &rows,
    );
    falls_with_cost &= pts.windows(2).all(|w| w[1].speedup < w[0].speedup);
    verdicts.claim(
        "E8a/b: speedup at P = 8 falls as per-message latency or per-byte cost grows",
        falls_with_cost,
    );

    // The two presets, side by side, on identical traces.
    let (t_par_suns, t_par_sp) =
        (suns.price_trace(&par_point.trace), sp.price_trace(&par_point.trace));
    let rows = vec![
        vec![
            suns.name.to_string(),
            format!("{:.3}", t_seq_suns),
            format!("{:.3}", t_par_suns),
            format!("{:.2}", t_seq_suns / t_par_suns),
        ],
        vec![
            sp.name.to_string(),
            format!("{:.3}", t_seq_sp),
            format!("{:.3}", t_par_sp),
            format!("{:.2}", t_seq_sp / t_par_sp),
        ],
    ];
    print_table(
        "E8c: the same program, the paper's two machines (P = 8)",
        &["machine", "T_seq (s)", "T_par (s)", "speedup"],
        &rows,
    );
    verdicts.claim(
        "E8c: the same trace speeds up more on the SP than on the Suns — the gap between \
         Table 1 and Figure 2 is a property of the interconnect, not of the program",
        t_seq_sp / t_par_sp > t_seq_suns / t_par_suns,
    );

    // --- E8d: host placement (§4.2's two options) -----------------------
    use fdtd::par::{init_c, plan_c};
    use mesh_archetype::driver::{run_simpar, HostMode, SimParConfig};
    use meshgrid::ProcGrid3;
    let plan = plan_c(&params, &spec, strategy);
    let pg = ProcGrid3::choose(params.n, 8);
    let mut rows = Vec::new();
    let mut modeled = Vec::new();
    for (label, mode) in [
        ("grid rank 0 doubles as host", HostMode::GridRank0),
        ("separate host process", HostMode::Separate),
    ] {
        let init = init_c(params.clone(), spec.clone(), strategy);
        let cfg = SimParConfig { host_mode: mode };
        let out = run_simpar(&plan, pg, cfg, |e| init(e));
        let t = suns.price_trace(&out.trace);
        modeled.push(t);
        rows.push(vec![
            label.to_string(),
            out.trace.nprocs.to_string(),
            out.trace.total_messages().to_string(),
            format!("{t:.3}"),
        ]);
    }
    print_table(
        "E8d: host placement for file I/O and collections (P = 8, Suns)",
        &["placement", "processes", "messages", "modeled time (s)"],
        &rows,
    );
    verdicts.claim(
        "E8d: a separate host process (§4.2 option 1) buys I/O isolation for under 1% of \
         modeled time — negligible next to the halo traffic",
        (modeled[1] / modeled[0] - 1.0).abs() < 0.01,
    );
    verdicts
}
