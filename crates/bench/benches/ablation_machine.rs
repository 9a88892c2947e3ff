//! **Ablation E8** — machine-parameter sensitivity: *why* the network of
//! Suns flattens where the IBM SP keeps scaling.
//!
//! The Table 1 workload's message-passing program is re-run on the
//! discrete-event simulator under machines whose latency (α) and bandwidth
//! (1/β) are swept across four orders of magnitude, tracing the
//! speedup-at-P=8 surface between the two presets.

use std::sync::Arc;

use bench::{predict_version_c, print_table, scaled_steps, Verdicts};
use fdtd::par::{init_c, plan_c};
use fdtd::{FarFieldSpec, FarFieldStrategy, Params};
use machine_model::{ibm_sp, network_of_suns, MachineModel};
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode};
use mesh_archetype::ReduceAlgo;
use meshgrid::ProcGrid3;
use perf_sim::run_des;
use ssp_runtime::RoundRobin;

fn main() -> Verdicts {
    let mut verdicts = Verdicts::default();
    let mut params = Params::table1();
    params.steps = scaled_steps(64);
    let params = Arc::new(params);
    let spec = FarFieldSpec::standard(3);
    let strategy = FarFieldStrategy::NaiveReorder(ReduceAlgo::AllToOne);
    let time = |p: usize, machine: &MachineModel| {
        predict_version_c(&params, &spec, strategy, p, machine).makespan
    };

    let suns = network_of_suns();
    let sp = ibm_sp();
    // At P = 1 the program sends nothing: the baselines are pure compute.
    let (t_seq_suns, t_seq_sp) = (time(1, &suns), time(1, &sp));

    // Latency swept around the Suns preset, bandwidth around the SP's: the
    // P = 8 program under each perturbed machine.
    let mut falls_with_cost = true;
    for (title, swept, t_seq, machines) in [
        (
            "E8a: speedup at P=8 vs per-message latency α (Suns compute/bandwidth)",
            "alpha (s)",
            t_seq_suns,
            [1e-6, 1e-5, 1e-4, 1e-3, 1e-2].map(|alpha| (alpha, MachineModel { alpha, ..suns })),
        ),
        (
            "E8b: speedup at P=8 vs per-byte cost β (SP compute/latency)",
            "beta (s/B)",
            t_seq_sp,
            [1e-9, 1e-8, 1e-7, 1e-6, 1e-5].map(|beta| (beta, MachineModel { beta, ..sp })),
        ),
    ] {
        let pts = machines.map(|(v, m)| {
            let t = time(8, &m);
            (v, t, t_seq / t)
        });
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|&(v, t, s)| vec![format!("{v:.0e}"), format!("{t:.3}"), format!("{s:.3}")])
            .collect();
        print_table(title, &[swept, "modeled time (s)", "speedup"], &rows);
        falls_with_cost &= pts.windows(2).all(|w| w[1].2 < w[0].2);
    }
    verdicts.claim(
        "E8a/b: speedup at P = 8 falls as per-message latency or per-byte cost grows",
        falls_with_cost,
    );

    // The two presets, side by side, on the same program.
    let speedups = [(suns, t_seq_suns), (sp, t_seq_sp)].map(|(m, t_seq)| (m, t_seq, time(8, &m)));
    let rows: Vec<Vec<String>> = speedups
        .iter()
        .map(|(m, seq, par)| {
            vec![m.name.into(), format!("{seq:.3}"), format!("{par:.3}"), format!("{:.2}", seq / par)]
        })
        .collect();
    print_table(
        "E8c: the same program, the paper's two machines (P = 8)",
        &["machine", "T_seq (s)", "T_par (s)", "speedup"],
        &rows,
    );
    let [(_, suns_seq, suns_par), (_, sp_seq, sp_par)] = speedups;
    verdicts.claim(
        "E8c: the same program speeds up more on the SP than on the Suns — the gap between \
         Table 1 and Figure 2 is a property of the interconnect, not of the program",
        sp_seq / sp_par > suns_seq / suns_par,
    );

    // --- E8d: host placement (§4.2's two options) -----------------------
    let plan = plan_c(&params, &spec, strategy);
    let init = init_c(params.clone(), spec.clone(), strategy);
    let pg = ProcGrid3::choose(params.n, 8);
    let mut rows = Vec::new();
    let mut modeled = Vec::new();
    for (label, mode) in [
        ("grid rank 0 doubles as host", HostMode::GridRank0),
        ("separate host process", HostMode::Separate),
    ] {
        let (topo, procs) = build_msg_processes_with_slack(&plan, pg, &init, mode, None);
        let out = run_des(topo, procs, &suns, &mut RoundRobin::new())
            .expect("infinite-slack message-passing plans cannot deadlock");
        modeled.push(out.makespan);
        rows.push(vec![
            label.to_string(),
            out.timelines.len().to_string(),
            out.metrics.total_messages().to_string(),
            format!("{:.3}", out.makespan),
        ]);
    }
    let extra = modeled[1] / modeled[0] - 1.0;
    print_table(
        &format!("E8d: host placement for file I/O and collections (P = 8, Suns): {:+.3}%", 100.0 * extra),
        &["placement", "processes", "messages", "modeled time (s)"],
        &rows,
    );
    verdicts.claim(
        "E8d: a separate host process (§4.2 option 1) buys I/O isolation for under 1% of \
         modeled time — negligible next to the halo traffic",
        extra.abs() < 0.01,
    );
    verdicts
}
