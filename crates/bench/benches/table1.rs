//! **Table 1** — "Execution times and speedups for electromagnetics code
//! (version C), for 33 by 33 by 33 grid, 128 steps, using Fortran M on a
//! network of Suns."
//!
//! Reproduced on the `network-of-suns` machine model: the simulated-
//! parallel driver executes the real Version C computation at each process
//! count and records every message and flop; the model prices the trace.
//! Expected shape (the paper's): speedup grows with P but stays well below
//! P — workstation-LAN latency eats the gains of an exchange-heavy code.

use std::sync::Arc;

use bench::{price, print_table, run_version_c, scaled_steps, secs, spd, Verdicts};
use fdtd::{FarFieldSpec, FarFieldStrategy, Params};
use machine_model::{network_of_suns, SpeedupSeries};
use mesh_archetype::ReduceAlgo;

fn main() -> Verdicts {
    let mut params = Params::table1();
    params.steps = scaled_steps(params.steps);
    let params = Arc::new(params);
    let spec = FarFieldSpec::standard(3);
    let strategy = FarFieldStrategy::NaiveReorder(ReduceAlgo::AllToOne);
    let machine = network_of_suns();

    println!(
        "Table 1 reproduction: FDTD version C, {}x{}x{} grid, {} steps, machine = {}",
        params.n.0, params.n.1, params.n.2, params.steps, machine.name
    );

    // Sequential baseline: the P = 1 trace has no messages; its modeled
    // time is pure computation.
    let (_, mut seq_point, _) = run_version_c(&params, &spec, strategy, 1);
    price(&mut seq_point, &machine);
    let t_seq = seq_point.modeled;

    let ps = [2usize, 4, 8];
    let mut rows = vec![vec![
        "Sequential".to_string(),
        secs(t_seq),
        "".to_string(),
        secs(seq_point.wall),
    ]];
    let mut timings = Vec::new();
    for &p in &ps {
        let (_, mut point, _) = run_version_c(&params, &spec, strategy, p);
        price(&mut point, &machine);
        timings.push((p, point.modeled));
        rows.push(vec![
            format!("Parallel, P = {p}"),
            secs(point.modeled),
            spd(t_seq / point.modeled),
            secs(point.wall),
        ]);
    }
    print_table(
        "Table 1: execution times and speedups (version C, network of Suns)",
        &["configuration", "modeled time (s)", "speedup", "host wall (s)"],
        &rows,
    );

    let series = SpeedupSeries::new(machine.name, t_seq, &timings);
    println!(
        "\nshape: monotone speedup = {}, sublinear = {}",
        series.monotone_speedup(),
        series.sublinear()
    );
    let mut verdicts = Verdicts::default();
    verdicts.claim(
        "Table 1 shape: speedup grows with P and stays below P on a workstation network",
        series.monotone_speedup() && series.sublinear(),
    );
    verdicts
}
