//! **Table 1** — "Execution times and speedups for electromagnetics code
//! (version C), for 33 by 33 by 33 grid, 128 steps, using Fortran M on a
//! network of Suns."
//!
//! Reproduced on the `network-of-suns` machine model: the discrete-event
//! simulator runs the real Version C message-passing program at each
//! process count, charging every flop and message on the model's virtual
//! clock; the makespan is the modeled time. Expected shape (the paper's):
//! speedup grows with P but stays well below P — workstation-LAN latency
//! eats the gains of an exchange-heavy code.

use std::sync::Arc;

use bench::{predict_version_c, print_table, scaled_steps, secs, spd, Verdicts};
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

    // At P = 1 the program sends no message: the sequential baseline is
    // pure computation.
    let time = |p| predict_version_c(&params, &spec, strategy, p, &machine).makespan;
    let t_seq = time(1);
    let mut rows = vec![vec!["Sequential".to_string(), secs(t_seq), String::new()]];
    let mut timings = Vec::new();
    for p in [2usize, 4, 8] {
        let modeled = time(p);
        timings.push((p, modeled));
        rows.push(vec![format!("Parallel, P = {p}"), secs(modeled), spd(t_seq / modeled)]);
    }
    print_table(
        "Table 1: execution times and speedups (version C, network of Suns)",
        &["configuration", "modeled time (s)", "speedup"],
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
