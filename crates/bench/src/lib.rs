//! Shared plumbing for the paper-reproduction bench harnesses.
//!
//! Each `benches/*.rs` target (plain `main`, `harness = false`) regenerates
//! one table or figure of the paper; this library holds the pieces they
//! share: running Version C under the simulated-parallel driver (for its
//! bits) and under the discrete-event simulator on a machine model (for
//! its modeled time), rendering aligned text tables, and turning each
//! experiment's claims into an exit status ([`Verdicts`]).
#![forbid(unsafe_code)]

use std::process::{ExitCode, Termination};
use std::sync::Arc;
use std::time::Instant;

use fdtd::par::{init_c, plan_c, LocalC};
use fdtd::{FarFieldSpec, FarFieldStrategy, Params};
use machine_model::MachineModel;
use mesh_archetype::driver::{run_simpar, SimParConfig, SimParOutcome};
use mesh_archetype::run_msg_predicted;
use meshgrid::ProcGrid3;
use perf_sim::DesOutcome;

/// Run Version C as the simulated-parallel program at process count `p`
/// with the given far-field strategy, with the host wall seconds it took.
pub fn run_version_c(
    params: &Arc<Params>,
    spec: &FarFieldSpec,
    strategy: FarFieldStrategy,
    p: usize,
) -> (SimParOutcome<LocalC>, f64) {
    let pg = ProcGrid3::choose(params.n, p);
    let plan = plan_c(params, spec, strategy);
    let init = init_c(params.clone(), spec.clone(), strategy);
    let t0 = Instant::now();
    let out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
    (out, t0.elapsed().as_secs_f64())
}

/// Version C's per-rank program at process count `p` on `machine`'s
/// virtual clock: its makespan is the modeled execution time.
pub fn predict_version_c(
    params: &Arc<Params>,
    spec: &FarFieldSpec,
    strategy: FarFieldStrategy,
    p: usize,
    machine: &MachineModel,
) -> DesOutcome {
    let pg = ProcGrid3::choose(params.n, p);
    let plan = plan_c(params, spec, strategy);
    let init = init_c(params.clone(), spec.clone(), strategy);
    run_msg_predicted(&plan, pg, &init, machine)
        .expect("infinite-slack message-passing plans cannot deadlock")
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Environment-scalable workload: honor `REPRO_SCALE` (e.g. `0.25`) to
/// shrink step counts for smoke runs while defaulting to the paper's full
/// parameters. A value that is not a number in (0, 1] stops the bench
/// with a message naming it, rather than running at full scale.
pub fn scaled_steps(steps: usize) -> usize {
    match repro_scale(std::env::var("REPRO_SCALE").ok().as_deref()) {
        Ok(f) if f < 1.0 => ((steps as f64 * f) as usize).max(4),
        Ok(_) => steps,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2)
        }
    }
}

/// The scale a `REPRO_SCALE` value asks for: 1 when unset, else a number in
/// (0, 1].
fn repro_scale(value: Option<&str>) -> Result<f64, String> {
    let Some(v) = value else { return Ok(1.0) };
    match v.trim().parse::<f64>() {
        Ok(f) if f > 0.0 && f <= 1.0 => Ok(f),
        _ => Err(format!("REPRO_SCALE={v:?} is not a number in (0, 1]")),
    }
}

/// The claims one experiment checks against the paper, each with whether
/// the numbers it just computed bear it out. A bench's `main` returns this,
/// so the verdict lines are printed from the recorded rows and a claim that
/// failed becomes a non-zero exit status: `scripts/reproduce_all.sh` and CI
/// can tell a reproduction from a regression without reading the tables.
#[derive(Default)]
pub struct Verdicts(Vec<(String, bool)>);

impl Verdicts {
    /// Record `claim` and whether it `holds`.
    pub fn claim(&mut self, claim: impl Into<String>, holds: bool) {
        self.0.push((claim.into(), holds));
    }
}

impl Termination for Verdicts {
    fn report(self) -> ExitCode {
        println!();
        for (claim, holds) in &self.0 {
            println!("{claim} — {}", if *holds { "REPRODUCED" } else { "NOT reproduced" });
        }
        if self.0.iter().all(|(_, holds)| *holds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Format seconds with three significant decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a speedup.
pub fn spd(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_claim_is_a_failing_exit_status() {
        let mut v = Verdicts::default();
        v.claim("holds", true);
        assert_eq!(v.report(), ExitCode::SUCCESS);

        let mut v = Verdicts::default();
        v.claim("holds", true);
        v.claim("does not hold", false);
        v.claim("holds again", true);
        assert_eq!(v.report(), ExitCode::FAILURE, "a later true claim must not mask a false one");
    }

    #[test]
    fn repro_scale_accepts_only_a_number_in_the_unit_interval() {
        assert_eq!(repro_scale(None), Ok(1.0));
        assert_eq!(repro_scale(Some("0.02")), Ok(0.02));
        assert_eq!(repro_scale(Some("1")), Ok(1.0));
        for bad in ["0,02", "2", "-1", "0", "", "NaN", "inf", "full"] {
            let err = repro_scale(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    /// What E1 (Table 1: Version C on its grid) and E2/E8 (Figure 2:
    /// Version A on its grid) price, at 4 steps: the per-rank program's
    /// total messages, bytes and work units per P, as the discrete-event
    /// run counts them.
    #[test]
    fn the_modeled_inputs_are_pinned() {
        let with_steps = |mut params: Params| {
            params.steps = 4;
            Arc::new(params)
        };
        let (c, a) = (with_steps(Params::table1()), with_steps(Params::figure2()));
        let spec = FarFieldSpec::standard(3);
        let strategy = FarFieldStrategy::NaiveReorder(mesh_archetype::ReduceAlgo::AllToOne);
        let machine = machine_model::ibm_sp();
        let totals = |out: DesOutcome| {
            let m = out.metrics;
            let units = m.procs.iter().map(|p| p.compute_units).sum::<u64>();
            (m.total_messages(), m.total_bytes(), units)
        };
        for (p, version_c, version_a) in [
            (1, (0, 0, 5_434_640), (0, 0, 41_399_424)),
            (2, (10, 145_472, 5_434_640), (8, 557_568, 41_399_424)),
            (4, (38, 297_024, 5_434_640), (32, 1_115_136, 41_399_424)),
            (8, (110, 460_736, 5_434_640), (96, 1_672_704, 41_399_424)),
        ] {
            let out = predict_version_c(&c, &spec, strategy, p, &machine);
            assert_eq!(totals(out), version_c, "Version C, P = {p}");
            let pg = ProcGrid3::choose(a.n, p);
            let init = fdtd::par::init_a(a.clone());
            let out = run_msg_predicted(&fdtd::par::plan_a(&a), pg, &init, &machine).unwrap();
            assert_eq!(totals(out), version_a, "Version A, P = {p}");
        }
    }
}
