//! Shared plumbing for the paper-reproduction bench harnesses.
//!
//! Each `benches/*.rs` target (plain `main`, `harness = false`) regenerates
//! one table or figure of the paper; this library holds the pieces they
//! share: running an FDTD workload under the simulated-parallel driver
//! with trace recording, pricing the trace on a machine model, rendering
//! aligned text tables, and turning each experiment's claims into an exit
//! status ([`Verdicts`]).

use std::process::{ExitCode, Termination};
use std::sync::Arc;
use std::time::Instant;

use fdtd::par::{init_a, init_c, plan_a, plan_c, LocalA, LocalC};
use fdtd::{FarFieldSpec, FarFieldStrategy, Params};
use machine_model::MachineModel;
use mesh_archetype::driver::{run_simpar, SimParConfig, SimParOutcome};
use mesh_archetype::CommTrace;
use meshgrid::ProcGrid3;

/// A measured/modeled run at one process count.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Process count.
    pub p: usize,
    /// Modeled execution time on the bench's machine model (seconds).
    pub modeled: f64,
    /// Wall-clock seconds this container spent executing the
    /// simulated-parallel version (a correctness-side measurement, not a
    /// parallel-machine time).
    pub wall: f64,
    /// The recorded trace.
    pub trace: CommTrace,
}

/// Run Version A at process count `p`, recording the communication trace.
pub fn run_version_a(params: &Arc<Params>, p: usize) -> (SimParOutcome<LocalA>, RunPoint, ProcGrid3) {
    let pg = ProcGrid3::choose(params.n, p);
    let plan = plan_a(params);
    let init = init_a(params.clone());
    let cfg = SimParConfig::default();
    let t0 = Instant::now();
    let out = run_simpar(&plan, pg, cfg, |e| init(e));
    let wall = t0.elapsed().as_secs_f64();
    let trace = out.trace.clone();
    (out, RunPoint { p, modeled: 0.0, wall, trace }, pg)
}

/// Run Version C at process count `p` with the given far-field strategy.
pub fn run_version_c(
    params: &Arc<Params>,
    spec: &FarFieldSpec,
    strategy: FarFieldStrategy,
    p: usize,
) -> (SimParOutcome<LocalC>, RunPoint, ProcGrid3) {
    let pg = ProcGrid3::choose(params.n, p);
    let plan = plan_c(params, spec, strategy);
    let init = init_c(params.clone(), spec.clone(), strategy);
    let cfg = SimParConfig::default();
    let t0 = Instant::now();
    let out = run_simpar(&plan, pg, cfg, |e| init(e));
    let wall = t0.elapsed().as_secs_f64();
    let trace = out.trace.clone();
    (out, RunPoint { p, modeled: 0.0, wall, trace }, pg)
}

/// Price a run point on `machine`, filling `modeled`.
pub fn price(point: &mut RunPoint, machine: &MachineModel) {
    point.modeled = machine.price_trace(&point.trace);
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
/// parameters.
pub fn scaled_steps(steps: usize) -> usize {
    match std::env::var("REPRO_SCALE").ok().and_then(|s| s.parse::<f64>().ok()) {
        Some(f) if f > 0.0 && f < 1.0 => ((steps as f64 * f) as usize).max(4),
        _ => steps,
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
}
