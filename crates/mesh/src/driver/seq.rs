//! The degenerate one-process execution of a plan.

use meshgrid::ProcGrid3;

use crate::driver::simpar::{run_simpar, SimParConfig, ValidationLevel};
use crate::driver::MeshLocal;
use crate::env::Env;
use crate::plan::Plan;

/// Run `plan` on a single process covering the whole `n` grid, returning
/// the final local state. Exchanges are no-ops, reductions and ordered
/// reductions operate on the single local contribution (with the same
/// summation code as the parallel paths), gathers/scatters are local
/// copies.
pub fn run_seq<L: MeshLocal>(
    plan: &Plan<L>,
    n: (usize, usize, usize),
    init: impl Fn(&Env) -> L,
) -> L {
    let pg = ProcGrid3::new(n, (1, 1, 1));
    let cfg = SimParConfig { validation: ValidationLevel::Off, ..Default::default() };
    run_simpar(plan, pg, cfg, init)
        .locals
        .pop()
        .expect("one local state for one process")
}
