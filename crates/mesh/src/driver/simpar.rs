//! The sequential simulated-parallel program (§2.2), the reference every
//! other execution of a plan is compared against.
//!
//! It is the grouped program at W = 1: the plan compiled by the one
//! lowering onto a single process that hosts every rank (and the separate
//! host, if there is one). That process runs each local-computation block
//! for `i = 0..N` in index order and performs every data exchange as
//! assignments between its members, all "sends" before any "receives"
//! (§3.3). A one-process program has no channel, so it runs to its end in
//! a plain loop.
//!
//! The §2.2 restrictions hold for every exchange by construction (DESIGN.md
//! §17), so nothing here checks them. A broken program fails with the
//! [`RunError::Protocol`] the message-passing driver raises for it.

use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::{Effect, Process, RunError};

use crate::driver::msg::{compile, Placement};
use crate::driver::MeshLocal;
use crate::env::Env;
use crate::plan::Plan;

/// Who plays host for file I/O, ordered reductions and result collection
/// (§4.2 offers both options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostMode {
    /// Grid rank 0 doubles as host (no extra process).
    #[default]
    GridRank0,
    /// A dedicated host process (rank `nprocs`) owning no grid block: it
    /// performs only the host side of gathers/scatters/ordered reductions
    /// and receives every replicated-global injection, at the cost of one
    /// extra message per collective.
    Separate,
}

/// Configuration of a simulated-parallel run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimParConfig {
    /// Host placement.
    pub host_mode: HostMode,
}

/// Result of a simulated-parallel run.
pub struct SimParOutcome<L> {
    /// Final local state of every simulated process.
    pub locals: Vec<L>,
    /// Per-process byte snapshots (comparable with message-passing runs).
    pub snapshots: Vec<Vec<u8>>,
}

impl<L> SimParOutcome<L> {
    /// Reassemble a distributed field into a global grid (for comparison
    /// against the original sequential program's output).
    pub fn assemble_global(
        &mut self,
        pg: &ProcGrid3,
        mut field: impl FnMut(&mut L) -> &mut Grid3<f64>,
    ) -> Grid3<f64> {
        let n = pg.n;
        let mut global: Grid3<f64> = Grid3::new(n.0, n.1, n.2, 0);
        for r in 0..pg.nprocs() {
            let block = pg.block(r);
            let local = field(&mut self.locals[r]);
            for li in 0..block.extent().0 {
                for lj in 0..block.extent().1 {
                    for lk in 0..block.extent().2 {
                        let (gi, gj, gk) = block.to_global(li, lj, lk);
                        global.set(
                            gi as isize,
                            gj as isize,
                            gk as isize,
                            local.get(li as isize, lj as isize, lk as isize),
                        );
                    }
                }
            }
        }
        global
    }
}

/// Run `plan` as a sequential simulated-parallel program over the process
/// topology `pg`, with initial local states built by `init`.
///
/// Panics if the program is broken or a local step fails; use
/// [`try_run_simpar`] for the typed error instead.
pub fn run_simpar<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    cfg: SimParConfig,
    init: impl Fn(&Env) -> L,
) -> SimParOutcome<L> {
    try_run_simpar(plan, pg, cfg, init).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_simpar`], but a broken program fails with the
/// [`RunError::Protocol`] the message-passing driver raises for it, and a
/// failed local step with its own [`RunError`].
pub fn try_run_simpar<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    cfg: SimParConfig,
    init: impl Fn(&Env) -> L,
) -> Result<SimParOutcome<L>, RunError> {
    let placement = Placement::simpar(&pg, cfg.host_mode);
    let (_, mut procs) = compile(plan, &init, &placement, [0]);
    let mut process = procs.pop().expect("one process");
    loop {
        match process.resume(None) {
            Effect::Halt => break,
            Effect::Compute { .. } => {}
            Effect::Fault { error } => return Err(error),
            Effect::Send { .. } | Effect::Recv { .. } => {
                let detail = "the one-process program has no channel".to_string();
                return Err(RunError::Protocol { proc: 0, detail });
            }
        }
    }
    let locals = process.into_locals();
    let snapshots = locals.iter().map(MeshLocal::snapshot_bytes).collect();
    Ok(SimParOutcome { locals, snapshots })
}
