//! # mesh-archetype — the mesh parallel-programming archetype
//!
//! The paper's §4.2 mesh archetype, as a library: *"an implementation
//! consisting of program-transformation guidelines, together with a code
//! skeleton and an archetype-specific library of communication routines."*
//!
//! ## The computational pattern
//!
//! A mesh program is *an alternating sequence of local-computation blocks
//! and data-exchange operations* over N-dimensional grids. Programs are
//! expressed once, as a [`plan::Plan`] — a sequence of [`plan::Phase`]s:
//!
//! * **local computation** — every process applies the same operation to its
//!   local section, touching only local data;
//! * **boundary exchange** — ghost boundaries are refreshed with shadow
//!   copies of neighbouring processes' boundary values: all six faces of
//!   one field, or exactly the (field, ghost faces) parts a stencil reads
//!   ([`plan::ExchangeSpec`]), coalesced into one message per link;
//! * **reduction** — per-process contributions are combined (all-to-one or
//!   recursive doubling, §4.2), or combined *in deterministic global order*
//!   ([`plan::Phase::OrderedReduce`]) — the "more sophisticated strategy"
//!   the paper's §4.5 calls for after naive reordering broke the far-field
//!   results;
//! * **broadcast** — replicated global data is re-synchronized after being
//!   computed in one process ("copy consistency");
//! * **gather/scatter** — whole grids move between the host process and the
//!   grid processes for file input/output.
//!
//! ## Interchangeable executions of the same plan
//!
//! One per rung of the refinement chain sequential → simulated-parallel →
//! grouped → message-passing:
//!
//! * [`driver::run_seq`] — the degenerate one-process execution;
//! * [`driver::run_simpar`] — the **sequential simulated-parallel version**
//!   (§2.2): one address space per simulated process, local-computation
//!   blocks run for `i = 0..N` in sequence, data-exchange operations
//!   performed as assignments. Every assignment an exchange induces copies
//!   a sender's boundary slab into the ghost slab of its unique neighbour
//!   across that face, so the Definition's restrictions hold by
//!   construction; `archetypes_core::check_program` checks them on the IR,
//!   where a violation can be written;
//! * the **grouped** program: W processes, each a simulated-parallel
//!   program over a group of contiguous ranks, exchanging by assignment
//!   inside a group and by one coalesced message per group pair between
//!   groups. [`driver::run_msg_threaded`] runs it when the ranks outnumber
//!   its worker pool and the grid is small ([`driver::group_count`]);
//! * [`driver::run_msg_simulated`] / [`driver::run_msg_threaded`] — the
//!   message-passing program obtained by the paper's final transformation:
//!   each data-exchange assignment becomes a send/receive pair with all
//!   sends performed before any receives (§3.3), running on
//!   [`ssp_runtime`]'s simulated scheduler or on real threads.
//!
//! By construction every execution performs each rank's floating-point
//! operations in *bitwise-identical order*, so their results agree exactly
//! — the property Theorem 1 guarantees and the paper's experiments
//! confirmed ("on the first and every execution").
//!
//! The simulated-parallel driver also records a [`CommTrace`] of
//! every message and every local-computation flop count, which the
//! `machine-model` crate prices to reproduce the paper's performance tables
//! on modeled 1998 hardware.
//!
//! # Example
//!
//! A one-field relaxation written once and executed three ways:
//!
//! ```
//! use mesh_archetype::driver::{MeshLocal, SimParConfig};
//! use mesh_archetype::{run_msg_simulated, run_seq, run_simpar, Env, Plan};
//! use meshgrid::{Grid3, ProcGrid3};
//! use ssp_runtime::RoundRobin;
//! use std::sync::Arc;
//!
//! struct L { u: Grid3<f64>, next: Grid3<f64> }
//! impl MeshLocal for L {
//!     fn snapshot_bytes(&self) -> Vec<u8> { meshgrid::io::grid3_to_bytes(&self.u) }
//! }
//!
//! fn init(env: &Env) -> L {
//!     let (nx, ny, nz) = env.block.extent();
//!     let b = env.block;
//!     let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
//!         let (gi, gj, gk) = b.to_global(i, j, k);
//!         (gi + 2 * gj + 3 * gk) as f64
//!     });
//!     L { next: u.clone(), u }
//! }
//!
//! let plan: Plan<L> = Plan::builder()
//!     .loop_n(4, |b| {
//!         b.exchange("halo", |l: &mut L| &mut l.u)
//!             .local("relax", |env, l| {
//!                 let (nx, ny, nz) = l.u.extent();
//!                 let g = env.pg.n;
//!                 for i in 0..nx as isize { for j in 0..ny as isize { for k in 0..nz as isize {
//!                     let (gi, gj, gk) = env.block.to_global(i as usize, j as usize, k as usize);
//!                     let edge = gi == 0 || gj == 0 || gk == 0
//!                         || gi == g.0 - 1 || gj == g.1 - 1 || gk == g.2 - 1;
//!                     let v = if edge { l.u.get(i, j, k) } else {
//!                         0.5 * l.u.get(i, j, k) + 0.25 * l.u.get(i - 1, j, k)
//!                             + 0.25 * l.u.get(i + 1, j, k)
//!                     };
//!                     l.next.set(i, j, k, v);
//!                 }}}
//!                 std::mem::swap(&mut l.u, &mut l.next);
//!             })
//!     })
//!     .build();
//!
//! let n = (8, 6, 5);
//! let seq = run_seq(&plan, n, init);
//! let pg = ProcGrid3::choose(n, 4);
//! let mut simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
//! let global = simpar.assemble_global(&pg, |l| &mut l.u);
//! assert!(seq
//!     .u
//!     .interior_to_vec()
//!     .iter()
//!     .zip(&global.interior_to_vec())
//!     .all(|(a, b)| a.to_bits() == b.to_bits()));
//!
//! let init_fn: mesh_archetype::plan::InitFn<L> = Arc::new(init);
//! let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RoundRobin::new()).unwrap();
//! assert_eq!(msg.snapshots, simpar.snapshots);
//! ```
#![warn(missing_docs)]


pub mod driver;
pub mod env;
pub mod exchange;
pub mod plan;
pub mod reduce;
pub mod sum;

pub use driver::{
    run_msg_predicted, run_msg_predicted_slack, run_msg_recovering, run_msg_simulated,
    run_msg_simulated_slack, run_msg_threaded, run_msg_threaded_slack, run_seq, run_simpar,
    try_run_simpar, SimParOutcome,
};
pub use env::{AxisOutOfRange, Env};
pub use plan::{Contribution, ExchangeSpec, Phase, Plan, PlanBuilder};
pub use reduce::{ReduceAlgo, ReduceOp, ReducePlan, ReduceStep};
pub use sum::SumMethod;
pub use machine_model::trace::{CommTrace, MsgRecord, PhaseCost};
