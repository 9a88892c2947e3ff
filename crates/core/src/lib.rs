//! # archetypes-core — the parallelization methodology itself
//!
//! The paper's primary contribution is not an application but a
//! *methodology*: parallelize a sequential program by a sequence of small
//! semantics-preserving transformations, performed almost entirely in the
//! sequential domain, with only the final step — sequential
//! simulated-parallel → parallel — crossing into the parallel domain, and
//! that step justified once and for all by Theorem 1.
//!
//! This crate makes the methodology executable:
//!
//! * [`ir`] — a small imperative intermediate representation in which the
//!   §2.2 **sequential simulated-parallel program** is a first-class
//!   object: per-process partitions of scalar variables, local-computation
//!   blocks, and data-exchange operations, with the Definition's
//!   restrictions (i)–(iii) as a checkable property ([`ir::check_program`]);
//! * [`parallel`] — the target form: per-process instruction scripts over
//!   single-reader single-writer channels, runnable on `ssp-runtime`'s
//!   simulated scheduler or real threads;
//! * [`transform`] — the **formally justified final transformation**:
//!   data-exchange assignments become send/receive pairs, all sends of an
//!   exchange before any receives (§3.3);
//! * [`theorem`] — Theorem 1 machinery: policy batteries, *exhaustive*
//!   enumeration of every maximal interleaving of small systems, and the
//!   proof's permutation argument as executable code (swap adjacent
//!   independent actions, final state invariant);
//! * [`refine`] — stepwise-refinement pipelines: named transformation
//!   stages, refinement checking by co-execution, and the mechanical-effort
//!   metrics used as the repo's proxy for the paper's §4.5 ease-of-use
//!   numbers;
//! * [`stencil`] — a worked end-to-end example: a 1-D stencil program
//!   taken from plain sequential IR through duplication, partitioning with
//!   ghost cells, and exchange insertion to a running message-passing
//!   program, with a refinement check at every stage.
#![warn(missing_docs)]
#![forbid(unsafe_code)]


pub mod ir;
pub mod parallel;
pub mod refine;
pub mod stencil;
pub mod theorem;
pub mod transform;

pub use ir::{check_program, Block, Expr, Program, Store, Var};
pub use parallel::{ParallelProgram, ScriptProcess};
pub use refine::{refines, Pipeline, StageMetrics};
pub use transform::to_parallel;
