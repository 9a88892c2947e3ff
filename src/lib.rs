//! # archetypes — umbrella crate
//!
//! Re-exports the parallelization methodology of Massingill's
//! *"Experiments with Program Parallelization Using Archetypes and Stepwise
//! Refinement"* (IPPS 1998), its one archetype — the mesh, over the 3-D
//! grids of [`grid`] — and the substrate it runs on.
//!
//! Start with [`mesh`] (the mesh archetype and its three interchangeable
//! execution contexts), then [`fdtd`] (the electromagnetics application the
//! paper parallelizes), then [`core`] (the simulated-parallel program model,
//! the stepwise-refinement pipeline, and the Theorem 1 machinery).
#![warn(missing_docs)]


pub use archetypes_core as core;
pub use fdtd;
pub use machine_model as machine;
pub use mesh_archetype as mesh;
pub use meshgrid as grid;
pub use ssp_runtime as runtime;
