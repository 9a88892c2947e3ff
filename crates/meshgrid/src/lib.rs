//! # meshgrid — dense grids with ghost boundaries and block partitioning
//!
//! The data substrate of the mesh archetype (paper §4.2): computations over
//! N-dimensional grids (N = 1, 2, 3) parallelized by *partitioning the data
//! grid into regular contiguous subgrids (local sections) and distributing
//! them among processes*, each local section *surrounded by a ghost boundary
//! containing shadow copies of boundary values from neighboring processes*.
//!
//! This crate provides:
//!
//! * [`grid::Grid1`], [`grid::Grid2`], [`grid::Grid3`] — dense row-major
//!   grids of `Copy` elements with a configurable ghost width, indexable at
//!   signed offsets so that stencils read naturally into the ghost region;
//! * [`partition::ProcGrid3`] / [`partition::ProcGrid2`] /
//!   [`partition::ProcGrid1`] — Cartesian process topologies with balanced
//!   block decomposition, global↔local index translation, and neighbor
//!   lookup;
//! * [`halo::Face3`], [`halo::FaceSet3`] and the slab extract/insert routines
//!   used by the boundary-exchange communication operation;
//! * [`io`] — byte serialization for the host-mediated file I/O path.
#![warn(missing_docs)]


pub mod error;
pub mod grid;
pub mod halo;
pub mod io;
pub mod partition;

pub use error::{HaloError, PartitionError};
pub use grid::{Grid1, Grid2, Grid3};
pub use halo::{Face1, Face2, Face3, FaceSet3};
pub use partition::{Block1, Block2, Block3, ProcGrid1, ProcGrid2, ProcGrid3};
