//! # meshgrid — dense grids with ghost boundaries and block partitioning
//!
//! The data substrate of the mesh archetype (paper §4.2): computations over
//! N-dimensional grids (1 ≤ N ≤ 3) parallelized by *partitioning the data
//! grid into regular contiguous subgrids (local sections) and distributing
//! them among processes*, each local section *surrounded by a ghost boundary
//! containing shadow copies of boundary values from neighboring processes*.
//!
//! This crate provides:
//!
//! * [`grid::Grid3`] — a dense row-major 3-D grid of `Copy` elements with
//!   a configurable ghost width, indexable at signed offsets so that
//!   stencils read naturally into the ghost region;
//! * [`partition::ProcGrid3`] — a Cartesian process topology with balanced
//!   block decomposition, global↔local index translation, and neighbor
//!   lookup; 1-D and 2-D problems are its unit-extent axes
//!   ([`ProcGrid3::for_1d`], [`ProcGrid3::for_2d`]);
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
pub use grid::Grid3;
pub use halo::{Face3, FaceSet3};
pub use partition::{Block3, ProcGrid3};
