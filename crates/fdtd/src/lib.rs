//! # fdtd — the electromagnetics application of the paper's experiments
//!
//! §4.1: *"The application parallelized in this experiment is an
//! electromagnetics code that uses the finite-difference time-domain (FDTD)
//! technique to model transient electromagnetic scattering and interactions
//! with objects of arbitrary shape and composition."* Two versions:
//!
//! * **Version A** (Kunz & Luebbers, paper ref. 17) — *near-field* calculations only:
//!   a time-stepped simulation of the electric and magnetic fields over a
//!   3-D grid, alternately updating E from neighbouring H values and H from
//!   neighbouring E values.
//! * **Version C** (Beggs et al., paper ref. 4) — near-field **plus far-field**
//!   calculations: radiation vector potentials computed by integrating over
//!   a closed surface near the grid boundary, each potential *"a double
//!   sum, over time steps and over points on the integration surface"*
//!   whose addends range over many orders of magnitude (footnote 2).
//!
//! This crate implements the solver from scratch (Yee scheme, lossy
//! dielectric + magnetic materials, PEC scatterers, Gaussian-pulse source,
//! PEC or first-order-Mur outer boundary, near-to-far-field surface
//! accumulation) in three forms per version, mirroring the paper's §4.4
//! transformation stages:
//!
//! 1. [`seq`] — the *original sequential program*: plain loops over global
//!    arrays;
//! 2. [`par`] — the archetype form: a [`mesh_archetype::Plan`] whose
//!    simulated-parallel execution is the paper's §2.2 intermediate stage;
//! 3. the same plan run as a message-passing program (the final, formally
//!    justified transformation).
//!
//! The near-field kernels are written so that all three forms perform
//! bitwise-identical floating-point operations per cell; the far-field sum
//! reproduces the paper's negative result (naive reordering changes the
//! answer) and this repo's extension fixes it (ordered reduction).
#![warn(missing_docs)]
#![forbid(unsafe_code)]


pub mod farfield;
pub mod fields;
pub mod material;
pub mod par;
pub mod params;
pub mod seq;
pub mod source;
pub mod update;
pub mod verify;

pub use farfield::{FarFieldAccumulator, FarFieldSpec, FarFieldStrategy};
pub use fields::Fields;
pub use material::{Coefficient, Material, MaterialSpec};
pub use params::{BoundaryCondition, Params};
pub use seq::{run_seq_version_a, run_seq_version_c, SeqOutputA, SeqOutputC};
pub use source::Source;
