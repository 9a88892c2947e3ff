//! # machine-model — analytic machine models for trace pricing
//!
//! The paper's performance results ran on a **network of Sun workstations**
//! (Table 1) and an **IBM SP** (Figure 2) under Fortran M. Neither machine
//! exists here, so — per the substitution rule in DESIGN.md — this crate
//! *models* them: a LogGP-style analytic cost model prices the
//! communication/computation trace that the simulated-parallel driver
//! records ([`CommTrace`]), yielding modeled
//! execution times whose *shape* (who wins, how speedup bends, where the
//! communication wall sits) reproduces the paper's measurements.
//!
//! The model is deliberately simple and inspectable:
//!
//! ```text
//! T(phase)  =  max_r flops_r · t_flop                      (computation)
//!            + max_r ( msgs_r · α  +  bytes_r · β )        (communication)
//! T(run)    =  Σ_phases T(phase)
//! ```
//!
//! where `msgs_r` / `bytes_r` count messages touching rank `r` (sends and
//! receives both occupy an endpoint) — which is what makes the all-to-one
//! reduction's root a bottleneck and a high-latency LAN flatten speedup
//! curves long before an SP switch does.
#![warn(missing_docs)]


pub mod model;
pub mod speedup;
pub mod sweep;
pub mod trace;

pub use model::{ibm_sp, network_of_suns, MachineModel};
pub use speedup::{ideal_time, perfect_speedup, SpeedupPoint, SpeedupSeries};
pub use sweep::{sweep_alpha, sweep_beta, SweepPoint};
pub use trace::{CommTrace, MsgRecord, PhaseCost};
