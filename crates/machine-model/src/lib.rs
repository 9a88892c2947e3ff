//! # machine-model — the paper's two machines as cost parameters
//!
//! The paper's performance results ran on a **network of Sun workstations**
//! (Table 1) and an **IBM SP** (Figure 2) under Fortran M. Neither machine
//! exists here, so — per the substitution rule in DESIGN.md — this crate
//! *models* them: a [`MachineModel`] is a LogGP-style set of costs (seconds
//! per flop `t_flop`, per-message latency α, per-byte time β, and the
//! send/receive software occupancies `o_send`/`o_recv`), and
//! [`network_of_suns`] and [`ibm_sp`] are the two calibrated presets.
//!
//! The prices are applied by `perf-sim`'s discrete-event simulator, which
//! runs the per-rank message-passing program itself on a virtual clock: a
//! local block of `u` work units costs [`MachineModel::compute_time`], a
//! message of `b` bytes occupies its sender for `o_send`, the wire for
//! [`MachineModel::transit_time`] and its receiver for `o_recv`. The
//! modeled times, whose *shape* (who wins, how speedup bends, where the
//! communication wall sits) reproduces the paper's measurements, are that
//! simulator's makespans. This crate also holds the paper's speedup
//! definitions ([`SpeedupSeries`]).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod speedup;

pub use model::{ibm_sp, network_of_suns, MachineModel};
pub use speedup::{ideal_time, perfect_speedup, SpeedupPoint, SpeedupSeries};
