//! # perf-sim — a discrete-event performance simulator
//!
//! The third execution backend for `ssp-runtime` programs, next to the
//! untimed simulator and the OS-thread runner: it runs a program under a
//! **virtual clock**, charging every action its cost from a
//! [`machine_model::MachineModel`] (compute rate `t_flop`, per-message
//! latency `α`, per-byte bandwidth `β`, and send/receive software
//! occupancies). This mirrors the methodology of §4 of Massingill's
//! *"Experiments with Program Parallelization Using Archetypes and Stepwise
//! Refinement"*: predict where a speedup curve bends before owning the
//! machine.
//!
//! The engine does not reimplement the runtime's semantics — it *drives*
//! the untimed [`ssp_runtime::sim::Simulator`] through its step-observer
//! hook and only adds time. Two consequences, both tested:
//!
//! 1. **Theorem 1 transfers.** The timed run performs exactly the actions
//!    of an untimed maximal interleaving, so its final state is bitwise
//!    identical to [`ssp_runtime::sim::run_simulated`]'s.
//! 2. **The prediction is schedule-independent.** Action placements are
//!    causal recurrences over predecessor times, and the paper's model
//!    makes per-process action sequences schedule-independent, so makespan
//!    and timelines are identical under every scheduling policy and the
//!    engine needs no event queue.
//!
//! What you get from a run ([`DesOutcome`]):
//!
//! * a per-process [`Timeline`] of timed spans (compute / send / recv /
//!   blocked), exportable as plain JSON or Chrome `trace_event` format
//!   ([`chrome_trace_json`] — load it in `chrome://tracing`);
//! * the [`CriticalPath`]: the chain of spans that determined the
//!   makespan, each edge attributed to compute, latency, bandwidth, or
//!   bounded-slack back-pressure, summing to the makespan;
//! * [`predict_speedup`]: the Figure-2 driver — price one program family
//!   at several rank counts and read off the predicted curve with its
//!   bottleneck explanation.
#![warn(missing_docs)]

pub mod critical;
pub mod engine;
pub mod overlay;
pub mod predict;
pub mod recovery;
pub mod timeline;

pub use critical::{CostBreakdown, CpEdge, CriticalPath, EdgeKind};
pub use engine::{run_des, run_des_default, DesOutcome};
pub use overlay::{drift_report, measured_timelines, DriftReport, ProcDrift};
pub use predict::{predict_speedup, PredictedPoint};
pub use recovery::{price_recovery, RecoveryCosts, RecoveryOverhead};
pub use timeline::{
    chrome_trace_json, overlay_chrome_trace, timelines_to_json, BlockReason, Span, SpanKind,
    Timeline,
};
