//! # ssp-runtime — processes and channels for simulated-parallel programs
//!
//! This crate is the execution substrate for the parallelization methodology
//! of Massingill's *"Experiments with Program Parallelization Using
//! Archetypes and Stepwise Refinement"* (IPPS 1998). The paper's target
//! parallel program (§3.1) is:
//!
//! 1. a collection of `N` sequential, **deterministic** processes;
//! 2. processes do not share variables; each has a distinct address space;
//! 3. processes interact only through sends and blocking receives on
//!    **single-reader single-writer channels with infinite slack**
//!    (i.e. unbounded capacity);
//! 4. an execution is a fair interleaving of actions from processes.
//!
//! The crate provides exactly that model, twice:
//!
//! * [`sim::Simulator`] — a deterministic *simulated* runner that interleaves
//!   process actions one at a time under a pluggable [`policy::SchedulePolicy`]
//!   (round-robin, seeded-random, adversarial, or a fixed replayed schedule).
//!   This is the tool with which Theorem 1 — *all maximal interleavings from
//!   the same initial state terminate in the same final state* — is exercised:
//!   run the same process collection under many different policies and compare
//!   the final state snapshots.
//! * [`threaded::run_threaded_with`] — a real parallel runner in which the `N`
//!   ranks execute as lightweight tasks multiplexed over a core-sized pool
//!   of worker threads with work stealing ([`sched`]), and channels are
//!   lock-free SPSC rings ([`spsc::SpscRing`]; a rank blocking on an
//!   empty/full edge parks its *task*, returning the worker to the pool).
//!   This corresponds to the parallel program the paper ultimately
//!   produces, with rank count a program-structure choice rather than a
//!   hardware one.
//!
//! Processes are written once, as implementations of [`proc::Process`], and
//! run unchanged on either runner. A process is a resumable state machine:
//! each call to [`proc::Process::resume`] performs one atomic action and
//! returns an [`proc::Effect`] telling the runner what happened (a local
//! computation, a send, a receive request, or termination).
//!
//! The two runners meet at a *consistent cut*. Theorem 1 makes a cut of the
//! processes plus the steps after it just another maximal interleaving, so
//! a run may stop on one runner and finish on the other. There is one path
//! for that: a [`sim::Simulator`] (clone it to keep a cut) exports its state
//! by move as a [`sched::PartialSeed`] ([`sim::Simulator::into_seed`]) —
//! the one typed form of a cut, and what the scheduler's one launcher
//! starts every run from, fresh ([`sched::PartialSeed::fresh`]) or resumed,
//! whole program or a hosted subset of ranks ([`sched::launch_partial`]).
//! [`recover`] builds checkpoint/restart on it and gives a cut its one wire
//! form, the sealed [`recover::GroupManifest`]; both carry a rank's status
//! as a [`sim::ProcState`].
//!
//! A run's actions have one vocabulary on every backend:
//! [`trace::FlightEvent`]. The pool's flight recorder stamps them with wall
//! time; the simulator reports the same kinds, with the same `chan` and
//! `bytes`, to a closure at every step, untimed. Every simulated run goes
//! through one pick loop and is recorded once, as its picks; the `perf-sim`
//! discrete-event engine consumes its events, pricing the run as it goes.
//! External steppers (exhaustive enumeration, the distributed supervisor's
//! shadow) drive the same simulator through
//! [`sim::Simulator::step_process_with`] instead of re-implementing it.
//!
//! Channels are declared up front in a [`chan::Topology`], which statically
//! checks the single-reader single-writer restriction. Channels have infinite
//! slack by default; a bounded capacity can be requested per channel (or
//! uniformly via [`chan::Topology::with_uniform_capacity`]) to demonstrate
//! why the paper's infinite-slack assumption matters — bounded channels admit
//! deadlocks that unbounded ones do not. Deadlocks are never silent: the
//! simulator reports the wait-for cycle as a typed
//! [`error::RunError::Deadlock`], and the threaded runner does the same via
//! a watchdog ([`threaded::ThreadedConfig::watchdog`]). Both runners also
//! produce a [`trace::RunMetrics`] communication profile (message counts,
//! payload bytes, queue-depth high-water marks, block time), dumpable as
//! JSON.
#![warn(missing_docs)]

pub mod chan;
pub mod error;
pub mod fault;
pub mod flight;
pub mod json;
pub mod policy;
pub mod pool;
pub mod proc;
pub mod recover;
pub mod rng;
pub mod sched;
pub mod sim;
pub mod spsc;
pub mod threaded;
pub mod trace;
pub mod waitgraph;

pub use chan::{ChannelId, ChannelSpec, Topology};
pub use error::RunError;
pub use fault::{Crash, FaultPlan, Stall};
pub use flight::{FlightRecorder, FlightSink, NoFlight, DEFAULT_FLIGHT_CAP, FLIGHT_DUMP_ENV};
pub use json::JsonValue;
pub use policy::{
    Adversary, AdversarialPolicy, FixedSchedule, RandomPolicy, RoundRobin, SchedulePolicy,
};
pub use pool::BufPool;
pub use proc::{Effect, ProcId, Process};
pub use spsc::{OverwriteRing, ParkSlot, SpscRing};
pub use recover::{
    fnv1a_64, run_recovering, GroupManifest, ManifestRank, RecoveryConfig, RecoveryOutcome,
    RecoveryStats,
};
pub use sched::{
    launch_partial, EgressSink, Gateway, LiveTelemetry, PartialOutcome, PartialRun, PartialSeed,
};
pub use sim::{run_simulated, ProcState, RunOutcome, Simulator};
pub use threaded::{run_threaded_faulted, run_threaded_with, ThreadedConfig, ThreadedOutcome};
pub use trace::{
    ChannelMetrics, FlightEvent, FlightKind, FlightLane, FlightLog, ProcMetrics, RunMetrics,
    SchedMetrics,
};
pub use waitgraph::{BlockKind, WaitFor};
