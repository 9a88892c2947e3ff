//! # ssp-dist — multi-process distributed backend with live rank migration
//!
//! The third execution substrate for the paper's message-passing programs,
//! after the deterministic simulator and the in-process M:N scheduler: a
//! **supervisor process** plus N **worker processes** connected by
//! Unix-domain sockets speaking a length-prefixed frame protocol.
//!
//! * [`frame`] — the wire format: `[u32 le length][u8 type][payload]`.
//! * [`proto`] — control payloads, all binary and read through the
//!   runtime's one bounds-checked reader. A group's life is two frames:
//!   ASSIGN (workload spec, ranks, plane, peer table, resume manifest) and
//!   GROUP_DONE (snapshots, metrics, flight log).
//! * [`registry`] — named workloads both sides rebuild from a
//!   [`registry::WorkloadSpec`]; code never crosses the wire.
//! * [`worker`] — hosts *groups* (one [`ssp_runtime::launch_partial`]
//!   scheduler instance each) and bridges their cross-group channels to
//!   DATA frames: a cross-group send is written by the scheduler worker
//!   that performs it, and arrivals go in through one router.
//! * [`transport`] — direct worker↔worker sockets (Unix-domain or TCP)
//!   the supervisor brokers after ASSIGN, so steady-state DATA frames skip
//!   the star's double hop; the default plane.
//! * [`shm`] — a file-backed SPSC byte ring for co-located workers (the
//!   opt-in `direct+shm` plane); halo payloads move through shared
//!   memory, only a 32-byte doorbell rides the peer socket.
//! * [`supervisor`] — owns the topology, logs every cross-group message
//!   (and, in star mode, forwards it), brokers peer introductions, takes
//!   periodic shadow checkpoints, and on a worker death migrates the dead
//!   ranks onto a survivor or a fresh process, resuming from the last
//!   checkpoint and replaying only the bounded in-flight window.
//!
//! The correctness claim, inherited from the paper's Theorem 1: processes
//! are deterministic and interact only via SRSW channels, so a rank rebuilt
//! from its initial state in another process — fed the same channel history
//! — reaches the same state, and the whole distributed run's final
//! snapshots are **bitwise identical** to the single-process simulator's,
//! migrations and all. The integration tests assert exactly that, including
//! under a mid-run SIGKILL.
#![warn(missing_docs)]

pub mod frame;
pub mod proto;
pub mod registry;
pub mod shm;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use proto::{PeerTable, WorkerTelemetry};
pub use registry::{
    build_workload, fdtd_a_args, fdtd_a_overlap_args, ring_args, ProgramShadow, Workload,
};
pub use supervisor::{
    run_distributed, ChaosKill, DistConfig, DistOutcome, DistStats, MigrationPolicy, TransportMode,
    WorkerRow,
};
pub use transport::{PeerAddr, PeerListener, PeerStream};
pub use worker::worker_main;
