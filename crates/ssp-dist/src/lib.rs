//! # ssp-dist — multi-process distributed backend with live rank migration
//!
//! The third execution substrate for the paper's message-passing programs,
//! after the deterministic simulator and the in-process M:N scheduler: a
//! **supervisor process** plus N **worker processes** connected by
//! Unix-domain sockets speaking a length-prefixed frame protocol.
//!
//! * [`frame`] — the wire format: `[u32 le length][u8 type][payload]`.
//! * [`proto`] — control payloads, all binary and read through the
//!   runtime's one bounds-checked reader. A group starts with one ASSIGN
//!   (workload spec, ranks, plane, peer table, resume manifest) and ends
//!   with one SNAPSHOT per rank, sent from the snapshot's own buffer and
//!   kept in the frame's own buffer, then one GROUP_DONE (metrics, flight
//!   log).
//! * [`registry`] — named workloads both sides rebuild from a
//!   [`registry::WorkloadSpec`]; code never crosses the wire.
//! * [`worker`] — hosts *groups* (one [`ssp_runtime::launch_partial`]
//!   scheduler instance each) and bridges their cross-group channels to
//!   DATA frames: a cross-group send is written by the scheduler worker
//!   that performs it, after it is appended to the worker's own send log
//!   for that channel, and arrivals go in through one router.
//! * [`transport`] — direct worker↔worker sockets (Unix-domain or TCP)
//!   the supervisor brokers after ASSIGN, so steady-state DATA frames skip
//!   the star's double hop; the default plane.
//! * [`shm`] — a file-backed SPSC byte ring for co-located workers (the
//!   opt-in `direct+shm` plane); halo payloads move through shared
//!   memory, only a 32-byte doorbell rides the peer socket.
//! * [`supervisor`] — owns the topology, forwards star and relayed
//!   messages (both `DATA` frames), brokers peer introductions, keeps
//!   each group's latest checkpoint (which each group takes alone) and
//!   forwards its readers' frontiers to the writers, and on a worker
//!   death restarts each of its groups on a survivor or a fresh process,
//!   from the group's own latest checkpoint, naming the channels the
//!   writers replay from their send logs. It keeps no message log of its
//!   own and sends no probe: it waits on events alone, and a worker's
//!   death reaches it as its socket's EOF, or as a failed write.
//!
//! The correctness claim, inherited from the paper's Theorem 1: processes
//! are deterministic and interact only via SRSW channels, so a rank rebuilt
//! from its initial state in another process — fed the same channel history
//! — reaches the same state, and the whole distributed run's final
//! snapshots are **bitwise identical** to the single-process simulator's,
//! migrations and all. The integration tests assert exactly that, including
//! under a mid-run SIGKILL.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod proto;
pub mod registry;
pub mod shm;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use proto::PeerTable;
pub use registry::{build_workload, fdtd_a_args, ring_args, Workload};
pub use supervisor::{
    run_distributed, ChaosKill, DistConfig, DistOutcome, DistStats, MigrationPolicy, TransportMode,
};
pub use transport::{PeerAddr, PeerListener, PeerStream};
pub use worker::worker_main;
