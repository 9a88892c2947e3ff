//! The executions of a mesh-archetype plan, one per rung of the paper's
//! refinement chain: sequential → simulated-parallel (P) → grouped (W) →
//! message-passing (P).
//!
//! | driver | paper artifact | address spaces | communication |
//! |---|---|---|---|
//! | [`run_seq`] | degenerate P = 1 | one | none |
//! | [`run_simpar`] | sequential simulated-parallel version (§2.2) | N simulated | assignments |
//! | [`run_msg_threaded_slack`], grouped ([`group_count`]) | simulated-parallel groups of contiguous ranks, message passing between groups | W ≤ pool workers | assignments inside a group; one message per group pair and phase |
//! | [`run_msg_simulated`] | message-passing program under a simulated scheduler (§3.1) | N | sends/receives on SRSW channels |
//! | [`run_msg_threaded`] | message-passing program on real threads | N | sends/blocking receives |
//!
//! All five execute every rank's floating-point operations in identical
//! order, so their results are bitwise identical — the experimental
//! observation of §4.5 ("the message-passing programs produced results
//! identical to those of the corresponding sequential simulated-parallel
//! versions, on the first and every execution"), here guaranteed by
//! construction and verified by the integration tests. The threaded runner
//! takes the grouped rung by itself when the ranks outnumber its pool and
//! the grid is small; otherwise it runs one process per rank.

mod msg;
mod seq;
mod simpar;
mod wire;

use crate::env::Env;

pub use msg::{
    build_msg_processes, build_msg_processes_for, build_msg_processes_hosted,
    build_msg_processes_with_slack, group_count, msg_topology, run_msg_predicted,
    run_msg_predicted_slack, run_msg_recovering, run_msg_simulated, run_msg_simulated_hosted,
    run_msg_simulated_slack, run_msg_threaded, run_msg_threaded_slack, MeshMsg, MsgProcess,
    GROUPING_CELLS_PER_WORKER,
};
pub use seq::run_seq;
pub use wire::{decode_mesh_msg, encode_mesh_msg};
pub use simpar::{
    ordered_sum, run_simpar, try_run_simpar, HostMode, SimParConfig, SimParOutcome,
};

/// Local state of a mesh process: anything sendable with a canonical byte
/// snapshot. Snapshots are how final states are compared across drivers and
/// across interleavings (bitwise, per the paper's standard of "identical
/// results").
///
/// A grouped threaded run may *fuse* contiguous ranks whose blocks tile a
/// box into one section: it builds the box's state with the plan's init on
/// an [`Env`] whose `block` is the box (and whose `rank` is the box's first
/// rank), runs the plan's cellwise blocks on it once, and cuts each rank's
/// state out with [`MeshLocal::cut`] for its snapshot (DESIGN.md §12). For
/// a fusable local, init must therefore depend only on `env.block` and
/// `env.pg`, never on `env.rank`.
pub trait MeshLocal: Send + 'static {
    /// Canonical byte encoding of the observable final state.
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// The state the rank of `member` would hold, cut out of this state of
    /// the box `whole` (which holds `member.block`): what makes the box's
    /// per-rank snapshots those of the per-rank program. `None`, the
    /// default, means this local never fuses.
    fn cut(&self, whole: &Env, member: &Env) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = (whole, member);
        None
    }
}

/// A [`MeshLocal`] whose *complete* dynamic state round-trips through
/// bytes — what checkpoint-resumed migration needs (where
/// [`MeshLocal::snapshot_bytes`] only needs the observable final state).
///
/// Decoding is template-based: static configuration (geometry, physics
/// parameters, compiled plans) is rebuilt from the workload spec on the
/// receiving worker, and only the evolving state crosses the wire. The
/// contract is bitwise: `decode_local(&t, &x.encode_local())` must be
/// indistinguishable from `x` to every future step — the distributed
/// suites hold resumed runs to byte-identical final snapshots.
pub trait MeshLocalCodec: MeshLocal + Sized {
    /// Encode the evolving state (template fields may be skipped).
    fn encode_local(&self) -> Vec<u8>;
    /// Rebuild from `template` (a freshly initialized rank-local state for
    /// the same spec and rank) plus the encoded bytes, read through `r`: a
    /// reader over exactly what [`MeshLocalCodec::encode_local`] wrote,
    /// whose errors already name the rank. Must fail typed on any malformed
    /// input — this path reads network bytes; the caller rejects trailing
    /// bytes.
    fn decode_local(
        template: &Self,
        r: &mut ssp_runtime::proc::Reader<'_>,
    ) -> Result<Self, ssp_runtime::RunError>;
}
