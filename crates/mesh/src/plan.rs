//! The archetype program representation: a [`Plan`] of [`Phase`]s.
//!
//! A mesh-archetype program is *"an alternating sequence of local-computation
//! blocks and data-exchange operations"* (§2.2), where the data-exchange
//! operations are drawn from the archetype's fixed menu (§4.2): boundary
//! exchange, reduction, broadcast, and host↔grid redistribution for file
//! I/O. A [`Plan`] is that sequence, written once and executed by any of the
//! drivers ([`crate::driver`]). Control structure is limited to what
//! the archetype admits: fixed-count loops and loops governed by a
//! *replicated* global predicate (e.g. "iterate until the residual reduction
//! falls below ε").

use std::sync::Arc;

use meshgrid::halo::{slab_len3, Face3, FaceSet3};
use meshgrid::{Block3, Grid3};
use ssp_runtime::RunError;

use crate::env::Env;
use crate::reduce::{ReduceAlgo, ReduceOp};
use crate::sum::SumMethod;

/// A local-computation body: may read the environment and mutate only this
/// process's local state. A step that detects an unrunnable configuration
/// (e.g. degenerate boundary geometry) returns `Err`, which the drivers
/// surface as a typed fault instead of a panic.
pub type LocalFn<L> = Arc<dyn Fn(&Env, &mut L) -> Result<(), RunError> + Send + Sync>;
/// Reports the abstract cost (flops) of one execution of a local step.
pub type FlopsFn<L> = Arc<dyn Fn(&Env, &L) -> u64 + Send + Sync>;
/// Accessor selecting the exchanged/gathered grid field inside `L`.
pub type FieldFn<L> = Arc<dyn Fn(&mut L) -> &mut Grid3<f64> + Send + Sync>;
/// Extracts this process's contribution vector to a reduction or broadcast.
pub type ExtractFn<L> = Arc<dyn Fn(&Env, &L) -> Vec<f64> + Send + Sync>;
/// Installs a reduction/broadcast result into local state (all ranks — copy
/// consistency for replicated globals).
pub type InjectFn<L> = Arc<dyn Fn(&Env, &mut L, &[f64]) + Send + Sync>;
/// Extracts globally-indexed contributions for an ordered reduction.
pub type ContribFn<L> = Arc<dyn Fn(&Env, &L) -> Vec<Contribution> + Send + Sync>;
/// A loop predicate over replicated local state; must evaluate identically
/// on every rank (ranks that disagree are a protocol fault).
pub type PredFn<L> = Arc<dyn Fn(&L) -> bool + Send + Sync>;
/// Produces the global grid to scatter (called on the host rank only).
pub type GridSourceFn<L> = Arc<dyn Fn(&L) -> Grid3<f64> + Send + Sync>;
/// Consumes the assembled global grid (called on the host rank only).
pub type GridSinkFn<L> = Arc<dyn Fn(&mut L, &Grid3<f64>) + Send + Sync>;
/// Builds each rank's initial local state.
pub type InitFn<L> = Arc<dyn Fn(&Env) -> L + Send + Sync>;

/// One globally-ordered addend of an ordered reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// Which output bin (e.g. far-field time-step) the value adds into.
    pub bin: u32,
    /// Global ordering key (e.g. lexicographic surface-point index); the
    /// ordered reduction sums each bin's values in ascending `order`, so the
    /// result is independent of how points were distributed over processes.
    pub order: u64,
    /// The addend.
    pub value: f64,
}

/// A named local-computation block.
pub struct LocalStep<L> {
    /// Name for traces and reports.
    pub name: String,
    /// The computation.
    pub f: LocalFn<L>,
    /// Cost estimate for the machine model.
    pub flops: FlopsFn<L>,
    /// Declared *cellwise* ([`PlanBuilder::cellwise`]): running the block
    /// once on a box tiled by several ranks' blocks equals running it on
    /// each of those blocks in turn, so a grouped run may fuse them.
    pub cellwise: bool,
}

impl<L> Clone for LocalStep<L> {
    fn clone(&self) -> Self {
        LocalStep {
            name: self.name.clone(),
            f: self.f.clone(),
            flops: self.flops.clone(),
            cellwise: self.cellwise,
        }
    }
}

/// One part of a boundary exchange: a grid field and the ghost faces of it
/// the exchange refreshes.
pub struct ExchangePart<L> {
    /// The field whose ghost boundary is refreshed.
    pub field: FieldFn<L>,
    /// Which of the field's ghost faces are refreshed. A rank fills ghost
    /// face `f` from the neighbour across `f`, which sends the interior
    /// slab on its own face `f.opposite()`.
    pub ghosts: FaceSet3,
}

impl<L> Clone for ExchangePart<L> {
    fn clone(&self) -> Self {
        ExchangePart { field: self.field.clone(), ghosts: self.ghosts }
    }
}

/// A boundary-exchange operation: a list of [`ExchangePart`]s moved
/// together. Every link a part crosses carries *one* message per exchange,
/// the slabs of all parts crossing it concatenated in part order; a link no
/// part crosses carries none.
pub struct ExchangeSpec<L> {
    /// Name for traces.
    pub name: String,
    /// The parts, in wire order.
    pub parts: Vec<ExchangePart<L>>,
}

impl<L> Clone for ExchangeSpec<L> {
    fn clone(&self) -> Self {
        ExchangeSpec { name: self.name.clone(), parts: self.parts.clone() }
    }
}

impl<L> ExchangeSpec<L> {
    /// An exchange with no parts yet.
    pub fn new(name: &str) -> Self {
        ExchangeSpec { name: name.to_string(), parts: Vec::new() }
    }

    /// Append a part: refresh the `ghosts` faces of `field`.
    pub fn part(
        mut self,
        field: impl Fn(&mut L) -> &mut Grid3<f64> + Send + Sync + 'static,
        ghosts: FaceSet3,
    ) -> Self {
        self.parts.push(ExchangePart { field: Arc::new(field), ghosts });
        self
    }

    /// The parts a rank sends through its own face `face`, with their
    /// index: those whose refreshed ghosts include the neighbour's name for
    /// the shared face.
    pub fn sent_through(&self, face: Face3) -> impl Iterator<Item = (usize, &ExchangePart<L>)> {
        self.received_through(face.opposite())
    }

    /// The parts a rank receives through its own face `face`, with their
    /// index.
    pub fn received_through(
        &self,
        face: Face3,
    ) -> impl Iterator<Item = (usize, &ExchangePart<L>)> {
        self.parts.iter().enumerate().filter(move |(_, p)| p.ghosts.contains(face))
    }

    /// Number of values in the message this rank sends through `face`.
    /// `at` is the rank's block inside `local`'s fields when they hold
    /// several ranks' blocks; `None` is each field's whole interior.
    pub fn packed_len(&self, local: &mut L, at: Option<Block3>, face: Face3) -> usize {
        self.sent_through(face)
            .map(|(_, part)| {
                let field = (part.field)(local);
                slab_len3(block_of(field, at).extent(), field.ghost(), face)
            })
            .sum()
    }

    /// Number of values in the message this rank receives through `face`.
    pub(crate) fn received_len(&self, local: &mut L, at: Option<Block3>, face: Face3) -> usize {
        self.packed_len(local, at, face.opposite())
    }

    /// Pack the message this rank sends through `face` — the interior slabs
    /// of every part crossing it, in part order — appending to `out`. `at`
    /// is as in [`ExchangeSpec::packed_len`].
    pub fn pack(&self, local: &mut L, at: Option<Block3>, face: Face3, out: &mut Vec<f64>) {
        for (_, part) in self.sent_through(face) {
            let field = (part.field)(local);
            meshgrid::halo::extract_block_face3_into(field, &block_of(field, at), face, out);
        }
    }

    /// Install a message received through `face` into the ghost slabs of
    /// every part crossing it (`at` as in [`ExchangeSpec::packed_len`]).
    /// The whole payload is measured against the parts before any ghost is
    /// written, so on error `local` is untouched.
    pub fn unpack(
        &self,
        local: &mut L,
        at: Option<Block3>,
        face: Face3,
        payload: &[f64],
    ) -> Result<(), String> {
        let (mut end, mut last) = (0, 0);
        for (i, part) in self.received_through(face) {
            let field = (part.field)(local);
            end += slab_len3(block_of(field, at).extent(), field.ghost(), face);
            last = i;
            if end > payload.len() {
                return Err(format!(
                    "part {i} of exchange '{}' ends at value {end}, payload holds {}",
                    self.name,
                    payload.len()
                ));
            }
        }
        if end != payload.len() {
            return Err(format!(
                "payload holds {} values, {} past the end of part {last} (the last) of \
                 exchange '{}'",
                payload.len(),
                payload.len() - end,
                self.name
            ));
        }
        let mut from = 0;
        for (i, part) in self.received_through(face) {
            let field = (part.field)(local);
            let block = block_of(field, at);
            let n = slab_len3(block.extent(), field.ghost(), face);
            meshgrid::halo::try_insert_block_ghost3(field, &block, face, &payload[from..from + n])
                .map_err(|e| format!("part {i} of exchange '{}': {e}", self.name))?;
            from += n;
        }
        Ok(())
    }
}

/// The block of `field` an exchange leg moves: `at`, or the whole interior.
fn block_of(field: &Grid3<f64>, at: Option<Block3>) -> Block3 {
    at.unwrap_or_else(|| Block3::at_origin(field.extent()))
}

/// An elementwise reduction over per-rank contribution vectors.
pub struct ReduceSpec<L> {
    /// Name for traces.
    pub name: String,
    /// Combining operator.
    pub op: ReduceOp,
    /// Communication pattern.
    pub algo: ReduceAlgo,
    /// Per-rank partial.
    pub extract: ExtractFn<L>,
    /// Result installation (runs on every rank).
    pub inject: InjectFn<L>,
}

impl<L> Clone for ReduceSpec<L> {
    fn clone(&self) -> Self {
        ReduceSpec {
            name: self.name.clone(),
            op: self.op,
            algo: self.algo,
            extract: self.extract.clone(),
            inject: self.inject.clone(),
        }
    }
}

/// A deterministic-order sum: contributions are gathered to the host rank,
/// sorted by `(bin, order)`, summed per bin with `method`, and the per-bin
/// totals distributed to every rank. The result is *independent of the
/// process count* — with `method = Naive` it bitwise-matches the sequential
/// program that sums the same contributions in the same global order. This
/// is the repo's implementation of the "more sophisticated strategy" §4.5
/// leaves as future work.
pub struct OrderedReduceSpec<L> {
    /// Name for traces.
    pub name: String,
    /// Number of output bins.
    pub n_bins: usize,
    /// Summation arithmetic.
    pub method: SumMethod,
    /// Per-rank globally-indexed contributions.
    pub extract: ContribFn<L>,
    /// Result installation (`&[f64]` of length `n_bins`, every rank).
    pub inject: InjectFn<L>,
}

impl<L> Clone for OrderedReduceSpec<L> {
    fn clone(&self) -> Self {
        OrderedReduceSpec {
            name: self.name.clone(),
            n_bins: self.n_bins,
            method: self.method,
            extract: self.extract.clone(),
            inject: self.inject.clone(),
        }
    }
}

/// Broadcast of replicated global data from one rank to all.
pub struct BroadcastSpec<L> {
    /// Name for traces.
    pub name: String,
    /// The rank whose copy is authoritative.
    pub root: usize,
    /// Reads the payload on the root.
    pub get: ExtractFn<L>,
    /// Installs the payload (every rank, including the root — idempotence
    /// keeps the code path uniform).
    pub set: InjectFn<L>,
}

impl<L> Clone for BroadcastSpec<L> {
    fn clone(&self) -> Self {
        BroadcastSpec {
            name: self.name.clone(),
            root: self.root,
            get: self.get.clone(),
            set: self.set.clone(),
        }
    }
}

/// Gather a distributed field to the host rank as a global grid (the file-
/// *output* redistribution of §4.2).
pub struct GatherSpec<L> {
    /// Name for traces.
    pub name: String,
    /// The distributed field.
    pub field: FieldFn<L>,
    /// Receives the assembled global grid on the host rank.
    pub sink: GridSinkFn<L>,
}

impl<L> Clone for GatherSpec<L> {
    fn clone(&self) -> Self {
        GatherSpec { name: self.name.clone(), field: self.field.clone(), sink: self.sink.clone() }
    }
}

/// Scatter a global grid from the host rank into a distributed field (the
/// file-*input* redistribution of §4.2).
pub struct ScatterSpec<L> {
    /// Name for traces.
    pub name: String,
    /// Produces the global grid on the host rank.
    pub source: GridSourceFn<L>,
    /// The distributed destination field.
    pub field: FieldFn<L>,
}

impl<L> Clone for ScatterSpec<L> {
    fn clone(&self) -> Self {
        ScatterSpec {
            name: self.name.clone(),
            source: self.source.clone(),
            field: self.field.clone(),
        }
    }
}

/// One phase of a mesh-archetype program.
pub enum Phase<L> {
    /// A local-computation block.
    Local(LocalStep<L>),
    /// A boundary exchange.
    Exchange(ExchangeSpec<L>),
    /// The send half of a split boundary exchange: post this rank's face
    /// slabs to every neighbour and return without waiting. Must be paired
    /// with a later [`Phase::ExchangeRecv`] of the same parts, with no
    /// other communication on the same fields in between. The split lets a
    /// plan overlap local computation with the in-flight exchange
    /// (DESIGN.md §14).
    ExchangeSend(ExchangeSpec<L>),
    /// The receive half of a split boundary exchange: install every
    /// neighbour's face slabs into this rank's ghost layers.
    ExchangeRecv(ExchangeSpec<L>),
    /// An elementwise reduction.
    Reduce(ReduceSpec<L>),
    /// A deterministic-global-order reduction.
    OrderedReduce(OrderedReduceSpec<L>),
    /// A broadcast from one rank.
    Broadcast(BroadcastSpec<L>),
    /// Gather a field to the host rank.
    GatherGrid(GatherSpec<L>),
    /// Scatter a grid from the host rank.
    ScatterGrid(ScatterSpec<L>),
    /// A fixed-count loop over a sub-plan.
    Loop {
        /// Iteration count (known to all ranks).
        count: usize,
        /// Loop body.
        body: Vec<Phase<L>>,
    },
    /// A loop governed by a replicated-global predicate: body repeats while
    /// `pred` holds. The predicate must evaluate identically on every rank;
    /// a process hosting several ranks, the simulated-parallel program
    /// among them, checks this (§4.2's "simple control structures based on
    /// these global variables").
    While {
        /// Name for traces and error messages.
        name: String,
        /// Replicated predicate.
        pred: PredFn<L>,
        /// Loop body.
        body: Vec<Phase<L>>,
        /// Safety bound on iterations (a diverged predicate would otherwise
        /// hang the message-passing program).
        max_iters: u64,
    },
}

impl<L> Clone for Phase<L> {
    fn clone(&self) -> Self {
        match self {
            Phase::Local(s) => Phase::Local(s.clone()),
            Phase::Exchange(s) => Phase::Exchange(s.clone()),
            Phase::ExchangeSend(s) => Phase::ExchangeSend(s.clone()),
            Phase::ExchangeRecv(s) => Phase::ExchangeRecv(s.clone()),
            Phase::Reduce(s) => Phase::Reduce(s.clone()),
            Phase::OrderedReduce(s) => Phase::OrderedReduce(s.clone()),
            Phase::Broadcast(s) => Phase::Broadcast(s.clone()),
            Phase::GatherGrid(s) => Phase::GatherGrid(s.clone()),
            Phase::ScatterGrid(s) => Phase::ScatterGrid(s.clone()),
            Phase::Loop { count, body } => Phase::Loop { count: *count, body: body.clone() },
            Phase::While { name, pred, body, max_iters } => Phase::While {
                name: name.clone(),
                pred: pred.clone(),
                body: body.clone(),
                max_iters: *max_iters,
            },
        }
    }
}

impl<L> Phase<L> {
    /// The phase's display name.
    pub fn name(&self) -> &str {
        match self {
            Phase::Local(s) => &s.name,
            Phase::Exchange(s) => &s.name,
            Phase::ExchangeSend(s) => &s.name,
            Phase::ExchangeRecv(s) => &s.name,
            Phase::Reduce(s) => &s.name,
            Phase::OrderedReduce(s) => &s.name,
            Phase::Broadcast(s) => &s.name,
            Phase::GatherGrid(s) => &s.name,
            Phase::ScatterGrid(s) => &s.name,
            Phase::Loop { .. } => "loop",
            Phase::While { name, .. } => name,
        }
    }
}

/// A complete mesh-archetype program.
pub struct Plan<L> {
    /// Top-level phase sequence.
    pub phases: Vec<Phase<L>>,
}

impl<L> Clone for Plan<L> {
    fn clone(&self) -> Self {
        Plan { phases: self.phases.clone() }
    }
}

impl<L> Plan<L> {
    /// Start building a plan.
    pub fn builder() -> PlanBuilder<L> {
        PlanBuilder { phases: Vec::new() }
    }

    /// Count phases recursively (loop bodies counted once, not per
    /// iteration) — a proxy for "program length" used by effort metrics.
    pub fn phase_count(&self) -> usize {
        fn count<L>(phases: &[Phase<L>]) -> usize {
            phases
                .iter()
                .map(|p| match p {
                    Phase::Loop { body, .. } | Phase::While { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.phases)
    }

    /// Count communication phases recursively — the part of the program the
    /// archetype library absorbs (ease-of-use proxy, experiment E6).
    pub fn comm_phase_count(&self) -> usize {
        fn count<L>(phases: &[Phase<L>]) -> usize {
            phases
                .iter()
                .map(|p| match p {
                    Phase::Loop { body, .. } | Phase::While { body, .. } => count(body),
                    Phase::Local(_) => 0,
                    _ => 1,
                })
                .sum()
        }
        count(&self.phases)
    }
}

/// Fluent builder for [`Plan`]s.
pub struct PlanBuilder<L> {
    phases: Vec<Phase<L>>,
}

impl<L> PlanBuilder<L> {
    /// Append a local-computation block with zero cost estimate.
    pub fn local(self, name: &str, f: impl Fn(&Env, &mut L) + Send + Sync + 'static) -> Self {
        self.local_with_flops(name, f, |_, _| 0)
    }

    /// Append a local-computation block with a cost estimate for the
    /// machine model.
    pub fn local_with_flops(
        self,
        name: &str,
        f: impl Fn(&Env, &mut L) + Send + Sync + 'static,
        flops: impl Fn(&Env, &L) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.local_fallible_with_flops(
            name,
            move |env, l| {
                f(env, l);
                Ok(())
            },
            flops,
        )
    }

    /// Append a local-computation block with a cost estimate that may fail
    /// with a typed [`RunError`] (surfaced by the drivers as a fault, not a
    /// panic).
    pub fn local_fallible_with_flops(
        mut self,
        name: &str,
        f: impl Fn(&Env, &mut L) -> Result<(), RunError> + Send + Sync + 'static,
        flops: impl Fn(&Env, &L) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(Phase::Local(LocalStep {
            name: name.to_string(),
            f: Arc::new(f),
            flops: Arc::new(flops),
            cellwise: false,
        }));
        self
    }

    /// Declare the local block just appended *cellwise*: each cell's new
    /// values are computed from cells the preceding exchanges keep current,
    /// with no per-block quantity (a rank, a cell count, a partial sum)
    /// entering them. Then running the block once on a box that several
    /// ranks' blocks tile equals running it on each block in turn, and a
    /// grouped run may fuse those ranks into one section (DESIGN.md §12).
    ///
    /// Panics if the last phase is not a local block: a plan-construction
    /// bug, like a misplaced builder call.
    pub fn cellwise(mut self) -> Self {
        match self.phases.last_mut() {
            Some(Phase::Local(step)) => step.cellwise = true,
            _ => panic!("cellwise() must directly follow a local block"),
        }
        self
    }

    /// Append a boundary exchange of the field selected by `field`: one
    /// part, all six ghost faces.
    pub fn exchange(
        self,
        name: &str,
        field: impl Fn(&mut L) -> &mut Grid3<f64> + Send + Sync + 'static,
    ) -> Self {
        self.exchange_parts(ExchangeSpec::new(name).part(field, FaceSet3::ALL))
    }

    /// Append a boundary exchange carrying exactly the parts of `spec`.
    pub fn exchange_parts(mut self, spec: ExchangeSpec<L>) -> Self {
        self.phases.push(Phase::Exchange(spec));
        self
    }

    /// Append the send half of a split boundary exchange. Must precede a
    /// matching [`Self::exchange_recv`] of the same parts.
    pub fn exchange_send(mut self, spec: ExchangeSpec<L>) -> Self {
        self.phases.push(Phase::ExchangeSend(spec));
        self
    }

    /// Append the receive half of a split boundary exchange.
    pub fn exchange_recv(mut self, spec: ExchangeSpec<L>) -> Self {
        self.phases.push(Phase::ExchangeRecv(spec));
        self
    }

    /// Append an elementwise reduction.
    pub fn reduce(
        mut self,
        name: &str,
        op: ReduceOp,
        algo: ReduceAlgo,
        extract: impl Fn(&Env, &L) -> Vec<f64> + Send + Sync + 'static,
        inject: impl Fn(&Env, &mut L, &[f64]) + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(Phase::Reduce(ReduceSpec {
            name: name.to_string(),
            op,
            algo,
            extract: Arc::new(extract),
            inject: Arc::new(inject),
        }));
        self
    }

    /// Append a deterministic-global-order reduction.
    pub fn ordered_reduce(
        mut self,
        name: &str,
        n_bins: usize,
        method: SumMethod,
        extract: impl Fn(&Env, &L) -> Vec<Contribution> + Send + Sync + 'static,
        inject: impl Fn(&Env, &mut L, &[f64]) + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(Phase::OrderedReduce(OrderedReduceSpec {
            name: name.to_string(),
            n_bins,
            method,
            extract: Arc::new(extract),
            inject: Arc::new(inject),
        }));
        self
    }

    /// Append a broadcast from `root`.
    pub fn broadcast(
        mut self,
        name: &str,
        root: usize,
        get: impl Fn(&Env, &L) -> Vec<f64> + Send + Sync + 'static,
        set: impl Fn(&Env, &mut L, &[f64]) + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(Phase::Broadcast(BroadcastSpec {
            name: name.to_string(),
            root,
            get: Arc::new(get),
            set: Arc::new(set),
        }));
        self
    }

    /// Append a gather of `field` to the host rank, delivered to `sink`.
    pub fn gather_grid(
        mut self,
        name: &str,
        field: impl Fn(&mut L) -> &mut Grid3<f64> + Send + Sync + 'static,
        sink: impl Fn(&mut L, &Grid3<f64>) + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(Phase::GatherGrid(GatherSpec {
            name: name.to_string(),
            field: Arc::new(field),
            sink: Arc::new(sink),
        }));
        self
    }

    /// Append a scatter of the host's `source` grid into `field`.
    pub fn scatter_grid(
        mut self,
        name: &str,
        source: impl Fn(&L) -> Grid3<f64> + Send + Sync + 'static,
        field: impl Fn(&mut L) -> &mut Grid3<f64> + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(Phase::ScatterGrid(ScatterSpec {
            name: name.to_string(),
            source: Arc::new(source),
            field: Arc::new(field),
        }));
        self
    }

    /// Append a fixed-count loop whose body is built by `build`.
    pub fn loop_n(mut self, count: usize, build: impl FnOnce(PlanBuilder<L>) -> PlanBuilder<L>) -> Self {
        let body = build(PlanBuilder { phases: Vec::new() }).phases;
        self.phases.push(Phase::Loop { count, body });
        self
    }

    /// Append a replicated-predicate loop.
    pub fn while_loop(
        mut self,
        name: &str,
        pred: impl Fn(&L) -> bool + Send + Sync + 'static,
        max_iters: u64,
        build: impl FnOnce(PlanBuilder<L>) -> PlanBuilder<L>,
    ) -> Self {
        let body = build(PlanBuilder { phases: Vec::new() }).phases;
        self.phases.push(Phase::While {
            name: name.to_string(),
            pred: Arc::new(pred),
            body,
            max_iters,
        });
        self
    }

    /// Finish the plan.
    pub fn build(self) -> Plan<L> {
        Plan { phases: self.phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;

    #[test]
    fn builder_produces_named_phases_in_order() {
        let plan: Plan<Dummy> = Plan::builder()
            .local("init", |_, _| {})
            .loop_n(3, |b| {
                b.local("step", |_, _| {}).exchange("halo", |_l| {
                    unreachable!("accessor not called in this test")
                })
            })
            .reduce(
                "norm",
                ReduceOp::Sum,
                ReduceAlgo::AllToOne,
                |_, _| vec![],
                |_, _, _| {},
            )
            .build();
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.phases[0].name(), "init");
        assert_eq!(plan.phases[1].name(), "loop");
        assert_eq!(plan.phases[2].name(), "norm");
        assert_eq!(plan.phase_count(), 5);
        assert_eq!(plan.comm_phase_count(), 2);
    }

    struct Two {
        u: Grid3<f64>,
        v: Grid3<f64>,
    }

    #[test]
    fn pack_and_unpack_move_the_crossing_parts_in_part_order() {
        use meshgrid::halo::Face3::{XHi, XLo, YHi};
        let spec: ExchangeSpec<Two> = ExchangeSpec::new("uv")
            .part(|l: &mut Two| &mut l.u, FaceSet3::of(&[XHi, YHi]))
            .part(|l: &mut Two| &mut l.v, FaceSet3::of(&[XHi]));
        let mut src = Two {
            u: Grid3::from_fn(2, 3, 2, 1, |i, j, k| (100 + i * 10 + j * 2 + k) as f64),
            v: Grid3::from_fn(2, 3, 2, 1, |i, j, k| (200 + i * 10 + j * 2 + k) as f64),
        };
        // Toward the neighbour's XHi ghost: both parts, through our XLo.
        assert_eq!(spec.sent_through(XLo).map(|(i, _)| i).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(spec.sent_through(XHi).count(), 0, "nobody refreshes an XLo ghost");
        let mut msg = Vec::new();
        spec.pack(&mut src, None, XLo, &mut msg);
        assert_eq!(msg.len(), spec.packed_len(&mut src, None, XLo));
        assert_eq!(msg.len(), 12);
        assert_eq!(msg[0], 100.0);
        assert_eq!(msg[6], 200.0);

        let fresh = || Two { u: Grid3::new(2, 3, 2, 1), v: Grid3::new(2, 3, 2, 1) };
        let mut dst = fresh();
        spec.unpack(&mut dst, None, XHi, &msg).unwrap();
        assert_eq!(dst.u.get(2, 0, 0), 100.0);
        assert_eq!(dst.v.get(2, 2, 1), 205.0);

        // Any wrong length is refused before a single ghost is written.
        for (bad, needle) in [
            (&msg[..11], "part 1"),
            (&msg[..6], "part 1"),
            (&msg[..5], "part 0"),
            (&[msg.as_slice(), &[9.0]].concat()[..], "1 past the end of part 1"),
        ] {
            let mut dst = fresh();
            let err = spec.unpack(&mut dst, None, XHi, bad).unwrap_err();
            assert!(err.contains(needle) && err.contains("'uv'"), "{err}");
            assert_eq!(dst.u, fresh().u, "failed unpack must not write");
            assert_eq!(dst.v, fresh().v);
        }
    }

    #[test]
    fn plans_are_cloneable() {
        let plan: Plan<Dummy> = Plan::builder().local("a", |_, _| {}).build();
        let plan2 = plan.clone();
        assert_eq!(plan2.phases.len(), 1);
    }
}
