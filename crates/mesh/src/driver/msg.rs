//! The message-passing driver: the paper's final, formally justified
//! transformation applied to a mesh-archetype plan.
//!
//! Each simulated process of the simulated-parallel version becomes a real
//! [`ssp_runtime::Process`]; each data-exchange assignment becomes a
//! send/receive pair on a single-reader single-writer channel, with **all
//! sends of an exchange performed before any receives** (§3.3) so no
//! process ever reads an empty channel that will never be written. The plan
//! is compiled per process into a flat list of [`Op`]s with explicit control
//! flow; the resulting processes run unchanged on the simulated scheduler
//! (any interleaving policy) or on real OS threads.
//!
//! A process hosts one rank or a *group* of contiguous ranks. A group is the
//! simulated-parallel program in miniature: it runs its members' local
//! blocks one after another and performs the assignments between its own
//! members directly. Only assignments that cross to another process become
//! messages, one per process pair and phase, carrying every crossing slab
//! (or partial, contributions, block) in rank order. A process hosting one
//! rank is exactly the per-rank program, so one interpreter, behind one
//! [`compile`], serves every [`Placement`]; [`run_msg_threaded_slack`] picks
//! the grouped one when the ranks outnumber the pool and the grid is small
//! ([`group_count`]).
//!
//! A group's member is one rank, or — *fused* — a run of contiguous ranks
//! whose blocks tile a box, held as one section. A group fuses when every
//! phase of the plan is a cellwise local block, an exchange or a loop, and
//! its local can cut a rank's state out of a box's ([`MeshLocal::cut`]).
//! Then each cellwise block runs once per box; an exchange between ranks of
//! one box compiles to nothing, because their ghost cells are the box's
//! interior cells; between boxes of a group it is an assignment at the
//! ranks' offsets; between groups the coalesced message is byte for byte
//! the unfused one. A plan with anything else keeps one-rank members.
//!
//! One process hosting every rank is §2.2's simulated-parallel program:
//! every exchange an assignment, no channel ([`crate::driver::run_simpar`]).
//!
//! Every placement performs each rank's floating-point operations in the
//! same order — same reduction schedules, same stable ordered-sum, same
//! slab encodings — so every placement's snapshots, W = 1 to W = P, are
//! bitwise identical: Theorem 1 made concrete.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use ssp_runtime::proc::{push_bytes, push_f64s, push_u32, push_u64, Reader};
use ssp_runtime::{
    BufPool, ChannelId, Effect, Process, RoundRobin, RunError, RunOutcome, SchedulePolicy,
    Simulator, ThreadedConfig, ThreadedOutcome, Topology,
};

use machine_model::MachineModel;
use meshgrid::halo::Face3;
use meshgrid::{Block3, Grid3, ProcGrid3};

use crate::driver::simpar::HostMode;
use crate::driver::wire::{push_contribs, read_contribs};
use crate::driver::{MeshLocal, MeshLocalCodec};
use crate::env::Env;
use crate::exchange::{face_links, FaceLink};
use crate::plan::{
    Contribution, ExchangeSpec, GatherSpec, LocalStep, OrderedReduceSpec, Phase, Plan, PredFn,
    ReduceSpec, ScatterSpec,
};
use crate::plan::{BroadcastSpec, InitFn};
use crate::reduce::{ReduceOp, ReducePlan, ReduceStep};
use crate::sum::SumMethod;

/// The default host rank under [`HostMode::GridRank0`]; under
/// [`HostMode::Separate`] the host is the extra rank `pg.nprocs()`.
pub const HOST: usize = 0;

/// Grid cells per pool worker below which a threaded run groups its ranks.
/// Below it a rank's section is so small that parking its task at every
/// exchange costs more than the kernels it runs; above it one task per
/// worker idles that worker at every synchronisation (DESIGN.md §12).
pub const GROUPING_CELLS_PER_WORKER: usize = 32 * 32 * 32;

/// How many processes a threaded run of a program over `pg` uses on a pool
/// of `pool` workers: `pool` groups of ranks when the ranks outnumber the
/// workers and the grid holds fewer than [`GROUPING_CELLS_PER_WORKER`]
/// cells per worker, otherwise one process per rank.
pub fn group_count(pg: &ProcGrid3, pool: usize) -> usize {
    let (p, (nx, ny, nz)) = (pg.nprocs(), pg.n);
    let pool = pool.max(1);
    if pool < p && nx * ny * nz < GROUPING_CELLS_PER_WORKER * pool {
        pool
    } else {
        p
    }
}

/// The deterministic global-order summation every placement performs, so
/// all agree bitwise: contributions are concatenated in rank order, stably
/// sorted by `(bin, order)`, and each bin summed with `method`.
pub fn ordered_sum(mut contribs: Vec<Contribution>, n_bins: usize, method: SumMethod) -> Vec<f64> {
    contribs.sort_by_key(|a| (a.bin, a.order));
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); n_bins];
    for c in contribs {
        bins[c.bin as usize].push(c.value);
    }
    bins.into_iter().map(|b| method.sum(&b)).collect()
}

/// Messages carried on the mesh program's channels.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshMsg {
    /// Halo face slabs: one rank's, or a group's in rank order.
    Halo(Vec<f64>),
    /// Reduction partials / a broadcast payload / a result vector.
    Vec(Vec<f64>),
    /// Ordered-reduction contributions.
    Contribs(Vec<Contribution>),
    /// Gathered/scattered blocks of a global grid (interior, lexicographic;
    /// a group's in rank order).
    Block(Vec<f64>),
}

impl MeshMsg {
    /// The variant name, for protocol-violation diagnostics.
    fn kind(&self) -> &'static str {
        match self {
            MeshMsg::Halo(_) => "Halo",
            MeshMsg::Vec(_) => "Vec",
            MeshMsg::Contribs(_) => "Contribs",
            MeshMsg::Block(_) => "Block",
        }
    }

    /// Wire size of the payload: 8 bytes per `f64`; a contribution wires
    /// `(bin: u32, order: u64, value: f64)` = 20 bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            MeshMsg::Halo(v) | MeshMsg::Vec(v) | MeshMsg::Block(v) => 8 * v.len() as u64,
            MeshMsg::Contribs(c) => 20 * c.len() as u64,
        }
    }
}

/// One rank's share of a halo transfer: the boundary slabs through face
/// `face` of the rank's block (sending side) or the ghost slabs behind it
/// (receiving side), in member `m`'s fields; `peer` is the rank across the
/// face. `at` is the rank's block inside a fused member's box (`None`: the
/// member is the rank, its fields the whole block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leg {
    m: usize,
    face: Face3,
    peer: usize,
    at: Option<Block3>,
}

/// One reduction step landing on member `m`: partial `part` of a message,
/// combined into `m`'s partial or, for a distribution step, copied over it.
#[derive(Debug, Clone, Copy)]
struct Apply {
    part: usize,
    m: usize,
    combine: bool,
}

/// One instruction of the compiled per-process program. `m`, `from` and
/// `srcs` name members of the process (its ranks, by position); `dst` and
/// `src` name processes.
///
/// Specs are cloned into ops once, at compile ([`Lowering::flatten`]) time;
/// the finished program is frozen behind an `Arc` that every execution
/// step — and every checkpoint clone — merely shares. Steady-state
/// interpretation never clones a spec.
enum Op<L> {
    /// Run a local-computation block on member `m` (one `Compute` action).
    Local { step: Arc<LocalStep<L>>, m: usize },
    /// Send `dst` one message: each leg's boundary slabs of every part
    /// crossing its face, legs in order.
    SendFace { spec: Arc<ExchangeSpec<L>>, dst: usize, legs: Vec<Leg> },
    /// Receive `src`'s message into the ghost slabs of each leg.
    RecvFace { spec: Arc<ExchangeSpec<L>>, src: usize, legs: Vec<Leg> },
    /// The exchange between members as assignments: each `(sent, got)`
    /// fills `got`'s ghosts from `sent`'s boundary slabs.
    CopyFaces { spec: Arc<ExchangeSpec<L>>, copies: Vec<(Leg, Leg)> },
    /// Send half of a split exchange between members: pack the legs'
    /// boundary slabs now, for the matching [`Op::UnstageFaces`].
    StageFaces { spec: Arc<ExchangeSpec<L>>, legs: Vec<Leg> },
    /// Receive half: install the oldest staged slabs into the legs' ghosts.
    UnstageFaces { spec: Arc<ExchangeSpec<L>>, legs: Vec<Leg> },
    /// `scratch[m] ← extract(local[m])`.
    ReduceExtract { spec: Arc<ReduceSpec<L>>, m: usize },
    /// Send `dst` the current partials of members `srcs`.
    ReduceSend { dst: usize, srcs: Vec<usize> },
    /// A stage's steps between members: the pre-stage partials of `srcs`,
    /// applied as a received message would be.
    ReduceLocal { op: ReduceOp, srcs: Vec<usize>, applies: Vec<Apply> },
    /// Receive `parts` partials from `src` and apply them.
    ReduceRecv { src: usize, op: ReduceOp, parts: usize, applies: Vec<Apply> },
    /// `inject(local[m], scratch[m])`.
    ReduceInject { spec: Arc<ReduceSpec<L>>, m: usize },
    /// Append member `m`'s contributions to the gather buffer.
    OrdExtract { spec: Arc<OrderedReduceSpec<L>>, m: usize },
    /// Send the gathered contributions to the host.
    OrdSendContribs { dst: usize },
    /// Host: receive and append `src`'s contributions.
    OrdRecvContribs { src: usize },
    /// Host: sort, sum per bin, leave the result in `scratch[m]`.
    OrdFinish { spec: Arc<OrderedReduceSpec<L>>, m: usize },
    /// Host: send `scratch[from]` to `dst`.
    OrdSendResult { dst: usize, from: usize },
    /// Receive the result vector from the host into `scratch[0]`.
    OrdRecvResult { src: usize },
    /// `inject(local[m], scratch[from])`.
    OrdInject { spec: Arc<OrderedReduceSpec<L>>, m: usize, from: usize },
    /// Root: `scratch[m] ← get(local[m])`.
    BcastGet { spec: Arc<BroadcastSpec<L>>, m: usize },
    /// Root: send `scratch[from]` to `dst`.
    BcastSend { dst: usize, from: usize },
    /// Receive the payload from the root's process into `scratch[0]`.
    BcastRecv { src: usize },
    /// `set(local[m], scratch[from])` (runs on every rank).
    BcastSet { spec: Arc<BroadcastSpec<L>>, m: usize, from: usize },
    /// Send the host every member's field interior, in rank order.
    GatherSend { spec: Arc<GatherSpec<L>>, dst: usize },
    /// Host: start assembling — allocate the global grid and insert the
    /// blocks of its own grid ranks.
    GatherInit { spec: Arc<GatherSpec<L>> },
    /// Host: receive and insert the blocks of `src`'s `ranks`.
    GatherRecvBlock { src: usize, ranks: Vec<usize> },
    /// Host: deliver the assembled grid to member `m`'s sink.
    GatherFinish { spec: Arc<GatherSpec<L>>, m: usize },
    /// Host: build the global source grid from member `m`.
    ScatterInit { spec: Arc<ScatterSpec<L>>, m: usize },
    /// Host: send `dst` the blocks of its `ranks`.
    ScatterSendBlock { dst: usize, ranks: Vec<usize> },
    /// Host: copy its own grid ranks' blocks into their fields.
    ScatterSelf { spec: Arc<ScatterSpec<L>> },
    /// Receive every member's block from the host into its field.
    ScatterRecvBlock { spec: Arc<ScatterSpec<L>>, src: usize },
    /// Push a loop counter; if `count == 0` jump straight to `exit`.
    LoopStart { count: usize, exit: usize },
    /// Decrement the innermost loop counter; jump to `body` if non-zero,
    /// else pop it.
    LoopEnd { body: usize },
    /// Push a while-iteration budget.
    WhileStart { max_iters: u64 },
    /// Evaluate the predicate: jump to `exit` when it is false, fault when
    /// it is true with the innermost budget spent, else spend one iteration.
    WhileCheck { pred: PredFn<L>, exit: usize, name: String, max_iters: u64 },
    /// Jump back to the predicate check.
    WhileEnd { check: usize },
    /// Pop the innermost while budget.
    WhilePop,
}

impl<L> Op<L> {
    /// The [`MeshMsg`] variant a receive op consumes.
    fn expects(&self) -> &'static str {
        match self {
            Op::RecvFace { .. } => "Halo",
            Op::ReduceRecv { .. } | Op::OrdRecvResult { .. } | Op::BcastRecv { .. } => "Vec",
            Op::OrdRecvContribs { .. } => "Contribs",
            Op::GatherRecvBlock { .. } | Op::ScatterRecvBlock { .. } => "Block",
            _ => "no",
        }
    }
}

/// Where a compiled program runs: which of its W processes hosts which
/// ranks. The ranks are `pg`'s grid ranks and, under
/// [`HostMode::Separate`], the dedicated host last. They fall into W groups
/// of contiguous ranks whose sizes differ by at most one; W is clamped to
/// `1..=` the number of ranks. A process's members are runs of its ranks:
/// one rank each, or, fused, the maximal runs of grid ranks whose blocks
/// tile a box. [`compile`] builds the processes of any placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pg: ProcGrid3,
    host_mode: HostMode,
    /// `starts[p]..starts[p + 1]`: the ranks process `p` hosts.
    starts: Vec<usize>,
    /// `proc_of[rank]`: the process hosting `rank`.
    proc_of: Vec<usize>,
    /// `members[p]`: the rank runs of process `p`'s members, in rank order.
    members: Vec<Vec<Range<usize>>>,
    /// `member_of[rank]`: the position of `rank`'s member in its process.
    member_of: Vec<usize>,
}

impl Placement {
    /// One process per rank: the message-passing program. Probes nothing
    /// and builds no rank's state.
    pub fn per_rank(pg: &ProcGrid3, host_mode: HostMode) -> Placement {
        Placement::unfused(pg, host_mode, rank_count(pg, host_mode))
    }

    /// `w` groups of contiguous ranks. A group of several ranks fuses its
    /// runs that tile a box when every phase of `plan` is a cellwise local
    /// block, an exchange or a loop, and its local can cut a rank's state
    /// out of a box's (probed on rank 0's own block); otherwise its members
    /// are one rank each. At `w` ≥ the number of ranks this is
    /// [`Placement::per_rank`], and probes nothing.
    pub fn groups<L: MeshLocal>(
        plan: &Plan<L>,
        pg: &ProcGrid3,
        init: &dyn Fn(&Env) -> L,
        host_mode: HostMode,
        w: usize,
    ) -> Placement {
        let probe = || {
            let env = Env::new(*pg, 0);
            init(&env).cut(&env, &env).is_some()
        };
        if w < rank_count(pg, host_mode) && fuses(&plan.phases) && probe() {
            Placement::cut(pg, host_mode, w, |ranks| boxes(pg, ranks))
        } else {
            Placement::unfused(pg, host_mode, w)
        }
    }

    /// The threaded runner's placement on a pool of `workers`:
    /// [`group_count`] groups when it groups, else one process per rank.
    pub fn pool<L: MeshLocal>(
        plan: &Plan<L>,
        pg: &ProcGrid3,
        init: &dyn Fn(&Env) -> L,
        host_mode: HostMode,
        workers: usize,
    ) -> Placement {
        match group_count(pg, workers) {
            w if w < pg.nprocs() => Placement::groups(plan, pg, init, host_mode, w),
            _ => Placement::per_rank(pg, host_mode),
        }
    }

    /// Every rank in one process, as one-rank members: the
    /// simulated-parallel program (§2.2).
    pub(crate) fn simpar(pg: &ProcGrid3, host_mode: HostMode) -> Placement {
        Placement::unfused(pg, host_mode, 1)
    }

    /// `w` groups of one-rank members.
    fn unfused(pg: &ProcGrid3, host_mode: HostMode, w: usize) -> Placement {
        Placement::cut(pg, host_mode, w, |ranks| ranks.map(|r| r..r + 1).collect())
    }

    /// `w` groups, each cut into members by `members`.
    fn cut(
        pg: &ProcGrid3,
        host_mode: HostMode,
        w: usize,
        members: impl Fn(Range<usize>) -> Vec<Range<usize>>,
    ) -> Placement {
        let n = rank_count(pg, host_mode);
        let w = w.clamp(1, n);
        let starts: Vec<usize> = (0..=w).map(|p| p * n / w).collect();
        let proc_of = (0..w).flat_map(|p| (starts[p]..starts[p + 1]).map(move |_| p)).collect();
        let members: Vec<Vec<Range<usize>>> =
            (0..w).map(|p| members(starts[p]..starts[p + 1])).collect();
        let positions = |runs: &Vec<Range<usize>>| {
            let runs = runs.iter().enumerate();
            runs.flat_map(|(m, run)| run.clone().map(move |_| m)).collect::<Vec<_>>()
        };
        let member_of = members.iter().flat_map(positions).collect();
        Placement { pg: *pg, host_mode, starts, proc_of, members, member_of }
    }

    /// The number of processes, W.
    pub fn width(&self) -> usize {
        self.starts.len() - 1
    }

    /// The ranks process `p` hosts.
    fn ranks(&self, p: usize) -> Range<usize> {
        self.starts[p]..self.starts[p + 1]
    }

    /// The channel topology of the placed program: every pair of its
    /// processes connected. What [`compile`] returns, without building any
    /// rank's state.
    pub fn topology(&self) -> Topology {
        Topology::fully_connected(self.width())
    }

    /// The separate host's rank, if there is one.
    fn host(&self) -> Option<usize> {
        (self.host_mode == HostMode::Separate).then(|| self.pg.nprocs())
    }
}

/// Grid ranks plus the separate host, if there is one.
fn rank_count(pg: &ProcGrid3, host_mode: HostMode) -> usize {
    pg.nprocs() + usize::from(host_mode == HostMode::Separate)
}

/// `ranks` cut into maximal contiguous runs whose blocks tile a box, in
/// rank order: each run is the longest from the first rank left that does.
/// Ranks are numbered z-fastest, so the runs are z-columns, xy-slabs and
/// whole x-slabs. A separate host is a run of its own.
fn boxes(pg: &ProcGrid3, ranks: Range<usize>) -> Vec<Range<usize>> {
    let grid_end = ranks.end.min(pg.nprocs());
    let mut out = Vec::new();
    let mut a = ranks.start;
    while a < ranks.end {
        let b = (a + 2..=grid_end).rev().find(|&b| tiles_box(pg, a..b)).unwrap_or(a + 1);
        out.push(a..b);
        a = b;
    }
    out
}

/// True if the blocks of `ranks` tile a box: their process coordinates fill
/// the box the first and last rank's coordinates span.
fn tiles_box(pg: &ProcGrid3, ranks: Range<usize>) -> bool {
    let (lo, hi) = (pg.coords_of(ranks.start), pg.coords_of(ranks.end - 1));
    let side = |a: usize, b: usize| (b + 1).saturating_sub(a);
    let inside = |c: (usize, usize, usize)| {
        (lo.0..=hi.0).contains(&c.0) && (lo.1..=hi.1).contains(&c.1) && (lo.2..=hi.2).contains(&c.2)
    };
    side(lo.0, hi.0) * side(lo.1, hi.1) * side(lo.2, hi.2) == ranks.len()
        && ranks.into_iter().all(|r| inside(pg.coords_of(r)))
}

/// The box the blocks of `run` tile.
fn box_block(pg: &ProcGrid3, run: &Range<usize>) -> Block3 {
    Block3 { lo: pg.block(run.start).lo, hi: pg.block(run.end - 1).hi }
}

/// True if every phase of `phases` is a cellwise local block, an exchange,
/// or a loop of such phases: what lets a group fuse its members.
fn fuses<L>(phases: &[Phase<L>]) -> bool {
    phases.iter().all(|phase| match phase {
        Phase::Local(step) => step.cellwise,
        Phase::Exchange(_) => true,
        Phase::Loop { body, .. } | Phase::While { body, .. } => fuses(body),
        _ => false,
    })
}

/// Compiles the plan for process `me` of `placement`.
struct Lowering<'a> {
    placement: &'a Placement,
    /// `links[rank]`: each grid rank's [`face_links`], computed once per
    /// compile.
    links: &'a [Vec<FaceLink>],
    me: usize,
}

impl Lowering<'_> {
    fn proc_of(&self, rank: usize) -> usize {
        self.placement.proc_of[rank]
    }

    /// The position among its process's members of the member hosting
    /// `rank`.
    fn member(&self, rank: usize) -> usize {
        self.placement.member_of[rank]
    }

    /// The grid ranks of process `p` with the positions of their members.
    fn grid_members(&self, p: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.placement.pg.nprocs();
        self.placement.ranks(p).filter(move |&r| r < n).map(|r| (self.member(r), r))
    }

    /// The processes other than this one hosting `ranks`, in order of first
    /// appearance.
    fn others(&self, ranks: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut out = Vec::new();
        for p in ranks.into_iter().map(|r| self.proc_of(r)) {
            if p != self.me && !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Process `p`'s members holding grid ranks.
    fn grid_boxes(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.placement.pg.nprocs();
        let runs = self.placement.members[p].iter().enumerate();
        runs.filter(move |(_, run)| run.start < n).map(|(m, _)| m)
    }

    /// `rank`'s leg through `face`, to or from `peer`.
    fn leg(&self, rank: usize, face: Face3, peer: usize) -> Leg {
        let pg = &self.placement.pg;
        let run = &self.placement.members[self.proc_of(rank)][self.member(rank)];
        let at = (run.len() > 1).then(|| pg.block(rank).within(&box_block(pg, run)));
        Leg { m: self.member(rank), face, peer, at }
    }

    /// The processes across the faces of this process's ranks where
    /// `crosses` holds, in rank then face order of first appearance.
    fn across(&self, crosses: impl Fn(Face3) -> bool) -> Vec<usize> {
        let links = self.grid_members(self.me).flat_map(|(_, r)| &self.links[r]);
        self.others(links.filter(|l| crosses(l.face)).map(|l| l.neighbor))
    }

    /// The slabs of `spec` that ranks of process `from` send to ranks of
    /// process `to`, as (sender's leg, receiver's leg) pairs in the sender's
    /// rank then face order — the order of the coalesced message. Two ranks
    /// of one fused member exchange nothing: each one's ghost cells are the
    /// other's interior cells.
    fn crossing<'s, L>(
        &'s self,
        spec: &'s ExchangeSpec<L>,
        from: usize,
        to: usize,
    ) -> impl Iterator<Item = (Leg, Leg)> + 's {
        self.grid_members(from).flat_map(move |(m, rank)| {
            let sent = move |l: &&FaceLink| {
                let peer = l.neighbor;
                let apart = self.proc_of(peer) != from || self.member(peer) != m;
                self.proc_of(peer) == to && apart && spec.sent_through(l.face).next().is_some()
            };
            self.links[rank].iter().filter(sent).map(move |l| {
                let peer = l.neighbor;
                (self.leg(rank, l.face, peer), self.leg(peer, l.face.opposite(), rank))
            })
        })
    }

    /// An exchange's sends (`send`), its assignments between members, and
    /// its receives (`recv`), in that order (§3.3).
    fn exchange<L>(&self, spec: &ExchangeSpec<L>, send: bool, recv: bool, ops: &mut Vec<Op<L>>) {
        let me = self.me;
        let shared = Arc::new(spec.clone());
        if send {
            for dst in self.across(|f| spec.sent_through(f).next().is_some()) {
                let legs = self.crossing(spec, me, dst).map(|(s, _)| s).collect();
                ops.push(Op::SendFace { spec: Arc::clone(&shared), dst, legs });
            }
        }
        let inner: Vec<(Leg, Leg)> = self.crossing(spec, me, me).collect();
        if !inner.is_empty() {
            let spec = Arc::clone(&shared);
            let (sent, got): (Vec<Leg>, Vec<Leg>) = inner.into_iter().unzip();
            ops.push(match (send, recv) {
                (true, true) => Op::CopyFaces { spec, copies: sent.into_iter().zip(got).collect() },
                (true, false) => Op::StageFaces { spec, legs: sent },
                _ => Op::UnstageFaces { spec, legs: got },
            });
        }
        if recv {
            for src in self.across(|f| spec.received_through(f).next().is_some()) {
                let legs = self.crossing(spec, src, me).map(|(_, r)| r).collect();
                ops.push(Op::RecvFace { spec: Arc::clone(&shared), src, legs });
            }
        }
    }

    /// One stage of a reduction schedule: one message per destination
    /// process carrying the pre-stage partials of its senders in rank order,
    /// the steps between members, then one receive per source process. A
    /// rank's incoming steps are applied in schedule order because groups
    /// are contiguous: all-to-one combines into rank 0 in rank order, and
    /// every other stage lands at most one step on a rank.
    fn reduce_stage<L>(&self, stage: &[ReduceStep], op: ReduceOp, ops: &mut Vec<Op<L>>) {
        let me = self.me;
        let between = |from: usize, to: usize| {
            let ends = move |s: &&ReduceStep| (self.proc_of(s.src()), self.proc_of(s.dst()));
            stage.iter().filter(move |s| ends(s) == (from, to))
        };
        // The distinct sender ranks of the steps from process `from` to
        // process `to`, ascending: whose partials their message carries.
        let senders = |from: usize, to: usize| {
            let mut ranks: Vec<usize> = between(from, to).map(|s| s.src()).collect();
            ranks.sort_unstable();
            ranks.dedup();
            ranks
        };
        let members = |ranks: &[usize]| ranks.iter().map(|&r| self.member(r)).collect();
        // The steps from process `src` landing here, each naming its
        // partial's place among `from`, the senders.
        let applies = |src: usize, from: &[usize]| -> Vec<Apply> {
            let apply = |s: &ReduceStep| Apply {
                part: from.binary_search(&s.src()).expect("a step's sender is listed"),
                m: self.member(s.dst()),
                combine: matches!(s, ReduceStep::Combine { .. }),
            };
            between(src, me).map(apply).collect()
        };
        let mine = |r: usize| self.proc_of(r) == me;
        for dst in self.others(stage.iter().filter(|s| mine(s.src())).map(|s| s.dst())) {
            ops.push(Op::ReduceSend { dst, srcs: members(&senders(me, dst)) });
        }
        let inner = senders(me, me);
        if !inner.is_empty() {
            ops.push(Op::ReduceLocal { op, srcs: members(&inner), applies: applies(me, &inner) });
        }
        for src in self.others(stage.iter().filter(|s| mine(s.dst())).map(|s| s.src())) {
            let from = senders(src, me);
            ops.push(Op::ReduceRecv { src, op, parts: from.len(), applies: applies(src, &from) });
        }
    }

    /// Compile `phases` for this process, appending to `ops`.
    fn flatten<L>(&self, phases: &[Phase<L>], ops: &mut Vec<Op<L>>) {
        let n = self.placement.pg.nprocs();
        let me = self.me;
        let h = self.placement.host().unwrap_or(HOST);
        let hp = self.proc_of(h);
        let all = 0..self.placement.members[me].len();
        for phase in phases {
            match phase {
                Phase::Local(step) => {
                    let step = Arc::new(step.clone());
                    for m in self.grid_boxes(me) {
                        ops.push(Op::Local { step: step.clone(), m });
                    }
                }
                Phase::Exchange(spec) => self.exchange(spec, true, true, ops),
                // The halves of a split exchange: whatever local ops sit
                // between them run while the messages are in flight.
                Phase::ExchangeSend(spec) => self.exchange(spec, true, false, ops),
                Phase::ExchangeRecv(spec) => self.exchange(spec, false, true, ops),
                Phase::Reduce(spec) => {
                    let spec = Arc::new(spec.clone());
                    for (m, _) in self.grid_members(me) {
                        ops.push(Op::ReduceExtract { spec: spec.clone(), m });
                    }
                    let mut stages = ReducePlan::build(spec.algo, n).stages;
                    // A separate host only receives the finished result (from
                    // grid rank 0) to keep its replicated globals consistent.
                    if let Some(h) = self.placement.host() {
                        stages.push(vec![ReduceStep::Copy { src: 0, dst: h }]);
                    }
                    for stage in &stages {
                        self.reduce_stage(stage, spec.op, ops);
                    }
                    for m in all.clone() {
                        ops.push(Op::ReduceInject { spec: spec.clone(), m });
                    }
                }
                Phase::OrderedReduce(spec) => {
                    let spec = Arc::new(spec.clone());
                    // Contributions in grid-rank order: the host's own first
                    // (a grid rank doubling as host is rank 0), then each
                    // process's in process order.
                    for (m, _) in self.grid_members(me) {
                        ops.push(Op::OrdExtract { spec: spec.clone(), m });
                    }
                    if me == hp {
                        let from = self.member(h);
                        for src in self.others(0..n) {
                            ops.push(Op::OrdRecvContribs { src });
                        }
                        ops.push(Op::OrdFinish { spec: spec.clone(), m: from });
                        for dst in self.others(0..n) {
                            ops.push(Op::OrdSendResult { dst, from });
                        }
                        for m in all.clone() {
                            ops.push(Op::OrdInject { spec: spec.clone(), m, from });
                        }
                    } else {
                        ops.push(Op::OrdSendContribs { dst: hp });
                        ops.push(Op::OrdRecvResult { src: hp });
                        for m in all.clone() {
                            ops.push(Op::OrdInject { spec: spec.clone(), m, from: 0 });
                        }
                    }
                }
                Phase::Broadcast(spec) => {
                    let spec = Arc::new(spec.clone());
                    let rp = self.proc_of(spec.root);
                    let from = if me == rp {
                        let root = self.member(spec.root);
                        ops.push(Op::BcastGet { spec: spec.clone(), m: root });
                        for dst in self.others(0..self.placement.proc_of.len()) {
                            ops.push(Op::BcastSend { dst, from: root });
                        }
                        root
                    } else {
                        ops.push(Op::BcastRecv { src: rp });
                        0
                    };
                    for m in all.clone() {
                        ops.push(Op::BcastSet { spec: spec.clone(), m, from });
                    }
                }
                Phase::GatherGrid(spec) => {
                    let spec = Arc::new(spec.clone());
                    if me == hp {
                        ops.push(Op::GatherInit { spec: spec.clone() });
                        for src in self.others(0..n) {
                            let ranks = self.grid_members(src).map(|(_, r)| r).collect();
                            ops.push(Op::GatherRecvBlock { src, ranks });
                        }
                        ops.push(Op::GatherFinish { spec: spec.clone(), m: self.member(h) });
                    } else {
                        ops.push(Op::GatherSend { spec: spec.clone(), dst: hp });
                    }
                }
                Phase::ScatterGrid(spec) => {
                    let spec = Arc::new(spec.clone());
                    if me == hp {
                        ops.push(Op::ScatterInit { spec: spec.clone(), m: self.member(h) });
                        for dst in self.others(0..n) {
                            let ranks = self.grid_members(dst).map(|(_, r)| r).collect();
                            ops.push(Op::ScatterSendBlock { dst, ranks });
                        }
                        ops.push(Op::ScatterSelf { spec: spec.clone() });
                    } else {
                        ops.push(Op::ScatterRecvBlock { spec: spec.clone(), src: hp });
                    }
                }
                Phase::Loop { count, body } => {
                    let start_idx = ops.len();
                    ops.push(Op::LoopStart { count: *count, exit: usize::MAX }); // patched
                    let body_idx = ops.len();
                    self.flatten(body, ops);
                    ops.push(Op::LoopEnd { body: body_idx });
                    let exit = ops.len();
                    if let Op::LoopStart { exit: e, .. } = &mut ops[start_idx] {
                        *e = exit;
                    }
                }
                Phase::While { name, pred, body, max_iters } => {
                    ops.push(Op::WhileStart { max_iters: *max_iters });
                    let check = ops.len();
                    ops.push(Op::WhileCheck {
                        pred: pred.clone(),
                        exit: usize::MAX, // patched
                        name: name.clone(),
                        max_iters: *max_iters,
                    });
                    self.flatten(body, ops);
                    ops.push(Op::WhileEnd { check });
                    let exit = ops.len();
                    ops.push(Op::WhilePop);
                    if let Op::WhileCheck { exit: e, .. } = &mut ops[check] {
                        *e = exit;
                    }
                }
            }
        }
    }
}

/// One member of a process — a rank, or a fused box of ranks — with its
/// environment (a box's: its first rank, the box as its block), local state
/// and reduction scratch.
#[derive(Clone)]
struct Member<L> {
    env: Env,
    /// The ranks the member hosts.
    ranks: Range<usize>,
    local: L,
    scratch: Vec<f64>,
}

impl<L: MeshLocal> Member<L> {
    /// The snapshot of each rank the member hosts, in rank order: a box's
    /// ranks' states are cut out of it.
    fn snapshots(&self, pg: ProcGrid3) -> Vec<Vec<u8>> {
        if self.ranks.len() == 1 {
            return vec![self.local.snapshot_bytes()];
        }
        let cut = |rank| self.local.cut(&self.env, &Env::new(pg, rank));
        let expect = "a fused local cuts (probed when the program was built)";
        self.ranks.clone().map(|rank| cut(rank).expect(expect).snapshot_bytes()).collect()
    }
}

/// A mesh process: one rank, or a group of ranks, of the compiled
/// message-passing program.
///
/// `Clone` (for `L: Clone`) is what makes mesh programs checkpointable: the
/// recovery supervisor snapshots every process by cloning it.
#[derive(Clone)]
pub struct MsgProcess<L> {
    /// Process id: the rank, when the process hosts one.
    id: usize,
    pg: ProcGrid3,
    /// The ranks hosted, ascending.
    members: Vec<Member<L>>,
    /// The compiled program, frozen and shared: checkpoint clones bump the
    /// refcount instead of copying the instruction list, and the
    /// interpreter borrows ops independently of the mutable state.
    ops: Arc<[Op<L>]>,
    pc: usize,
    /// Channel to send to process `dst`: `chan_to[dst]`.
    chan_to: Vec<Option<ChannelId>>,
    /// Channel to receive from process `src`: `chan_from[src]`.
    chan_from: Vec<Option<ChannelId>>,
    contribs: Vec<Contribution>,
    global: Option<Grid3<f64>>,
    loop_stack: Vec<usize>,
    while_stack: Vec<u64>,
    /// Recycled `f64` payload buffers (take-on-send / put-on-receive; see
    /// [`BufPool`]). Clones start cold — a pool is a cache, not state.
    pool: BufPool<f64>,
    /// The receive op awaiting its delivery. Set when the Recv effect is
    /// emitted; the program is immutable, so the index stays valid for the
    /// process's (and any checkpoint clone's) entire life.
    pending: Option<usize>,
    /// Slabs a split exchange between members has packed and not yet
    /// installed, oldest first. Always empty in a one-rank process.
    staged: VecDeque<Vec<f64>>,
}

// ---------------------------------------------------------------------------
// Process-state codec: what a checkpoint-resumed migration moves.
// ---------------------------------------------------------------------------

impl<L: MeshLocalCodec> MsgProcess<L> {
    /// Encode this process's complete dynamic state: program counter, each
    /// member's local state (via [`MeshLocalCodec`]) and scratch, the
    /// contrib buffer, an in-progress gather/scatter grid (ghosts included
    /// — a cut can land mid-collective), control stacks, whether a receive
    /// is pending and, for a group, its staged slabs. Static structure (the
    /// compiled program, channels, geometry) is *not* encoded;
    /// [`MsgProcess::decode_state`] takes it from a template.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.pc as u64);
        for mem in &self.members {
            push_bytes(&mut out, &mem.local.encode_local());
            push_u32(&mut out, mem.scratch.len() as u32);
            push_f64s(&mut out, &mem.scratch);
        }
        push_u32(&mut out, self.contribs.len() as u32);
        push_contribs(&mut out, &self.contribs);
        match &self.global {
            None => out.push(0),
            Some(g) => {
                out.push(1);
                let (nx, ny, nz) = g.extent();
                for d in [nx, ny, nz, g.ghost(), g.raw().len()] {
                    push_u32(&mut out, d as u32);
                }
                push_f64s(&mut out, g.raw());
            }
        }
        push_u32(&mut out, self.loop_stack.len() as u32);
        for &v in &self.loop_stack {
            push_u64(&mut out, v as u64);
        }
        push_u32(&mut out, self.while_stack.len() as u32);
        for &v in &self.while_stack {
            push_u64(&mut out, v);
        }
        // A receive is issued right after the program counter moves past
        // it, so a pending receive is always the op before `pc`.
        debug_assert!(self.pending.is_none_or(|op| op + 1 == self.pc));
        out.push(u8::from(self.pending.is_some()));
        if self.members.len() > 1 {
            push_u32(&mut out, self.staged.len() as u32);
            for slabs in &self.staged {
                push_u32(&mut out, slabs.len() as u32);
                push_f64s(&mut out, slabs);
            }
        }
        out
    }

    /// Rebuild a process from `template` (a freshly built process for the
    /// same ranks, spec, and topology) plus [`MsgProcess::encode_state`]
    /// bytes. Total over arbitrary bytes: malformed or forged input fails
    /// with a typed [`RunError::Protocol`] attributed to the template's
    /// process. A pending receive is the op just before the program
    /// counter, which must be a receive op, and an in-progress grid must be
    /// the program's global grid; control state the interpreter cannot check
    /// here (an empty loop or while stack, a missing grid) faults typed when
    /// it is reached. So a hostile manifest can neither panic the
    /// interpreter nor make it index out of range.
    pub fn decode_state(template: &MsgProcess<L>, buf: &[u8]) -> Result<MsgProcess<L>, RunError> {
        let id = template.id;
        let ops = &template.ops;
        let mut r = Reader::new("mesh state", buf).for_proc(id);
        let pc = r.u64("pc")? as usize;
        if pc > ops.len() {
            return Err(r.error(format_args!("pc {pc} outside program of {} ops", ops.len())));
        }
        let mut members = Vec::with_capacity(template.members.len());
        for t in &template.members {
            let mut local_r = Reader::new("mesh state", r.bytes("local state")?).for_proc(id);
            let local = L::decode_local(&t.local, &mut local_r)?;
            let local = local_r.finish(local)?;
            let n = r.count(8, "scratch")?;
            let scratch = r.f64s(n, "scratch")?;
            members.push(Member { env: t.env, ranks: t.ranks.clone(), local, scratch });
        }
        let n = r.count(20, "contribs")?;
        let contribs = read_contribs(&mut r, n)?;
        let global = if r.flag("global grid")? {
            let mut dim = |what| r.u32(what).map(|d| d as usize);
            let (nx, ny, nz) = (dim("global nx")?, dim("global ny")?, dim("global nz")?);
            let ghost = dim("global ghost")?;
            if (nx, ny, nz) != template.pg.n {
                return Err(r.error(format_args!(
                    "global grid extent {:?}, the program's grid is {:?}",
                    (nx, ny, nz),
                    template.pg.n
                )));
            }
            let expected = [nx, ny, nz]
                .iter()
                .try_fold(1usize, |acc, &d| {
                    acc.checked_mul(d.checked_add(2usize.checked_mul(ghost)?)?)
                })
                .ok_or_else(|| r.error("global grid dims overflow"))?;
            let count = r.count(8, "global grid")?;
            if count != expected {
                return Err(r.error(format_args!(
                    "global grid carries {count} cells, dims need {expected}"
                )));
            }
            let mut g = Grid3::new(nx, ny, nz, ghost);
            r.f64s_into(g.raw_mut(), "global cell")?;
            Some(g)
        } else {
            None
        };
        let n = r.count(8, "loop stack")?;
        let loop_stack = (0..n)
            .map(|_| Ok(r.u64("loop counter")? as usize))
            .collect::<Result<_, RunError>>()?;
        let n = r.count(8, "while stack")?;
        let while_stack = (0..n).map(|_| r.u64("while budget")).collect::<Result<_, _>>()?;
        let pending = if r.flag("pending receive")? {
            let op = pc.checked_sub(1).filter(|&op| ops[op].expects() != "no");
            Some(op.ok_or_else(|| {
                r.error(format_args!("pending receive: the op before pc {pc} is not a receive"))
            })?)
        } else {
            None
        };
        let mut staged = VecDeque::new();
        if members.len() > 1 {
            for _ in 0..r.count(4, "staged slabs")? {
                let n = r.count(8, "staged slab values")?;
                staged.push_back(r.f64s(n, "staged slab values")?);
            }
        }
        r.finish(MsgProcess {
            id,
            pg: template.pg,
            members,
            ops: Arc::clone(ops),
            pc,
            chan_to: template.chan_to.clone(),
            chan_from: template.chan_from.clone(),
            contribs,
            global,
            loop_stack,
            while_stack,
            pool: BufPool::new(),
            pending,
            staged,
        })
    }
}

impl<L: MeshLocal> MsgProcess<L> {
    /// A protocol error raised by this process.
    fn protocol(&self, detail: String) -> RunError {
        RunError::Protocol { proc: self.id, detail }
    }

    /// A protocol fault raised by this process.
    fn fault(&self, detail: String) -> Effect<MeshMsg> {
        Effect::Fault { error: self.protocol(detail) }
    }

    /// A protocol error raised by member `m`'s rank: this process, when it
    /// hosts one rank.
    fn rank_protocol(&self, m: usize, detail: String) -> RunError {
        RunError::Protocol { proc: self.members[m].env.rank, detail }
    }

    /// The rank playing host, in the process that hosts it: the separate
    /// host if this process holds one, else grid rank 0.
    fn host_rank(&self) -> usize {
        let last = &self.members[self.members.len() - 1].env;
        if last.is_host() {
            last.rank
        } else {
            HOST
        }
    }

    /// Move the members' local states out, in member order.
    pub(crate) fn into_locals(self) -> Vec<L> {
        self.members.into_iter().map(|m| m.local).collect()
    }

    /// The grid of the gather or scatter in progress. Only a forged cut
    /// reaches a collective op without one.
    fn collective_grid(&mut self, op: &str) -> Result<&mut Grid3<f64>, RunError> {
        let proc = self.id;
        self.global.as_mut().ok_or_else(|| RunError::Protocol {
            proc,
            detail: format!("{op} with no gather or scatter in progress"),
        })
    }

    fn insert_block(&mut self, src: usize, data: &[f64]) -> Result<(), RunError> {
        let block = self.pg.block(src);
        if data.len() != block.len() {
            let (got, holds) = (data.len(), block.len());
            let detail = format!(
                "gather block from rank {src} carries {got} values, its block holds {holds}"
            );
            return Err(RunError::Protocol { proc: self.host_rank(), detail });
        }
        let global = self.collective_grid("gather block")?;
        let mut it = data.iter();
        for li in 0..block.extent().0 {
            for lj in 0..block.extent().1 {
                for lk in 0..block.extent().2 {
                    let (gi, gj, gk) = block.to_global(li, lj, lk);
                    let v = *it.next().expect("length checked against block above");
                    global.set(gi as isize, gj as isize, gk as isize, v);
                }
            }
        }
        Ok(())
    }

    /// Overwrite the scatter's target field of member `m` with its block,
    /// after checking that the block fills the field exactly.
    fn install_block(
        &mut self,
        spec: &ScatterSpec<L>,
        m: usize,
        data: &[f64],
    ) -> Result<(), RunError> {
        let field = (spec.field)(&mut self.members[m].local);
        if data.len() != field.interior_len() {
            let detail = format!(
                "scatter {}: block carries {} values, the field interior holds {}",
                spec.name,
                data.len(),
                field.interior_len()
            );
            return Err(self.rank_protocol(m, detail));
        }
        field.interior_from_slice(data);
        Ok(())
    }

    /// Append `dst`'s block of the in-progress global grid to `out`
    /// (lexicographic), packing straight into a recycled buffer.
    fn block_of_global_into(&mut self, dst: usize, out: &mut Vec<f64>) -> Result<(), RunError> {
        let block = self.pg.block(dst);
        let global = self.collective_grid("scatter block")?;
        out.reserve(block.len());
        for li in 0..block.extent().0 {
            for lj in 0..block.extent().1 {
                for lk in 0..block.extent().2 {
                    let (gi, gj, gk) = block.to_global(li, lj, lk);
                    out.push(global.get(gi as isize, gj as isize, gk as isize));
                }
            }
        }
        Ok(())
    }

    fn chan_to_proc(&self, dst: usize) -> ChannelId {
        self.chan_to[dst].expect("channel to dst exists")
    }

    fn chan_from_proc(&self, src: usize) -> ChannelId {
        self.chan_from[src].expect("channel from src exists")
    }

    /// Emit a receive from `src` for op `op`.
    fn recv(&mut self, op: usize, src: usize) -> Effect<MeshMsg> {
        self.pending = Some(op);
        Effect::Recv { chan: self.chan_from_proc(src) }
    }

    /// A copy of `scratch[from]` in a recycled buffer, as a message.
    fn scratch_msg(&mut self, from: usize) -> MeshMsg {
        let mut buf = self.pool.take(self.members[from].scratch.len());
        buf.extend_from_slice(&self.members[from].scratch);
        MeshMsg::Vec(buf)
    }

    /// Pack the boundary slabs of `legs`, in order, into a recycled buffer.
    fn pack_legs(&mut self, spec: &ExchangeSpec<L>, legs: &[Leg]) -> Vec<f64> {
        let members = &mut self.members;
        let n = legs.iter().map(|l| spec.packed_len(&mut members[l.m].local, l.at, l.face)).sum();
        let mut buf = self.pool.take(n);
        for leg in legs {
            spec.pack(&mut self.members[leg.m].local, leg.at, leg.face, &mut buf);
        }
        buf
    }

    /// Install `payload` into the ghost slabs of `legs`, in order. The last
    /// leg takes whatever remains, so a wrong-sized message is reported by
    /// [`ExchangeSpec::unpack`] naming the sending rank, for one leg as for
    /// many.
    fn unpack_legs(
        &mut self,
        spec: &ExchangeSpec<L>,
        legs: &[Leg],
        payload: &[f64],
    ) -> Result<(), RunError> {
        let mut at = 0;
        for (i, leg) in legs.iter().enumerate() {
            let local = &mut self.members[leg.m].local;
            let end = if i + 1 == legs.len() {
                payload.len()
            } else {
                at + spec.received_len(local, leg.at, leg.face)
            };
            let res = match payload.get(at..end) {
                Some(slabs) => spec.unpack(local, leg.at, leg.face, slabs),
                None => Err(format!("message of {} values ends inside its slabs", payload.len())),
            };
            res.map_err(|e| {
                self.rank_protocol(leg.m, format!("halo from rank {}: {e}", leg.peer))
            })?;
            at = end;
        }
        Ok(())
    }

    /// The current partials of members `srcs`, concatenated.
    fn pack_partials(&mut self, srcs: &[usize]) -> Vec<f64> {
        let n = srcs.iter().map(|&m| self.members[m].scratch.len()).sum();
        let mut buf = self.pool.take(n);
        for &m in srcs {
            buf.extend_from_slice(&self.members[m].scratch);
        }
        buf
    }

    /// Apply `parts` equal partials laid end to end in `payload`.
    fn apply_partials(
        &mut self,
        op: ReduceOp,
        parts: usize,
        applies: &[Apply],
        payload: &[f64],
    ) -> Result<(), RunError> {
        if !payload.len().is_multiple_of(parts) {
            return Err(self.protocol(format!(
                "reduction message carries {} values, not {parts} equal partials",
                payload.len()
            )));
        }
        let len = payload.len() / parts;
        for a in applies {
            let partial = &payload[a.part * len..(a.part + 1) * len];
            let scratch = &mut self.members[a.m].scratch;
            if !a.combine {
                scratch.clear();
                scratch.extend_from_slice(partial);
            } else if partial.len() == scratch.len() {
                op.combine_vec(scratch, partial);
            } else {
                let held = scratch.len();
                return Err(self.protocol(format!(
                    "reduction partial carries {len} values, this rank's holds {held}"
                )));
            }
        }
        Ok(())
    }

    /// `f(local[m], scratch[from])`: a message from `from`'s rank to `m`'s
    /// in the per-rank program when they differ.
    fn inject_from(&mut self, m: usize, from: usize, f: &crate::plan::InjectFn<L>) {
        let held = std::mem::take(&mut self.members[from].scratch);
        let mem = &mut self.members[m];
        f(&mem.env, &mut mem.local, &held);
        self.members[from].scratch = held;
    }

    /// Consume `msg`, the delivery for the receive op `op`.
    fn deliver(&mut self, op: usize, msg: MeshMsg) -> Result<(), RunError> {
        let ops = Arc::clone(&self.ops);
        match (&ops[op], msg) {
            (Op::RecvFace { spec, legs, .. }, MeshMsg::Halo(payload)) => {
                self.unpack_legs(spec, legs, &payload)?;
                self.pool.put(payload);
            }
            (Op::ReduceRecv { op, parts, applies, .. }, MeshMsg::Vec(payload)) => {
                self.apply_partials(*op, *parts, applies, &payload)?;
                self.pool.put(payload);
            }
            (Op::OrdRecvContribs { .. }, MeshMsg::Contribs(mut c)) => self.contribs.append(&mut c),
            (Op::OrdRecvResult { .. } | Op::BcastRecv { .. }, MeshMsg::Vec(v)) => {
                self.pool.put(std::mem::replace(&mut self.members[0].scratch, v));
            }
            (Op::GatherRecvBlock { ranks, .. }, MeshMsg::Block(data)) => {
                let lens: Vec<usize> = ranks.iter().map(|&r| self.pg.block(r).len()).collect();
                for (&rank, block) in ranks.iter().zip(self.blocks(&lens, &data)?) {
                    self.insert_block(rank, block)?;
                }
                self.pool.put(data);
            }
            (Op::ScatterRecvBlock { spec, .. }, MeshMsg::Block(data)) => {
                let lens: Vec<usize> = self.members.iter().map(|m| m.env.block.len()).collect();
                for (m, block) in self.blocks(&lens, &data)?.into_iter().enumerate() {
                    self.install_block(spec, m, block)?;
                }
                self.pool.put(data);
            }
            (issued, other) => {
                let (want, got) = (issued.expects(), other.kind());
                return Err(self.protocol(format!("expected a {want} message, received {got}")));
            }
        }
        Ok(())
    }

    /// Cut `data` into consecutive blocks of `lens`, the last taking
    /// whatever remains (so its consumer reports a wrong size, for one block
    /// as for many).
    fn blocks<'d>(&self, lens: &[usize], data: &'d [f64]) -> Result<Vec<&'d [f64]>, RunError> {
        let mut out = Vec::with_capacity(lens.len());
        let mut at = 0;
        let total = data.len();
        for (i, &len) in lens.iter().enumerate() {
            let end = if i + 1 == lens.len() { total } else { at + len };
            out.push(data.get(at..end).ok_or_else(|| {
                self.protocol(format!("block message of {total} values ends inside block {i}"))
            })?);
            at = end;
        }
        Ok(out)
    }

    /// Execute ops until one produces a runtime effect.
    ///
    /// The program lives behind an `Arc`, so one refcount bump up front
    /// buys a borrow of every op that is independent of `&mut self`: no op
    /// is cloned to split the borrow, and sends carry pooled buffers —
    /// steady-state iteration performs zero heap allocation.
    fn advance(&mut self) -> Effect<MeshMsg> {
        let ops = Arc::clone(&self.ops);
        loop {
            if self.pc >= ops.len() {
                return Effect::Halt;
            }
            let pc = self.pc;
            self.pc += 1;
            match &ops[pc] {
                Op::Local { step, m } => {
                    let mem = &mut self.members[*m];
                    let units = (step.flops)(&mem.env, &mem.local);
                    return match (step.f)(&mem.env, &mut mem.local) {
                        Ok(()) => Effect::Compute { units },
                        Err(error) => Effect::Fault { error },
                    };
                }
                Op::SendFace { spec, dst, legs } => {
                    // Pack the slabs straight from grid storage into a
                    // recycled buffer (no intermediate allocation).
                    let msg = MeshMsg::Halo(self.pack_legs(spec, legs));
                    return Effect::Send { chan: self.chan_to_proc(*dst), msg };
                }
                Op::RecvFace { src, .. } => return self.recv(pc, *src),
                Op::CopyFaces { spec, copies } => {
                    for (sent, got) in copies {
                        let slabs = self.pack_legs(spec, std::slice::from_ref(sent));
                        let res = self.unpack_legs(spec, std::slice::from_ref(got), &slabs);
                        self.pool.put(slabs);
                        if let Err(error) = res {
                            return Effect::Fault { error };
                        }
                    }
                }
                Op::StageFaces { spec, legs } => {
                    let slabs = self.pack_legs(spec, legs);
                    self.staged.push_back(slabs);
                }
                Op::UnstageFaces { spec, legs } => {
                    let Some(slabs) = self.staged.pop_front() else {
                        return self.fault(format!("{}: no staged slabs to install", spec.name));
                    };
                    let res = self.unpack_legs(spec, legs, &slabs);
                    self.pool.put(slabs);
                    if let Err(error) = res {
                        return Effect::Fault { error };
                    }
                }
                Op::ReduceExtract { spec, m } => {
                    let mem = &mut self.members[*m];
                    let v = (spec.extract)(&mem.env, &mem.local);
                    self.pool.put(std::mem::replace(&mut mem.scratch, v));
                }
                Op::ReduceSend { dst, srcs } => {
                    let msg = MeshMsg::Vec(self.pack_partials(srcs));
                    return Effect::Send { chan: self.chan_to_proc(*dst), msg };
                }
                Op::ReduceLocal { op, srcs, applies } => {
                    let partials = self.pack_partials(srcs);
                    let res = self.apply_partials(*op, srcs.len(), applies, &partials);
                    self.pool.put(partials);
                    if let Err(error) = res {
                        return Effect::Fault { error };
                    }
                }
                Op::ReduceRecv { src, .. } => return self.recv(pc, *src),
                Op::ReduceInject { spec, m } => {
                    let mem = &mut self.members[*m];
                    (spec.inject)(&mem.env, &mut mem.local, &mem.scratch);
                }
                Op::OrdExtract { spec, m } => {
                    let mem = &self.members[*m];
                    self.contribs.extend((spec.extract)(&mem.env, &mem.local));
                }
                Op::OrdSendContribs { dst } => {
                    let msg = MeshMsg::Contribs(std::mem::take(&mut self.contribs));
                    return Effect::Send { chan: self.chan_to_proc(*dst), msg };
                }
                Op::OrdRecvContribs { src } => return self.recv(pc, *src),
                Op::OrdFinish { spec, m } => {
                    let contribs = std::mem::take(&mut self.contribs);
                    let v = ordered_sum(contribs, spec.n_bins, spec.method);
                    self.pool.put(std::mem::replace(&mut self.members[*m].scratch, v));
                }
                Op::OrdSendResult { dst, from } | Op::BcastSend { dst, from } => {
                    let msg = self.scratch_msg(*from);
                    return Effect::Send { chan: self.chan_to_proc(*dst), msg };
                }
                Op::OrdRecvResult { src } | Op::BcastRecv { src } => return self.recv(pc, *src),
                Op::OrdInject { spec, m, from } => self.inject_from(*m, *from, &spec.inject),
                Op::BcastGet { spec, m } => {
                    let mem = &mut self.members[*m];
                    let v = (spec.get)(&mem.env, &mem.local);
                    self.pool.put(std::mem::replace(&mut mem.scratch, v));
                }
                Op::BcastSet { spec, m, from } => self.inject_from(*m, *from, &spec.set),
                Op::GatherSend { spec, dst } => {
                    let n = self.members.iter().map(|m| m.env.block.len()).sum();
                    let mut buf = self.pool.take(n);
                    for mem in &mut self.members {
                        (spec.field)(&mut mem.local).interior_append_to(&mut buf);
                    }
                    return Effect::Send { chan: self.chan_to_proc(*dst), msg: MeshMsg::Block(buf) };
                }
                Op::GatherInit { spec } => {
                    let n = self.pg.n;
                    self.global = Some(Grid3::new(n.0, n.1, n.2, 0));
                    // A separate host owns no block; grid ranks hosting the
                    // gather insert their own sections first.
                    for m in 0..self.members.len() {
                        if self.members[m].env.is_host() {
                            continue;
                        }
                        let mut own = self.pool.take(0);
                        (spec.field)(&mut self.members[m].local).interior_append_to(&mut own);
                        let rank = self.members[m].env.rank;
                        let res = self.insert_block(rank, &own);
                        self.pool.put(own);
                        if let Err(error) = res {
                            return Effect::Fault { error };
                        }
                    }
                }
                Op::GatherRecvBlock { src, .. } => return self.recv(pc, *src),
                Op::GatherFinish { spec, m } => {
                    let Some(global) = self.global.take() else {
                        return self.fault("gather finish with no gather in progress".into());
                    };
                    (spec.sink)(&mut self.members[*m].local, &global);
                }
                Op::ScatterInit { spec, m } => {
                    let g = (spec.source)(&self.members[*m].local);
                    let (got, n) = (g.extent(), self.pg.n);
                    if got != n {
                        let name = &spec.name;
                        let detail =
                            format!("scatter {name}: source grid extent {got:?}, expected {n:?}");
                        return Effect::Fault { error: self.rank_protocol(*m, detail) };
                    }
                    self.global = Some(g);
                }
                Op::ScatterSendBlock { dst, ranks } => {
                    let n = ranks.iter().map(|&r| self.pg.block(r).len()).sum();
                    let mut buf = self.pool.take(n);
                    for &rank in ranks {
                        if let Err(error) = self.block_of_global_into(rank, &mut buf) {
                            return Effect::Fault { error };
                        }
                    }
                    return Effect::Send { chan: self.chan_to_proc(*dst), msg: MeshMsg::Block(buf) };
                }
                Op::ScatterSelf { spec } => {
                    // A separate host keeps nothing for itself.
                    for m in 0..self.members.len() {
                        let env = self.members[m].env;
                        if env.is_host() {
                            continue;
                        }
                        let mut buf = self.pool.take(env.block.len());
                        let res = self
                            .block_of_global_into(env.rank, &mut buf)
                            .and_then(|()| self.install_block(spec, m, &buf));
                        self.pool.put(buf);
                        if let Err(error) = res {
                            return Effect::Fault { error };
                        }
                    }
                    self.global = None;
                }
                Op::ScatterRecvBlock { src, .. } => return self.recv(pc, *src),
                Op::LoopStart { count, exit } => {
                    if *count == 0 {
                        self.pc = *exit;
                    } else {
                        self.loop_stack.push(*count);
                    }
                }
                Op::LoopEnd { body } => {
                    let body = *body;
                    let Some(top) = self.loop_stack.last_mut() else {
                        return self.fault("loop end with no loop counter".into());
                    };
                    *top -= 1;
                    if *top > 0 {
                        self.pc = body;
                    } else {
                        self.loop_stack.pop();
                    }
                }
                Op::WhileStart { max_iters } => self.while_stack.push(*max_iters),
                Op::WhileCheck { pred, exit, name, max_iters } => {
                    // The predicate is replicated: every member must agree.
                    let go = pred(&self.members[0].local);
                    if self.members[1..].iter().any(|m| pred(&m.local) != go) {
                        return self.fault(format!("{name}: the ranks disagree on the predicate"));
                    }
                    if !go {
                        self.pc = *exit;
                        continue;
                    }
                    let Some(budget) = self.while_stack.last_mut() else {
                        return self.fault(format!("{name}: check with no while budget"));
                    };
                    if *budget == 0 {
                        return self.fault(format!("{name}: exceeded max_iters {max_iters}"));
                    }
                    *budget -= 1;
                }
                Op::WhileEnd { check } => self.pc = *check,
                Op::WhilePop => {
                    if self.while_stack.pop().is_none() {
                        return self.fault("while exit with no while budget".into());
                    }
                }
            }
        }
    }
}

impl<L: MeshLocal> Process for MsgProcess<L> {
    type Msg = MeshMsg;

    fn resume(&mut self, delivery: Option<MeshMsg>) -> Effect<MeshMsg> {
        if let Some(msg) = delivery {
            let Some(op) = self.pending.take() else {
                let kind = msg.kind();
                let detail = format!("a {kind} message was delivered with no receive pending");
                return self.fault(detail);
            };
            if let Err(error) = self.deliver(op, msg) {
                return Effect::Fault { error };
            }
        }
        self.advance()
    }

    fn msg_size_bytes(msg: &MeshMsg) -> u64 {
        msg.size_bytes()
    }

    /// The rank's snapshot; a group's is its ranks' snapshots, each
    /// length-prefixed, in rank order (a fused member's ranks cut out of
    /// its box).
    fn snapshot(&self) -> Vec<u8> {
        if let [one] = &self.members[..] {
            if one.ranks.len() == 1 {
                return one.local.snapshot_bytes();
            }
        }
        let mut out = Vec::new();
        for snap in self.members.iter().flat_map(|m| m.snapshots(self.pg)) {
            push_bytes(&mut out, &snap);
        }
        out
    }

    /// The frames of [`MsgProcess::snapshot`]: one definition of a group's
    /// final state serves every backend.
    fn rank_snapshots(&self) -> Vec<Vec<u8>> {
        let snapshot = self.snapshot();
        match self.members.iter().map(|m| m.ranks.len()).sum() {
            1 => vec![snapshot],
            k => unframe(&snapshot, k),
        }
    }

    fn progress(&self) -> u64 {
        let mut h = self.pc as u64;
        for &c in &self.loop_stack {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(c as u64 + 1);
        }
        for &c in &self.while_stack {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(c.wrapping_add(1));
        }
        h
    }
}

/// The `k` rank snapshots a group's [`MsgProcess::snapshot`] frames.
fn unframe(snapshot: &[u8], k: usize) -> Vec<Vec<u8>> {
    let mut r = Reader::new("group snapshot", snapshot);
    (0..k).map(|_| r.bytes("rank snapshot").expect("framed by snapshot()").to_vec()).collect()
}

/// Compile `plan` into the processes `procs` of `placement`, in that order,
/// next to the topology connecting every pair of the placement's processes
/// ([`Placement::topology`]). A backend running the whole program lists
/// `0..placement.width()`; a worker hosting part of it lists its own.
pub fn compile<L: MeshLocal>(
    plan: &Plan<L>,
    init: &dyn Fn(&Env) -> L,
    placement: &Placement,
    procs: impl IntoIterator<Item = usize>,
) -> (Topology, Vec<MsgProcess<L>>) {
    let topo = placement.topology();
    let pg = placement.pg;
    let n = pg.nprocs();
    let table = channel_table(&topo);
    let links: Vec<Vec<FaceLink>> = (0..n).map(|r| face_links(&pg, r)).collect();
    let procs = procs
        .into_iter()
        .map(|me| {
            let mut ops = Vec::new();
            Lowering { placement, links: &links, me }.flatten(&plan.phases, &mut ops);
            let members = placement.members[me]
                .iter()
                .map(|run| {
                    let rank = run.start;
                    let env = match run.len() {
                        _ if rank >= n => Env::new_host(pg),
                        1 => Env::new(pg, rank),
                        _ => Env { rank, pg, block: box_block(&pg, run) },
                    };
                    Member { env, ranks: run.clone(), local: init(&env), scratch: Vec::new() }
                })
                .collect();
            MsgProcess {
                id: me,
                pg,
                members,
                ops: ops.into(),
                pc: 0,
                chan_to: table[me].clone(),
                chan_from: table.iter().map(|row| row[me]).collect(),
                contribs: Vec::new(),
                global: None,
                loop_stack: Vec::new(),
                while_stack: Vec::new(),
                pool: BufPool::new(),
                pending: None,
                staged: VecDeque::new(),
            }
        })
        .collect();
    (topo, procs)
}

/// `table[writer][reader]`: the first channel from `writer` to `reader`
/// (what [`Topology::find`] returns), for every pair, in one pass over the
/// channel specs.
fn channel_table(topo: &Topology) -> Vec<Vec<Option<ChannelId>>> {
    let n = topo.n_procs();
    let mut table = vec![vec![None; n]; n];
    for (id, spec) in topo.specs().iter().enumerate() {
        table[spec.writer][spec.reader].get_or_insert(ChannelId(id));
    }
    table
}

/// The per-rank program ([`Placement::per_rank`]) with every channel's
/// slack bounded to `slack` pending messages (`None` restores the paper's
/// infinite-slack model). Because the compiled program performs all sends
/// of an exchange before any receives (§3.3), it stays deadlock-free down
/// to `slack = 1`.
pub fn build_msg_processes_with_slack<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    host_mode: HostMode,
    slack: Option<usize>,
) -> (Topology, Vec<MsgProcess<L>>) {
    let placement = Placement::per_rank(&pg, host_mode);
    let (topo, procs) = compile(plan, &**init, &placement, 0..placement.width());
    (topo.with_uniform_capacity(slack), procs)
}

/// Run the per-rank program under the simulated scheduler with the given
/// interleaving policy.
pub fn run_msg_simulated<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    let (topo, procs) = build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, None);
    Simulator::new(topo, procs).run(policy)
}

/// Run the per-rank program under the discrete-event performance
/// simulator: the same execution as [`run_msg_simulated`], placed on the
/// virtual clock of `model`. The outcome carries the predicted makespan,
/// per-rank timed [`perf_sim::Timeline`]s, and the critical path with its
/// cost breakdown — and a final state bitwise identical to the untimed
/// runners' (Theorem 1).
pub fn run_msg_predicted<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    model: &MachineModel,
) -> Result<perf_sim::DesOutcome, RunError> {
    let (topo, procs) = build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, None);
    perf_sim::run_des(topo, procs, model, &mut RoundRobin::new())
}

/// Run the program on the M:N scheduler's pool with bounded channel slack
/// and an optional deadlock watchdog ([`ssp_runtime::ThreadedConfig`]).
///
/// `slack: None` means the plan's own bound, uniform slack 1, so every
/// channel is a one-slot lock-free ring. For this program that equals the
/// paper's infinite slack: the compiled program sends every message of an
/// exchange before it receives any (§3.3) and puts at most one message per
/// exchange on a channel, so slack 1 cannot deadlock it (DESIGN.md §7), and
/// by Theorem 1 every interleaving it admits ends in the infinite-slack
/// final state. `Some(k)` runs at slack `k`. The simulator, the
/// discrete-event backend and [`build_msg_processes_with_slack`] keep
/// `None` = infinite.
///
/// The program runs as [`Placement::pool`] places it for the pool the
/// configuration resolves ([`ThreadedConfig::pool_size`]): one process per
/// rank, or one per pool worker, each hosting a group of contiguous ranks —
/// fused into boxes when the plan's phases allow it (module docs). The
/// outcome's snapshots are per rank, in rank order, either way; its metrics
/// and flight log describe the processes that ran.
pub fn run_msg_threaded_slack<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    slack: Option<usize>,
    cfg: ThreadedConfig,
) -> Result<ThreadedOutcome, RunError> {
    let workers = cfg.pool_size(pg.nprocs());
    let placement = Placement::pool(plan, &pg, &**init, HostMode::GridRank0, workers);
    let (topo, procs) = compile(plan, &**init, &placement, 0..placement.width());
    let slack = Some(slack.unwrap_or(1));
    ssp_runtime::run_threaded_with(&topo.with_uniform_capacity(slack), procs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MeshLocal;
    use crate::reduce::ReduceAlgo;
    use HostMode::GridRank0;
    use ssp_runtime::{launch_partial, Adversary, AdversarialPolicy, RandomPolicy};
    use std::sync::Arc;

    struct One {
        u: Grid3<f64>,
    }

    impl MeshLocal for One {
        fn snapshot_bytes(&self) -> Vec<u8> {
            meshgrid::io::grid3_to_bytes(&self.u)
        }
    }

    fn tiny_plan() -> Plan<One> {
        Plan::builder()
            .gather_grid("collect", |l: &mut One| &mut l.u, |_, _| {})
            .build()
    }

    fn init_fn() -> InitFn<One> {
        Arc::new(|env: &Env| {
            let (nx, ny, nz) = env.block.extent();
            One { u: Grid3::new(nx, ny, nz, 1) }
        })
    }

    /// The per-rank program, grid rank 0 doubling as host.
    fn per_rank<L: MeshLocal>(
        plan: &Plan<L>,
        pg: ProcGrid3,
        init: &InitFn<L>,
    ) -> (Topology, Vec<MsgProcess<L>>) {
        build_msg_processes_with_slack(plan, pg, init, GridRank0, None)
    }

    impl MeshLocalCodec for One {
        fn encode_local(&self) -> Vec<u8> {
            let mut out = Vec::new();
            push_f64s(&mut out, self.u.raw());
            out
        }

        fn decode_local(template: &Self, r: &mut Reader<'_>) -> Result<Self, RunError> {
            let mut u = template.u.clone();
            r.f64s_into(u.raw_mut(), "u")?;
            Ok(One { u })
        }
    }

    /// Drive a process by hand until it asks to receive.
    fn drive_to_recv(p: &mut MsgProcess<One>) {
        loop {
            match p.resume(None) {
                Effect::Recv { .. } => return,
                Effect::Halt => panic!("halted before reaching a receive"),
                Effect::Fault { error } => panic!("unexpected fault: {error}"),
                _ => continue,
            }
        }
    }

    /// Rank `rank` of `plan` over a 2×1×1 grid with its state edited by
    /// `forge`, encoded, reshaped by `patch` and decoded onto a fresh
    /// template: what a resuming worker builds from a hostile manifest.
    fn forged_bytes(
        plan: &Plan<One>,
        rank: usize,
        forge: impl FnOnce(&mut MsgProcess<One>),
        patch: impl FnOnce(&mut Vec<u8>),
    ) -> Result<MsgProcess<One>, RunError> {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let init = init_fn();
        let (_, templates) = per_rank(plan, pg, &init);
        let (_, mut procs) = per_rank(plan, pg, &init);
        forge(&mut procs[rank]);
        let mut bytes = procs[rank].encode_state();
        patch(&mut bytes);
        MsgProcess::decode_state(&templates[rank], &bytes)
    }

    fn forged(
        plan: &Plan<One>,
        rank: usize,
        forge: impl FnOnce(&mut MsgProcess<One>),
    ) -> Result<MsgProcess<One>, RunError> {
        forged_bytes(plan, rank, forge, |_| {})
    }

    /// The index of the first op of `p`'s program that `is` picks.
    fn op_at(p: &MsgProcess<One>, is: fn(&Op<One>) -> bool) -> usize {
        p.ops.iter().position(is).expect("the plan compiles such an op")
    }

    fn assert_fault(effect: Effect<MeshMsg>, rank: usize) {
        let by_rank = |e: &RunError| matches!(e, RunError::Protocol { proc, .. } if *proc == rank);
        let faulted = matches!(&effect, Effect::Fault { error } if by_rank(error));
        assert!(faulted, "expected a protocol fault raised by rank {rank}, got {effect:?}");
    }

    #[test]
    fn forged_pending_receives_are_refused_at_decode() {
        let plan = Plan::builder()
            .exchange("halo", |l: &mut One| &mut l.u)
            .scatter_grid("load", |_: &One| Grid3::new(4, 4, 4, 0), |l: &mut One| &mut l.u)
            .build();
        // Rank 1 compiles [SendFace, RecvFace, ScatterRecvBlock]. A pending
        // receive is one flag, the last byte of a one-rank state, and is the
        // op before the program counter.
        for pc in [2, 3] {
            let pending = |p: &mut MsgProcess<One>| (p.pc, p.pending) = (pc, Some(pc - 1));
            let decoded = forged(&plan, 1, pending).map(|p| p.pending);
            assert_eq!(decoded.ok(), Some(Some(pc - 1)), "pc {pc}");
        }
        // A flag with no op before the program counter or with the send
        // there, and a flag that is neither 0 nor 1.
        for (pc, flag) in [(0, 1), (1, 1), (2, 2)] {
            let r = forged_bytes(&plan, 1, |p| p.pc = pc, |b| *b.last_mut().unwrap() = flag);
            assert!(matches!(r, Err(RunError::Protocol { proc: 1, .. })), "{:?}", r.err());
        }
    }

    #[test]
    fn forged_control_stacks_fault_instead_of_panicking() {
        let plan = Plan::builder()
            .loop_n(2, |b| b.local("l", |_, _| {}))
            .while_loop("w", |_: &One| true, 3, |b| b.local("m", |_, _| {}))
            .build();
        // The program counter at a loop end, a while check and a while exit
        // with both control stacks empty.
        let ats: [fn(&Op<One>) -> bool; 3] = [
            |op| matches!(op, Op::LoopEnd { .. }),
            |op| matches!(op, Op::WhileCheck { .. }),
            |op| matches!(op, Op::WhilePop),
        ];
        for at in ats {
            let mut p = forged(&plan, 1, |p| p.pc = op_at(p, at)).unwrap();
            assert_fault(p.resume(None), 1);
        }
    }

    #[test]
    fn forged_collective_state_faults_instead_of_panicking() {
        // The host mid-gather with its grid gone: at a block's delivery and
        // at the finish; then mid-scatter.
        let finish = |op: &Op<One>| matches!(op, Op::GatherFinish { .. });
        let block = |op: &Op<One>| matches!(op, Op::GatherRecvBlock { .. });
        let mut host = forged(&tiny_plan(), 0, |p| {
            p.pc = op_at(p, finish);
            p.pending = Some(op_at(p, block));
        })
        .unwrap();
        assert_fault(host.resume(Some(MeshMsg::Block(vec![0.0; 32]))), 0);
        let mut host = forged(&tiny_plan(), 0, |p| p.pc = op_at(p, finish)).unwrap();
        assert_fault(host.resume(None), 0);
        let scatter = Plan::builder()
            .scatter_grid("load", |_: &One| Grid3::new(4, 4, 4, 0), |l: &mut One| &mut l.u)
            .build();
        let send = |op: &Op<One>| matches!(op, Op::ScatterSendBlock { .. });
        let mut host = forged(&scatter, 0, |p| p.pc = op_at(p, send)).unwrap();
        assert_fault(host.resume(None), 0);
    }
    #[test]
    fn unexpected_message_kind_is_a_protocol_fault_not_a_panic() {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let init = init_fn();
        let (_topo, mut procs) = per_rank(&tiny_plan(), pg, &init);
        // Rank 0 (the host) first waits for rank 1's gathered block; hand it
        // a reduction vector instead.
        let host = &mut procs[0];
        drive_to_recv(host);
        match host.resume(Some(MeshMsg::Vec(vec![1.0]))) {
            Effect::Fault { error: RunError::Protocol { proc, detail } } => {
                assert_eq!(proc, 0);
                assert!(detail.contains("Block") && detail.contains("Vec"), "{detail}");
            }
            other => panic!("expected a protocol fault, got {other:?}"),
        }
    }

    #[test]
    fn wrong_length_gather_block_is_a_protocol_fault() {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let init = init_fn();
        let (_topo, mut procs) = per_rank(&tiny_plan(), pg, &init);
        let host = &mut procs[0];
        drive_to_recv(host);
        // Rank 1's block holds 32 cells; deliver 3 values.
        match host.resume(Some(MeshMsg::Block(vec![0.0; 3]))) {
            Effect::Fault { error: RunError::Protocol { proc, detail } } => {
                assert_eq!(proc, 0);
                assert!(detail.contains("3") && detail.contains("32"), "{detail}");
            }
            other => panic!("expected a protocol fault, got {other:?}"),
        }
    }

    #[test]
    fn wrong_length_scatter_block_is_a_protocol_fault() {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let plan = Plan::builder()
            .scatter_grid("load", |_: &One| Grid3::new(4, 4, 4, 0), |l: &mut One| &mut l.u)
            .build();
        let init = init_fn();
        let (_topo, mut procs) = per_rank(&plan, pg, &init);
        // Rank 1 waits for its 32-cell block from the host; deliver 3 values.
        let rank1 = &mut procs[1];
        drive_to_recv(rank1);
        match rank1.resume(Some(MeshMsg::Block(vec![0.0; 3]))) {
            Effect::Fault { error: RunError::Protocol { proc, detail } } => {
                assert_eq!(proc, 1);
                assert!(detail.contains("scatter load") && detail.contains("32"), "{detail}");
            }
            other => panic!("expected a protocol fault, got {other:?}"),
        }
    }

    #[test]
    fn delivery_without_pending_recv_is_a_protocol_fault() {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let init = init_fn();
        let (_topo, mut procs) = per_rank(&tiny_plan(), pg, &init);
        // Rank 0 has not asked for anything yet.
        match procs[0].resume(Some(MeshMsg::Halo(vec![0.0]))) {
            Effect::Fault { error: RunError::Protocol { proc, detail } } => {
                assert_eq!(proc, 0);
                assert!(detail.contains("no receive pending"), "{detail}");
            }
            other => panic!("expected a protocol fault, got {other:?}"),
        }
    }

    /// End-to-end buffer-pool discipline: after the first exchange round
    /// warms the pool, every later halo send reuses a buffer recycled from
    /// a received payload instead of allocating a fresh one.
    #[test]
    fn received_halo_buffers_are_recycled_into_the_pool() {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let plan = Plan::builder()
            .loop_n(3, |b| b.exchange("halo", |l: &mut One| &mut l.u))
            .build();
        let init = init_fn();
        let (topo, mut procs) = per_rank(&plan, pg, &init);

        // A minimal hand-rolled fair scheduler, so the processes stay in
        // our hands and their pools are inspectable after the run.
        let mut queues: Vec<std::collections::VecDeque<MeshMsg>> =
            (0..topo.n_channels()).map(|_| Default::default()).collect();
        let mut pending: Vec<Option<ChannelId>> = vec![None; procs.len()];
        let mut halted = vec![false; procs.len()];
        while halted.iter().any(|h| !h) {
            let mut progressed = false;
            for p in 0..procs.len() {
                if halted[p] {
                    continue;
                }
                let delivery = match pending[p] {
                    Some(c) => match queues[c.0].pop_front() {
                        Some(m) => {
                            pending[p] = None;
                            Some(m)
                        }
                        None => continue,
                    },
                    None => None,
                };
                match procs[p].resume(delivery) {
                    Effect::Send { chan, msg } => queues[chan.0].push_back(msg),
                    Effect::Recv { chan } => pending[p] = Some(chan),
                    Effect::Halt => halted[p] = true,
                    Effect::Fault { error } => panic!("unexpected fault: {error}"),
                    Effect::Compute { .. } => {}
                }
                progressed = true;
            }
            assert!(progressed, "hand-rolled scheduler wedged");
        }

        for (rank, p) in procs.iter_mut().enumerate() {
            assert!(
                p.pool.misses > 0,
                "rank {rank} never allocated (no traffic reached it?)"
            );
            assert!(
                p.pool.hits > 0,
                "rank {rank} never recycled a received buffer into a later send"
            );
            // The retention cap held throughout the run…
            let cap = p.pool.max_retained();
            assert!(
                p.pool.pooled() <= cap,
                "rank {rank} retains {} free buffers, above the cap of {cap}",
                p.pool.pooled()
            );
            // …and `put` beyond the cap drops rather than hoards: flooding
            // the pool cannot push it past `max_retained`.
            for _ in 0..cap + 8 {
                p.pool.put(vec![0.0; 8]);
            }
            assert_eq!(
                p.pool.pooled(),
                cap,
                "rank {rank}: a flooded pool must saturate exactly at its cap"
            );
        }
    }

    #[test]
    fn channel_table_agrees_with_find_on_every_pair() {
        let mut dup = Topology::line(4);
        // A second 1 → 2 edge: `find` returns the first, so must the table.
        let second = dup.connect(1, 2);
        assert_ne!(channel_table(&dup)[1][2], Some(second), "first writer→reader match wins");
        for topo in [Topology::fully_connected(5), Topology::star(6, 2), dup] {
            let table = channel_table(&topo);
            assert_eq!(table.len(), topo.n_procs());
            for (w, row) in table.iter().enumerate() {
                assert_eq!(row.len(), topo.n_procs());
                for (r, &chan) in row.iter().enumerate() {
                    assert_eq!(chan, topo.find(w, r), "{w} → {r}");
                }
            }
        }
    }

    #[test]
    fn a_rank_subset_builds_the_same_processes_as_the_whole_program() {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 2, 1));
        let plan = Plan::builder().exchange("halo", |l: &mut One| &mut l.u).build();
        let init = init_fn();
        let (topo, all) = per_rank(&plan, pg, &init);
        let placement = Placement::per_rank(&pg, GridRank0);
        let (sub_topo, sub) = compile(&plan, &*init, &placement, [3, 1]);
        assert_eq!(sub_topo.specs(), topo.specs());
        assert_eq!(placement.topology().specs(), topo.specs());
        for (p, &rank) in sub.iter().zip(&[3usize, 1]) {
            assert_eq!((p.id, p.members[0].env.rank), (rank, rank));
            assert_eq!(p.chan_to, all[rank].chan_to);
            assert_eq!(p.chan_from, all[rank].chan_from);
            assert_eq!(p.ops.len(), all[rank].ops.len());
        }
    }

    #[test]
    fn mesh_messages_price_their_payloads() {
        assert_eq!(MeshMsg::Halo(vec![0.0; 4]).size_bytes(), 32);
        assert_eq!(MeshMsg::Vec(vec![0.0; 2]).size_bytes(), 16);
        assert_eq!(MeshMsg::Block(vec![0.0; 5]).size_bytes(), 40);
        let c = Contribution { bin: 0, order: 0, value: 1.0 };
        assert_eq!(MeshMsg::Contribs(vec![c; 3]).size_bytes(), 60);
    }

    #[test]
    fn group_count_groups_small_grids_on_fewer_workers_than_ranks() {
        let table1 = meshgrid::ProcGrid3::choose((33, 33, 33), 27);
        assert_eq!(group_count(&table1, 2), 2, "18 k cells per worker: grouped");
        assert_eq!(group_count(&table1, 3), 3);
        assert_eq!(group_count(&table1, 1), 27, "36 k cells on one worker: per rank");
        assert_eq!(group_count(&table1, 27), 27, "a worker per rank: per rank");
        let figure2 = meshgrid::ProcGrid3::choose((66, 66, 66), 4);
        assert_eq!(group_count(&figure2, 2), 4, "144 k cells per worker: per rank");
        // Either side of the constant, at 2 workers.
        let edge = |nz| group_count(&meshgrid::ProcGrid3::choose((32, 32, nz), 4), 2);
        assert_eq!(edge(64), 4, "exactly the constant per worker is not below it");
        assert_eq!(edge(63), 2);
        // The pool rule the scheduler applies: an explicit pool of P keeps
        // one rank per process, a larger one is clamped to P.
        for workers in [27, 64] {
            let pool = ThreadedConfig::default().with_workers(workers).pool_size(27);
            assert_eq!((pool, group_count(&table1, pool)), (27, 27));
        }
    }

    #[test]
    fn groups_are_contiguous_and_differ_in_size_by_at_most_one() {
        for n in 1..=30 {
            let pg = ProcGrid3::new((30, 4, 4), (n, 1, 1));
            for w in 1..=n {
                let layout = Placement::unfused(&pg, GridRank0, w);
                let ranks: Vec<Vec<usize>> = (0..w).map(|p| layout.ranks(p).collect()).collect();
                assert_eq!(ranks.concat(), (0..n).collect::<Vec<_>>(), "n={n} w={w}");
                let sizes: Vec<usize> = ranks.iter().map(Vec::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(*lo >= 1 && hi - lo <= 1, "n={n} w={w}: {sizes:?}");
                for (p, ranks) in ranks.iter().enumerate() {
                    for (m, &r) in ranks.iter().enumerate() {
                        assert_eq!((layout.proc_of[r], layout.member_of[r]), (p, m), "n={n} w={w}");
                    }
                }
            }
        }
    }

    /// A field relaxed through its ghosts, and the results of two
    /// order-sensitive sums fed back into it.
    #[derive(Clone)]
    struct Cell {
        u: Grid3<f64>,
        s: Vec<f64>,
    }

    impl MeshLocal for Cell {
        fn snapshot_bytes(&self) -> Vec<u8> {
            let mut out = meshgrid::io::grid3_to_bytes(&self.u);
            push_f64s(&mut out, &self.s);
            out
        }

        fn cut(&self, whole: &Env, member: &Env) -> Option<Self> {
            let at = member.block.within(&whole.block);
            Some(Cell { u: self.u.sub_grid(&at), s: self.s.clone() })
        }
    }

    impl MeshLocalCodec for Cell {
        fn encode_local(&self) -> Vec<u8> {
            let mut out = Vec::new();
            push_f64s(&mut out, self.u.raw());
            push_u32(&mut out, self.s.len() as u32);
            push_f64s(&mut out, &self.s);
            out
        }

        fn decode_local(template: &Self, r: &mut Reader<'_>) -> Result<Self, RunError> {
            let mut u = template.u.clone();
            r.f64s_into(u.raw_mut(), "u")?;
            let n = r.count(8, "s")?;
            Ok(Cell { u, s: r.f64s(n, "s")? })
        }
    }

    fn init_cell() -> InitFn<Cell> {
        Arc::new(|env: &Env| {
            let (nx, ny, nz) = env.block.extent();
            let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
                let (gi, gj, gk) = env.block.to_global(i, j, k);
                1.0 + (gi * 7 + gj * 3 + gk) as f64 * 0.37
            });
            Cell { u, s: Vec::new() }
        })
    }

    fn relax(_: &Env, l: &mut Cell) {
        let (nx, ny, nz) = l.u.extent();
        let old = l.u.clone();
        for i in 0..nx as isize {
            for j in 0..ny as isize {
                for k in 0..nz as isize {
                    let around = old.get(i - 1, j, k) + old.get(i + 1, j, k) + old.get(i, j - 1, k)
                        + old.get(i, j + 1, k) + old.get(i, j, k - 1) + old.get(i, j, k + 1);
                    l.u.set(i, j, k, 0.5 * old.get(i, j, k) + around / 12.0);
                }
            }
        }
    }

    /// Partials of wide magnitude, so any change of combine order shows.
    fn partials(env: &Env, l: &Cell) -> Vec<f64> {
        let sum: f64 = l.u.interior_to_vec().iter().sum();
        let scale = 10f64.powi((env.rank % 5) as i32 * 4);
        vec![sum * scale, sum / scale, 1.0 / (env.rank as f64 + 3.0)]
    }

    fn feed_back(_: &Env, l: &mut Cell, v: &[f64]) {
        l.s = v.to_vec();
        let corner = l.u.get(0, 0, 0);
        l.u.set(0, 0, 0, corner + v.iter().sum::<f64>() * 1e-12);
    }

    fn cell_plan() -> Plan<Cell> {
        let all = meshgrid::halo::FaceSet3::ALL;
        let halo = || ExchangeSpec::new("halo").part(|l: &mut Cell| &mut l.u, all);
        Plan::builder()
            .loop_n(2, |b| {
                b.exchange_parts(halo())
                    .local("relax", relax)
                    .reduce("a2o", ReduceOp::Sum, ReduceAlgo::AllToOne, partials, feed_back)
                    .exchange_send(halo())
                    .local("scale", |_, l: &mut Cell| {
                        // Writes the slabs in flight: the split must have
                        // taken them at its send half.
                        let (nx, ny, nz) = l.u.extent();
                        for i in 0..nx as isize {
                            for j in 0..ny as isize {
                                for k in 0..nz as isize {
                                    l.u.set(i, j, k, l.u.get(i, j, k) * 0.75);
                                }
                            }
                        }
                    })
                    .exchange_recv(halo())
                    .local("relax", relax)
                    .reduce("rd", ReduceOp::Sum, ReduceAlgo::RecursiveDoubling, partials, feed_back)
            })
            .build()
    }

    /// Every grouping of P ≤ 9 ranks, slack 1 and unbounded, under three
    /// policies: bitwise the per-rank program. Both reduction schedules
    /// combine wide-magnitude partials, so a rank combining its partials in
    /// any other order would show. The cellwise stencil runs every grouping
    /// fused.
    #[test]
    fn every_grouping_matches_the_per_rank_program_bitwise() {
        let init = init_cell();
        let mut fused = 0;
        for plan in [cell_plan(), stencil_plan()] {
            for p in 1..=9 {
                let pg = ProcGrid3::choose((8, 6, 5), p);
                let reference =
                    run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
                for w in 1..=p {
                    let placement = Placement::groups(&plan, &pg, &*init, GridRank0, w);
                    fused += placement.members.concat().iter().filter(|r| r.len() > 1).count();
                    for slack in [Some(1), None] {
                        let label = format!("P={p} W={w} slack {slack:?}");
                        let policies: [Box<dyn SchedulePolicy>; 3] = [
                            Box::new(RoundRobin::new()),
                            Box::new(RandomPolicy::seeded(7 * p as u64 + w as u64)),
                            Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
                        ];
                        for mut policy in policies {
                            let (topo, procs) = compile(&plan, &*init, &placement, 0..w);
                            let sim = Simulator::new(topo.with_uniform_capacity(slack), procs);
                            let got = sim.run(policy.as_mut());
                            let got = got.unwrap_or_else(|e| panic!("{label}: {e}"));
                            assert_eq!(got.snapshots, reference.snapshots, "{label}");
                        }
                    }
                }
            }
        }
        assert!(fused > 30, "only {fused} multi-rank boxes: the sweep hardly fused");
    }

    /// Negative control: a lowering that skips one assignment between
    /// members leaves a ghost slab stale, and the comparison sees it.
    #[test]
    fn a_lowering_that_skips_one_intra_group_copy_is_caught() {
        let (plan, init) = (cell_plan(), init_cell());
        let pg = ProcGrid3::choose((6, 5, 4), 8);
        let reference = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
        let placement = Placement::unfused(&pg, GridRank0, 2);
        let (topo, mut procs) = compile(&plan, &*init, &placement, 0..2);
        let ops = Arc::get_mut(&mut procs[0].ops).expect("each process owns its program");
        let copies = ops.iter_mut().find_map(|op| match op {
            Op::CopyFaces { copies, .. } => Some(copies),
            _ => None,
        });
        copies.expect("a group of four ranks copies faces").pop();
        let out = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap();
        assert_ne!(out.snapshots, reference.snapshots);
    }

    /// A grouped program cut after every prefix of a round-robin run — mid
    /// split exchange, with slabs staged, among them — survives the state
    /// codec and finishes on the pool bitwise equal to the per-rank run. So
    /// does a fused one: each box encodes as one member, and a template
    /// built the same way resumes it.
    #[test]
    fn every_cut_of_a_grouped_run_survives_the_state_codec() {
        let pg = ProcGrid3::choose((6, 5, 4), 4);
        let unfused = Placement::unfused(&pg, GridRank0, 2);
        let staged_seen = every_cut_survives(&cell_plan(), unfused);
        assert!(staged_seen, "some cut lands between a split exchange's halves");
        let fused = Placement::groups(&stencil_plan(), &pg, &*init_cell(), GridRank0, 2);
        assert_eq!(fused.members.concat(), [0..2, 2..4], "two boxes of two ranks");
        assert_eq!(fused.members[0].len(), 1);
        every_cut_survives(&stencil_plan(), fused);
    }

    /// Cut `plan` on the 4-rank grid placed by `placement` (two processes)
    /// after every prefix of a round-robin run, pass every process through
    /// the state codec and finish on the pool: bitwise the per-rank run.
    /// Returns whether some cut held staged slabs.
    fn every_cut_survives(plan: &Plan<Cell>, placement: Placement) -> bool {
        let init = init_cell();
        let pg = ProcGrid3::choose((6, 5, 4), 4);
        let reference = run_msg_simulated(plan, pg, &init, &mut RoundRobin::new()).unwrap();
        let build = || compile(plan, &*init, &placement, 0..2);
        let (topo, templates) = build();
        let reference_run = Simulator::new(topo.clone(), build().1).run(&mut RoundRobin::new());
        let picks = reference_run.unwrap().picks;
        let mut staged_seen = false;
        for cut in 0..=picks.len() {
            let mut sim = Simulator::new(topo.clone(), build().1);
            for &p in &picks[..cut] {
                sim.step_process_with(p, &mut |_| {}).unwrap();
            }
            let mut seed = sim.into_seed();
            for (id, proc, _, _) in &mut seed.procs {
                staged_seen |= !proc.staged.is_empty();
                *proc = MsgProcess::decode_state(&templates[*id], &proc.encode_state()).unwrap();
            }
            let out = launch_partial(&topo, seed, Some(2), None, None, None);
            let snaps: Vec<_> = out.join().unwrap().snapshots.into_iter().map(|s| s.1).collect();
            assert_eq!(snaps, reference.snapshots, "cut {cut}");
        }
        staged_seen
    }

    /// A relaxation sweep declared cellwise, after an exchange of every
    /// face: a plan every group may fuse.
    fn stencil_plan() -> Plan<Cell> {
        Plan::builder()
            .loop_n(3, |b| {
                b.exchange("halo", |l: &mut Cell| &mut l.u).local("relax", relax).cellwise()
            })
            .build()
    }

    #[test]
    fn twenty_seven_ranks_on_two_workers_fuse_into_six_boxes() {
        let pg = ProcGrid3::choose((33, 33, 33), 27);
        let plan = stencil_plan();
        let layout = Placement::groups(&plan, &pg, &*init_cell(), GridRank0, 2);
        assert_eq!(layout.members, [vec![0..9, 9..12, 12..13], vec![13..15, 15..18, 18..27]]);
        let extents: Vec<_> =
            layout.members.iter().flatten().map(|run| box_block(&pg, run).extent()).collect();
        assert_eq!(
            extents,
            [(11, 33, 33), (11, 11, 33), (11, 11, 11), (11, 11, 22), (11, 11, 33), (11, 33, 33)]
        );
        for rank in 0..27 {
            let m = layout.member_of[rank];
            assert!(layout.members[layout.proc_of[rank]][m].contains(&rank), "rank {rank}");
        }
        assert!(fuses(&plan.phases) && !fuses(&cell_plan().phases));
        let unfused = Placement::groups(&cell_plan(), &pg, &*init_cell(), GridRank0, 2);
        assert_eq!(unfused, Placement::unfused(&pg, GridRank0, 2));
        let (_, procs) = compile(&plan, &*init_cell(), &layout, 0..2);
        // One relaxation per box and half-step: three boxes per group.
        for p in &procs {
            assert_eq!(p.ops.iter().filter(|op| matches!(op, Op::Local { .. })).count(), 3);
        }
    }

    /// An exchange between the ranks of one box compiles to nothing: on one
    /// worker the whole grid is one box, and its program is the loop and
    /// the relaxation alone.
    #[test]
    fn an_exchange_inside_a_box_compiles_to_no_op() {
        let pg = ProcGrid3::choose((6, 5, 4), 8);
        let plan = stencil_plan();
        let layout = Placement::groups(&plan, &pg, &*init_cell(), GridRank0, 1);
        assert_eq!((layout.width(), layout.members[0].len()), (1, 1));
        assert_eq!(layout.members[0].first(), Some(&(0..8)), "one box of every rank");
        let (_, procs) = compile(&plan, &*init_cell(), &layout, [0]);
        let kinds: Vec<&str> = procs[0]
            .ops
            .iter()
            .map(|op| match op {
                Op::LoopStart { .. } => "start",
                Op::Local { .. } => "local",
                Op::LoopEnd { .. } => "end",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["start", "local", "end"]);
        assert_eq!(procs[0].members[0].env.block, Block3 { lo: (0, 0, 0), hi: (6, 5, 4) });
    }

    /// Negative control: a block that writes a per-block value — its cell
    /// count — declared cellwise all the same, fuses and is caught.
    #[test]
    fn a_block_wrongly_declared_cellwise_is_caught() {
        let plan = Plan::builder()
            .loop_n(2, |b| {
                b.exchange("halo", |l: &mut Cell| &mut l.u)
                    .local("relax", relax)
                    .cellwise()
                    .local("count", |env: &Env, l: &mut Cell| {
                        let cells = env.block.len() as f64;
                        l.u.set(0, 0, 0, l.u.get(0, 0, 0) + cells);
                    })
                    .cellwise()
            })
            .build();
        let init = init_cell();
        let pg = ProcGrid3::choose((6, 5, 4), 8);
        let reference = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
        let placement = Placement::groups(&plan, &pg, &*init, GridRank0, 2);
        let (topo, procs) = compile(&plan, &*init, &placement, 0..2);
        let got = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap();
        assert_ne!(got.snapshots, reference.snapshots);
    }
}
