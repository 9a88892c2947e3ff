//! The message-passing driver: the paper's final, formally justified
//! transformation applied to a mesh-archetype plan.
//!
//! Each simulated process of the simulated-parallel version becomes a real
//! [`ssp_runtime::Process`]; each data-exchange assignment becomes a
//! send/receive pair on a single-reader single-writer channel, with **all
//! sends of an exchange performed before any receives** (§3.3) so no
//! process ever reads an empty channel that will never be written. The plan
//! is compiled per rank into a flat list of [`Op`]s with explicit control
//! flow; the resulting processes run unchanged on the simulated scheduler
//! (any interleaving policy) or on real OS threads.
//!
//! Floating-point operations are performed in exactly the order the
//! simulated-parallel driver performs them — same reduction schedules, same
//! stable ordered-sum, same slab encodings — so the two drivers' snapshots
//! are bitwise identical: Theorem 1 made concrete.

use std::sync::Arc;

use ssp_runtime::proc::{push_bytes, push_f64s, push_u32, push_u64, Reader};
use ssp_runtime::{
    BufPool, ChannelId, Effect, FaultPlan, Process, RecoveryConfig, RecoveryOutcome, RunError,
    RunOutcome, SchedulePolicy, Simulator, Topology,
};

use machine_model::MachineModel;
use meshgrid::halo::Face3;
use meshgrid::{Grid3, ProcGrid3};

use crate::driver::simpar::{ordered_sum, HostMode};
use crate::driver::wire::{push_contribs, read_contribs};
use crate::driver::{MeshLocal, MeshLocalCodec};
use crate::env::Env;
use crate::exchange::{face_links, FaceLink};
use crate::plan::{
    Contribution, ExchangeSpec, GatherSpec, LocalStep, OrderedReduceSpec, Phase, Plan, PredFn,
    ReduceSpec, ScatterSpec,
};
use crate::plan::{BroadcastSpec, InitFn};
use crate::reduce::{ReduceOp, ReducePlan};

/// The default host rank under [`HostMode::GridRank0`]; under
/// [`HostMode::Separate`] the host is the extra rank `pg.nprocs()`.
pub const HOST: usize = 0;

/// Messages carried on the mesh program's channels.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshMsg {
    /// A halo face slab.
    Halo(Vec<f64>),
    /// A reduction partial / broadcast payload / result vector.
    Vec(Vec<f64>),
    /// Ordered-reduction contributions.
    Contribs(Vec<Contribution>),
    /// A gathered/scattered block of a global grid (interior, lexicographic).
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
    /// `(bin: u32, order: u64, value: f64)` = 20 bytes, matching the
    /// simulated-parallel driver's [`machine_model::MsgRecord`] accounting
    /// so the two drivers' byte profiles agree.
    pub fn size_bytes(&self) -> u64 {
        match self {
            MeshMsg::Halo(v) | MeshMsg::Vec(v) | MeshMsg::Block(v) => 8 * v.len() as u64,
            MeshMsg::Contribs(c) => 20 * c.len() as u64,
        }
    }
}

/// One instruction of the compiled per-rank program.
///
/// Specs are cloned into ops once, at compile ([`flatten`]) time; the
/// finished program is frozen behind an `Arc` that every execution step —
/// and every checkpoint clone — merely shares. Steady-state interpretation
/// never clones a spec.
enum Op<L> {
    /// Run a local-computation block (one `Compute` action).
    Local(LocalStep<L>),
    /// Send through `link` the boundary slabs of every part crossing it,
    /// as one message.
    SendFace { spec: ExchangeSpec<L>, link: FaceLink },
    /// Receive the neighbour's message through `link` into the ghost slabs
    /// of every part crossing it.
    RecvFace { spec: ExchangeSpec<L>, link: FaceLink },
    /// `scratch ← extract(local)`.
    ReduceExtract { spec: ReduceSpec<L> },
    /// Send the current scratch to `dst`.
    ReduceSend { dst: usize },
    /// Receive a partial from `src` and combine it into scratch.
    ReduceRecvCombine { src: usize, op: ReduceOp },
    /// Receive a finished result from `src`, replacing scratch.
    ReduceRecvReplace { src: usize },
    /// `inject(local, scratch)`.
    ReduceInject { spec: ReduceSpec<L> },
    /// `contribs ← extract(local)` (appending to the gather buffer).
    OrdExtract { spec: OrderedReduceSpec<L> },
    /// Send this rank's contributions to the host.
    OrdSendContribs { dst: usize },
    /// Host: receive and append `src`'s contributions.
    OrdRecvContribs { src: usize },
    /// Host: sort, sum per bin, leave the result in scratch.
    OrdFinish { spec: OrderedReduceSpec<L> },
    /// Host: send the result vector to `dst`.
    OrdSendResult { dst: usize },
    /// Non-host: receive the result vector from the host.
    OrdRecvResult { src: usize },
    /// `inject(local, scratch)`.
    OrdInject { spec: OrderedReduceSpec<L> },
    /// Root: `scratch ← get(local)`.
    BcastGet { spec: BroadcastSpec<L> },
    /// Root: send scratch to `dst`.
    BcastSend { dst: usize },
    /// Non-root: receive the payload into scratch.
    BcastRecv { root: usize },
    /// `set(local, scratch)` (runs on every rank).
    BcastSet { spec: BroadcastSpec<L> },
    /// Non-host: send this rank's field interior to the host.
    GatherSend { spec: GatherSpec<L>, dst: usize },
    /// Host: start assembling — allocate the global grid and insert own
    /// block.
    GatherInit { spec: GatherSpec<L> },
    /// Host: receive and insert `src`'s block.
    GatherRecvBlock { src: usize },
    /// Host: deliver the assembled grid to the sink.
    GatherFinish { spec: GatherSpec<L> },
    /// Host: build the global source grid.
    ScatterInit { spec: ScatterSpec<L> },
    /// Host: send `dst`'s block of the source grid.
    ScatterSendBlock { dst: usize },
    /// Host: copy own block into the field.
    ScatterSelf { spec: ScatterSpec<L> },
    /// Non-host: receive this rank's block into the field.
    ScatterRecvBlock { spec: ScatterSpec<L>, src: usize },
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

/// One `SendFace` per link some part of `spec` leaves `rank` through.
fn push_face_sends<L>(spec: &ExchangeSpec<L>, pg: &ProcGrid3, rank: usize, ops: &mut Vec<Op<L>>) {
    for link in face_links(pg, rank) {
        if spec.sent_through(link.face).next().is_some() {
            ops.push(Op::SendFace { spec: spec.clone(), link });
        }
    }
}

/// One `RecvFace` per link some part of `spec` reaches `rank` through.
fn push_face_recvs<L>(spec: &ExchangeSpec<L>, pg: &ProcGrid3, rank: usize, ops: &mut Vec<Op<L>>) {
    for link in face_links(pg, rank) {
        if spec.received_through(link.face).next().is_some() {
            ops.push(Op::RecvFace { spec: spec.clone(), link });
        }
    }
}

/// Compile `plan` into the per-rank instruction list. `host` is `Some(h)`
/// when a separate host process (rank `h = pg.nprocs()`) participates.
fn flatten<L>(
    phases: &[Phase<L>],
    env: &Env,
    pg: &ProcGrid3,
    host: Option<usize>,
    ops: &mut Vec<Op<L>>,
) {
    let rank = env.rank;
    let n = pg.nprocs();
    let total = n + usize::from(host.is_some());
    let h = host.unwrap_or(HOST);
    let is_host = env.is_host();
    for phase in phases {
        match phase {
            Phase::Local(step) => {
                if !is_host {
                    ops.push(Op::Local(step.clone()));
                }
            }
            Phase::Exchange(spec) => {
                if n == 1 || is_host {
                    continue;
                }
                // All sends before any receives (§3.3).
                push_face_sends(spec, pg, rank, ops);
                push_face_recvs(spec, pg, rank, ops);
            }
            Phase::ExchangeSend(spec) => {
                if n == 1 || is_host {
                    continue;
                }
                // The send half only: the matching ExchangeRecv later in
                // the plan issues the receives, and whatever local ops sit
                // between them run while the messages are in flight.
                push_face_sends(spec, pg, rank, ops);
            }
            Phase::ExchangeRecv(spec) => {
                if n == 1 || is_host {
                    continue;
                }
                push_face_recvs(spec, pg, rank, ops);
            }
            Phase::Reduce(spec) => {
                if is_host {
                    // A separate host only receives the finished result
                    // (from grid rank 0) to keep its replicated globals
                    // consistent.
                    ops.push(Op::ReduceRecvReplace { src: 0 });
                    ops.push(Op::ReduceInject { spec: spec.clone() });
                    continue;
                }
                ops.push(Op::ReduceExtract { spec: spec.clone() });
                let rplan = ReducePlan::build(spec.algo, n);
                for stage in &rplan.stages {
                    // Per stage: this rank's sends first (they carry the
                    // pre-stage partial), then its receives in step order.
                    for step in stage {
                        if step.src() == rank {
                            ops.push(Op::ReduceSend { dst: step.dst() });
                        }
                    }
                    for step in stage {
                        if step.dst() == rank {
                            match step {
                                crate::reduce::ReduceStep::Combine { src, .. } => ops
                                    .push(Op::ReduceRecvCombine { src: *src, op: spec.op }),
                                crate::reduce::ReduceStep::Copy { src, .. } => {
                                    ops.push(Op::ReduceRecvReplace { src: *src })
                                }
                            }
                        }
                    }
                }
                if host.is_some() && rank == 0 {
                    ops.push(Op::ReduceSend { dst: h });
                }
                ops.push(Op::ReduceInject { spec: spec.clone() });
            }
            Phase::OrderedReduce(spec) => {
                if rank == h {
                    if !is_host {
                        // Grid rank 0 doubling as host contributes its own
                        // surface points first (grid-rank order).
                        ops.push(Op::OrdExtract { spec: spec.clone() });
                    }
                    for src in (0..n).filter(|&s| s != h) {
                        ops.push(Op::OrdRecvContribs { src });
                    }
                    ops.push(Op::OrdFinish { spec: spec.clone() });
                    for dst in (0..n).filter(|&d| d != h) {
                        ops.push(Op::OrdSendResult { dst });
                    }
                } else {
                    ops.push(Op::OrdExtract { spec: spec.clone() });
                    ops.push(Op::OrdSendContribs { dst: h });
                    ops.push(Op::OrdRecvResult { src: h });
                }
                ops.push(Op::OrdInject { spec: spec.clone() });
            }
            Phase::Broadcast(spec) => {
                if rank == spec.root {
                    ops.push(Op::BcastGet { spec: spec.clone() });
                    for dst in (0..total).filter(|&d| d != spec.root) {
                        ops.push(Op::BcastSend { dst });
                    }
                } else {
                    ops.push(Op::BcastRecv { root: spec.root });
                }
                ops.push(Op::BcastSet { spec: spec.clone() });
            }
            Phase::GatherGrid(spec) => {
                if rank == h {
                    ops.push(Op::GatherInit { spec: spec.clone() });
                    for src in (0..n).filter(|&s| s != h) {
                        ops.push(Op::GatherRecvBlock { src });
                    }
                    ops.push(Op::GatherFinish { spec: spec.clone() });
                } else {
                    ops.push(Op::GatherSend { spec: spec.clone(), dst: h });
                }
            }
            Phase::ScatterGrid(spec) => {
                if rank == h {
                    ops.push(Op::ScatterInit { spec: spec.clone() });
                    for dst in (0..n).filter(|&d| d != h) {
                        ops.push(Op::ScatterSendBlock { dst });
                    }
                    ops.push(Op::ScatterSelf { spec: spec.clone() });
                } else {
                    ops.push(Op::ScatterRecvBlock { spec: spec.clone(), src: h });
                }
            }
            Phase::Loop { count, body } => {
                let start_idx = ops.len();
                ops.push(Op::LoopStart { count: *count, exit: usize::MAX }); // patched
                let body_idx = ops.len();
                flatten(body, env, pg, host, ops);
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
                flatten(body, env, pg, host, ops);
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

/// A mesh process: one rank of the compiled message-passing program.
///
/// `Clone` (for `L: Clone`) is what makes mesh programs checkpointable: the
/// recovery supervisor snapshots every rank by cloning it.
#[derive(Clone)]
pub struct MsgProcess<L> {
    env: Env,
    local: L,
    /// The compiled program, frozen and shared: checkpoint clones bump the
    /// refcount instead of copying the instruction list, and the
    /// interpreter borrows ops independently of the mutable state.
    ops: Arc<[Op<L>]>,
    pc: usize,
    /// Channel to send to `dst`: `chan_to[dst]`.
    chan_to: Vec<Option<ChannelId>>,
    /// Channel to receive from `src`: `chan_from[src]`.
    chan_from: Vec<Option<ChannelId>>,
    scratch: Vec<f64>,
    contribs: Vec<Contribution>,
    global: Option<Grid3<f64>>,
    loop_stack: Vec<usize>,
    while_stack: Vec<u64>,
    /// Recycled `f64` payload buffers (take-on-send / put-on-receive; see
    /// [`BufPool`]). Clones start cold — a pool is a cache, not state.
    pool: BufPool<f64>,
    /// Describes how to consume the next delivery (set when a Recv effect
    /// is emitted; the op pointer has already advanced).
    pending: Option<PendingRecv>,
}

/// How to consume the next delivery. Spec-carrying receives reference the
/// op that issued them by program index instead of cloning the spec: the
/// program is immutable, so the index stays valid for the process's (and
/// any checkpoint clone's) entire life.
#[derive(Clone)]
enum PendingRecv {
    Face { op: usize, link: FaceLink },
    Combine { op: ReduceOp },
    Replace,
    Contribs,
    Result,
    Bcast,
    GatherBlock { src: usize },
    ScatterBlock { op: usize },
}

impl PendingRecv {
    /// The [`MeshMsg`] variant this pending receive is allowed to consume.
    fn expected_kind(&self) -> &'static str {
        match self {
            PendingRecv::Face { .. } => "Halo",
            PendingRecv::Combine { .. }
            | PendingRecv::Replace
            | PendingRecv::Result
            | PendingRecv::Bcast => "Vec",
            PendingRecv::Contribs => "Contribs",
            PendingRecv::GatherBlock { .. } | PendingRecv::ScatterBlock { .. } => "Block",
        }
    }
}

// ---------------------------------------------------------------------------
// Process-state codec: what a checkpoint-resumed migration moves.
// ---------------------------------------------------------------------------

/// The reduce operators in wire-tag order.
const REDUCE_OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min];

impl<L: MeshLocalCodec> MsgProcess<L> {
    /// Encode this process's complete dynamic state: program counter, local
    /// state (via [`MeshLocalCodec`]), scratch/contrib buffers, an
    /// in-progress gather/scatter grid (ghosts included — a cut can land
    /// mid-collective), control stacks, and the pending-receive descriptor.
    /// Static structure (the compiled program, channels, geometry) is *not*
    /// encoded; [`MsgProcess::decode_state`] takes it from a template.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.pc as u64);
        push_bytes(&mut out, &self.local.encode_local());
        push_u32(&mut out, self.scratch.len() as u32);
        push_f64s(&mut out, &self.scratch);
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
        match &self.pending {
            None => out.push(0),
            Some(PendingRecv::Face { op, link }) => {
                out.push(1);
                push_u64(&mut out, *op as u64);
                let face = Face3::ALL.iter().position(|f| *f == link.face);
                out.push(face.expect("Face3::ALL is exhaustive") as u8);
                push_u32(&mut out, link.neighbor as u32);
            }
            Some(PendingRecv::Combine { op }) => {
                out.push(2);
                let tag = REDUCE_OPS.iter().position(|o| o == op);
                out.push(tag.expect("REDUCE_OPS is exhaustive") as u8);
            }
            Some(PendingRecv::Replace) => out.push(3),
            Some(PendingRecv::Contribs) => out.push(4),
            Some(PendingRecv::Result) => out.push(5),
            Some(PendingRecv::Bcast) => out.push(6),
            Some(PendingRecv::GatherBlock { src }) => {
                out.push(7);
                push_u32(&mut out, *src as u32);
            }
            Some(PendingRecv::ScatterBlock { op }) => {
                out.push(8);
                push_u64(&mut out, *op as u64);
            }
        }
        out
    }

    /// Rebuild a process from `template` (a freshly built process for the
    /// same rank, spec, and topology) plus [`MsgProcess::encode_state`]
    /// bytes. Total over arbitrary bytes: malformed or forged input fails
    /// with a typed [`RunError::Protocol`] attributed to the template's
    /// rank. A pending receive must name a receive op of the template's
    /// program (of its kind, and for a halo, over its link), and an
    /// in-progress grid must be the program's global grid; control state
    /// the interpreter cannot check here (an empty loop or while stack, a
    /// missing grid) faults typed when it is reached. So a hostile manifest
    /// can neither panic the interpreter nor make it index out of range.
    pub fn decode_state(template: &MsgProcess<L>, buf: &[u8]) -> Result<MsgProcess<L>, RunError> {
        let rank = template.env.rank;
        let ops = &template.ops;
        let mut r = Reader::new("mesh state", buf).for_proc(rank);
        let pc = r.u64("pc")? as usize;
        if pc > ops.len() {
            return Err(r.error(format_args!("pc {pc} outside program of {} ops", ops.len())));
        }
        let mut local_r = Reader::new("mesh state", r.bytes("local state")?).for_proc(rank);
        let local = L::decode_local(&template.local, &mut local_r)?;
        let local = local_r.finish(local)?;
        let n = r.count(8, "scratch")?;
        let scratch = r.f64s(n, "scratch")?;
        let n = r.count(20, "contribs")?;
        let contribs = read_contribs(&mut r, n)?;
        let global = match r.u8("global flag")? {
            0 => None,
            1 => {
                let mut dim = |what| r.u32(what).map(|d| d as usize);
                let (nx, ny, nz) = (dim("global nx")?, dim("global ny")?, dim("global nz")?);
                let ghost = dim("global ghost")?;
                if (nx, ny, nz) != template.env.pg.n {
                    return Err(r.error(format_args!(
                        "global grid extent {:?}, the program's grid is {:?}",
                        (nx, ny, nz),
                        template.env.pg.n
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
            }
            t => return Err(r.error(format_args!("unknown global flag {t}"))),
        };
        let n = r.count(8, "loop stack")?;
        let loop_stack = (0..n)
            .map(|_| Ok(r.u64("loop counter")? as usize))
            .collect::<Result<_, RunError>>()?;
        let n = r.count(8, "while stack")?;
        let while_stack = (0..n).map(|_| r.u64("while budget")).collect::<Result<_, _>>()?;
        let pending = match r.u8("pending tag")? {
            0 => None,
            1 => {
                let op = r.u64("pending face op")? as usize;
                let face = r.u8("pending face index")?;
                let neighbor = r.u32("pending face neighbor")? as usize;
                let link = Face3::ALL.get(face as usize).map(|&face| FaceLink { face, neighbor });
                match (ops.get(op), link) {
                    (Some(Op::RecvFace { link: issued, .. }), Some(link)) if *issued == link => {
                        Some(PendingRecv::Face { op, link })
                    }
                    _ => {
                        return Err(r.error(format_args!(
                            "pending halo (op {op}, face {face}, from rank {neighbor}) is not \
                             a receive of this program"
                        )))
                    }
                }
            }
            2 => {
                let tag = r.u8("pending reduce op")?;
                let op = *REDUCE_OPS
                    .get(tag as usize)
                    .ok_or_else(|| r.error(format_args!("unknown reduce op tag {tag}")))?;
                Some(PendingRecv::Combine { op })
            }
            3 => Some(PendingRecv::Replace),
            4 => Some(PendingRecv::Contribs),
            5 => Some(PendingRecv::Result),
            6 => Some(PendingRecv::Bcast),
            7 => {
                let src = r.u32("pending gather src")? as usize;
                if src >= template.env.pg.nprocs() {
                    return Err(r.error(format_args!("gather src {src} outside grid")));
                }
                Some(PendingRecv::GatherBlock { src })
            }
            8 => {
                let op = r.u64("pending scatter op")? as usize;
                if !matches!(ops.get(op), Some(Op::ScatterRecvBlock { .. })) {
                    return Err(r.error(format_args!(
                        "pending scatter op {op} is not a scatter receive of this program"
                    )));
                }
                Some(PendingRecv::ScatterBlock { op })
            }
            t => return Err(r.error(format_args!("unknown pending tag {t}"))),
        };
        r.finish(MsgProcess {
            env: template.env,
            local,
            ops: Arc::clone(ops),
            pc,
            chan_to: template.chan_to.clone(),
            chan_from: template.chan_from.clone(),
            scratch,
            contribs,
            global,
            loop_stack,
            while_stack,
            pool: BufPool::new(),
            pending,
        })
    }
}

impl<L: MeshLocal> MsgProcess<L> {
    /// A protocol error raised by this rank.
    fn protocol(&self, detail: String) -> RunError {
        RunError::Protocol { proc: self.env.rank, detail }
    }

    /// A protocol fault raised by this rank.
    fn fault(&self, detail: String) -> Effect<MeshMsg> {
        Effect::Fault { error: self.protocol(detail) }
    }

    /// The grid of the gather or scatter in progress. Only a forged cut
    /// reaches a collective op without one.
    fn collective_grid(&mut self, op: &str) -> Result<&mut Grid3<f64>, RunError> {
        let proc = self.env.rank;
        self.global.as_mut().ok_or_else(|| RunError::Protocol {
            proc,
            detail: format!("{op} with no gather or scatter in progress"),
        })
    }

    fn insert_block(&mut self, src: usize, data: &[f64]) -> Result<(), RunError> {
        let block = self.env.pg.block(src);
        if data.len() != block.len() {
            return Err(self.protocol(format!(
                "gather block from rank {src} carries {} values, its block holds {}",
                data.len(),
                block.len()
            )));
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

    /// Overwrite the scatter's target field with this rank's block, after
    /// checking that the block fills the field exactly.
    fn install_block(&mut self, spec: &ScatterSpec<L>, data: &[f64]) -> Result<(), RunError> {
        let field = (spec.field)(&mut self.local);
        if data.len() != field.interior_len() {
            let detail = format!(
                "scatter {}: block carries {} values, the field interior holds {}",
                spec.name,
                data.len(),
                field.interior_len()
            );
            return Err(RunError::Protocol { proc: self.env.rank, detail });
        }
        field.interior_from_slice(data);
        Ok(())
    }

    /// Append `dst`'s block of the in-progress global grid to `out`
    /// (lexicographic), packing straight into a recycled buffer.
    fn block_of_global_into(&mut self, dst: usize, out: &mut Vec<f64>) -> Result<(), RunError> {
        let block = self.env.pg.block(dst);
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

    fn chan_to_rank(&self, dst: usize) -> ChannelId {
        self.chan_to[dst].expect("channel to dst exists")
    }

    fn chan_from_rank(&self, src: usize) -> ChannelId {
        self.chan_from[src].expect("channel from src exists")
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
                Op::Local(step) => {
                    let units = (step.flops)(&self.env, &self.local);
                    return match (step.f)(&self.env, &mut self.local) {
                        Ok(()) => Effect::Compute { units },
                        Err(error) => Effect::Fault { error },
                    };
                }
                Op::SendFace { spec, link } => {
                    // Pack the slabs straight from grid storage into a
                    // recycled buffer (no intermediate allocation).
                    let n = spec.packed_len(&mut self.local, link.face);
                    let mut buf = self.pool.take(n);
                    spec.pack(&mut self.local, link.face, &mut buf);
                    return Effect::Send {
                        chan: self.chan_to_rank(link.neighbor),
                        msg: MeshMsg::Halo(buf),
                    };
                }
                Op::RecvFace { link, .. } => {
                    let chan = self.chan_from_rank(link.neighbor);
                    self.pending = Some(PendingRecv::Face { op: pc, link: *link });
                    return Effect::Recv { chan };
                }
                Op::ReduceExtract { spec } => {
                    let v = (spec.extract)(&self.env, &self.local);
                    self.pool.put(std::mem::replace(&mut self.scratch, v));
                }
                Op::ReduceSend { dst } => {
                    let mut buf = self.pool.take(self.scratch.len());
                    buf.extend_from_slice(&self.scratch);
                    return Effect::Send {
                        chan: self.chan_to_rank(*dst),
                        msg: MeshMsg::Vec(buf),
                    };
                }
                Op::ReduceRecvCombine { src, op } => {
                    self.pending = Some(PendingRecv::Combine { op: *op });
                    return Effect::Recv { chan: self.chan_from_rank(*src) };
                }
                Op::ReduceRecvReplace { src } => {
                    self.pending = Some(PendingRecv::Replace);
                    return Effect::Recv { chan: self.chan_from_rank(*src) };
                }
                Op::ReduceInject { spec } => {
                    (spec.inject)(&self.env, &mut self.local, &self.scratch);
                }
                Op::OrdExtract { spec } => {
                    self.contribs = (spec.extract)(&self.env, &self.local);
                }
                Op::OrdSendContribs { dst } => {
                    let msg = MeshMsg::Contribs(std::mem::take(&mut self.contribs));
                    return Effect::Send { chan: self.chan_to_rank(*dst), msg };
                }
                Op::OrdRecvContribs { src } => {
                    self.pending = Some(PendingRecv::Contribs);
                    return Effect::Recv { chan: self.chan_from_rank(*src) };
                }
                Op::OrdFinish { spec } => {
                    let contribs = std::mem::take(&mut self.contribs);
                    let v = ordered_sum(contribs, spec.n_bins, spec.method);
                    self.pool.put(std::mem::replace(&mut self.scratch, v));
                }
                Op::OrdSendResult { dst } => {
                    let mut buf = self.pool.take(self.scratch.len());
                    buf.extend_from_slice(&self.scratch);
                    return Effect::Send {
                        chan: self.chan_to_rank(*dst),
                        msg: MeshMsg::Vec(buf),
                    };
                }
                Op::OrdRecvResult { src } => {
                    self.pending = Some(PendingRecv::Result);
                    return Effect::Recv { chan: self.chan_from_rank(*src) };
                }
                Op::OrdInject { spec } => {
                    (spec.inject)(&self.env, &mut self.local, &self.scratch);
                }
                Op::BcastGet { spec } => {
                    let v = (spec.get)(&self.env, &self.local);
                    self.pool.put(std::mem::replace(&mut self.scratch, v));
                }
                Op::BcastSend { dst } => {
                    let mut buf = self.pool.take(self.scratch.len());
                    buf.extend_from_slice(&self.scratch);
                    return Effect::Send {
                        chan: self.chan_to_rank(*dst),
                        msg: MeshMsg::Vec(buf),
                    };
                }
                Op::BcastRecv { root } => {
                    self.pending = Some(PendingRecv::Bcast);
                    return Effect::Recv { chan: self.chan_from_rank(*root) };
                }
                Op::BcastSet { spec } => {
                    (spec.set)(&self.env, &mut self.local, &self.scratch);
                }
                Op::GatherSend { spec, dst } => {
                    let field = (spec.field)(&mut self.local);
                    let n = field.interior_len();
                    let mut buf = self.pool.take(n);
                    field.interior_append_to(&mut buf);
                    return Effect::Send {
                        chan: self.chan_to_rank(*dst),
                        msg: MeshMsg::Block(buf),
                    };
                }
                Op::GatherInit { spec } => {
                    let n = self.env.pg.n;
                    self.global = Some(Grid3::new(n.0, n.1, n.2, 0));
                    // A separate host owns no block; a grid rank doubling
                    // as host inserts its own section first.
                    if !self.env.is_host() {
                        let mut own = self.pool.take(0);
                        (spec.field)(&mut self.local).interior_append_to(&mut own);
                        let rank = self.env.rank;
                        let res = self.insert_block(rank, &own);
                        self.pool.put(own);
                        if let Err(error) = res {
                            return Effect::Fault { error };
                        }
                    }
                }
                Op::GatherRecvBlock { src } => {
                    self.pending = Some(PendingRecv::GatherBlock { src: *src });
                    return Effect::Recv { chan: self.chan_from_rank(*src) };
                }
                Op::GatherFinish { spec } => {
                    let Some(global) = self.global.take() else {
                        return self.fault("gather finish with no gather in progress".into());
                    };
                    (spec.sink)(&mut self.local, &global);
                }
                Op::ScatterInit { spec } => {
                    let g = (spec.source)(&self.local);
                    let (got, n) = (g.extent(), self.env.pg.n);
                    if got != n {
                        let name = &spec.name;
                        return self.fault(format!(
                            "scatter {name}: source grid extent {got:?}, expected {n:?}"
                        ));
                    }
                    self.global = Some(g);
                }
                Op::ScatterSendBlock { dst } => {
                    let dst = *dst;
                    let mut buf = self.pool.take(self.env.pg.block(dst).len());
                    if let Err(error) = self.block_of_global_into(dst, &mut buf) {
                        return Effect::Fault { error };
                    }
                    return Effect::Send {
                        chan: self.chan_to_rank(dst),
                        msg: MeshMsg::Block(buf),
                    };
                }
                Op::ScatterSelf { spec } => {
                    // A separate host keeps nothing for itself.
                    if !self.env.is_host() {
                        let rank = self.env.rank;
                        let mut buf = self.pool.take(self.env.pg.block(rank).len());
                        let res = self
                            .block_of_global_into(rank, &mut buf)
                            .and_then(|()| self.install_block(spec, &buf));
                        self.pool.put(buf);
                        if let Err(error) = res {
                            return Effect::Fault { error };
                        }
                    }
                    self.global = None;
                }
                Op::ScatterRecvBlock { src, .. } => {
                    self.pending = Some(PendingRecv::ScatterBlock { op: pc });
                    return Effect::Recv { chan: self.chan_from_rank(*src) };
                }
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
                    if !pred(&self.local) {
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
            let Some(pending) = self.pending.take() else {
                let kind = msg.kind();
                let detail = format!("a {kind} message was delivered with no receive pending");
                return self.fault(detail);
            };
            match (pending, msg) {
                (PendingRecv::Face { op, link }, MeshMsg::Halo(payload)) => {
                    let ops = Arc::clone(&self.ops);
                    let Op::RecvFace { spec, .. } = &ops[op] else {
                        unreachable!("a pending face names its RecvFace op (decode_state checks)")
                    };
                    // `link.face` is *this* rank's face toward the sender:
                    // the ghost slabs to fill. (The sender extracted from
                    // the opposite face of its own section.) A wrong-sized
                    // payload arrived over a channel, so it surfaces as a
                    // protocol fault, not a panic.
                    if let Err(e) = spec.unpack(&mut self.local, link.face, &payload) {
                        return self.fault(format!("halo from rank {}: {e}", link.neighbor));
                    }
                    self.pool.put(payload);
                }
                (PendingRecv::Combine { op }, MeshMsg::Vec(partial)) => {
                    if partial.len() != self.scratch.len() {
                        return self.fault(format!(
                            "reduction partial carries {} values, this rank's holds {}",
                            partial.len(),
                            self.scratch.len()
                        ));
                    }
                    op.combine_vec(&mut self.scratch, &partial);
                    self.pool.put(partial);
                }
                (PendingRecv::Replace, MeshMsg::Vec(result)) => {
                    self.pool.put(std::mem::replace(&mut self.scratch, result));
                }
                (PendingRecv::Contribs, MeshMsg::Contribs(mut c)) => {
                    self.contribs.append(&mut c);
                }
                (PendingRecv::Result, MeshMsg::Vec(result)) => {
                    self.pool.put(std::mem::replace(&mut self.scratch, result));
                }
                (PendingRecv::Bcast, MeshMsg::Vec(payload)) => {
                    self.pool.put(std::mem::replace(&mut self.scratch, payload));
                }
                (PendingRecv::GatherBlock { src }, MeshMsg::Block(data)) => {
                    if let Err(error) = self.insert_block(src, &data) {
                        return Effect::Fault { error };
                    }
                    self.pool.put(data);
                }
                (PendingRecv::ScatterBlock { op }, MeshMsg::Block(data)) => {
                    let ops = Arc::clone(&self.ops);
                    let Op::ScatterRecvBlock { spec, .. } = &ops[op] else {
                        unreachable!("a pending scatter names its op (decode_state checks)")
                    };
                    if let Err(error) = self.install_block(spec, &data) {
                        return Effect::Fault { error };
                    }
                    self.pool.put(data);
                }
                (pending, other) => {
                    let (want, got) = (pending.expected_kind(), other.kind());
                    return self.fault(format!("expected a {want} message, received {got}"));
                }
            }
        }
        self.advance()
    }

    fn msg_size_bytes(msg: &MeshMsg) -> u64 {
        msg.size_bytes()
    }

    fn snapshot(&self) -> Vec<u8> {
        self.local.snapshot_bytes()
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

/// Compile `plan` into the channel topology and the per-rank processes of
/// the message-passing program (grid rank 0 doubling as host).
pub fn build_msg_processes<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
) -> (Topology, Vec<MsgProcess<L>>) {
    build_msg_processes_hosted(plan, pg, init, HostMode::GridRank0)
}

/// The channel topology of a mesh program over `pg` — all the drivers and
/// the distributed registry agree on it without building any rank's state.
/// Under [`HostMode::Separate`] it has `pg.nprocs() + 1` processes, the
/// last being the dedicated host.
pub fn msg_topology(pg: &ProcGrid3, host_mode: HostMode) -> Topology {
    Topology::fully_connected(total_procs(pg, host_mode))
}

/// Grid ranks plus the separate host, if there is one.
fn total_procs(pg: &ProcGrid3, host_mode: HostMode) -> usize {
    pg.nprocs() + usize::from(host_mode == HostMode::Separate)
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

/// Compile `plan` with an explicit host placement. Under
/// [`HostMode::Separate`] the program has `pg.nprocs() + 1` processes, the
/// last being the dedicated host.
pub fn build_msg_processes_hosted<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    host_mode: HostMode,
) -> (Topology, Vec<MsgProcess<L>>) {
    let ranks: Vec<usize> = (0..total_procs(&pg, host_mode)).collect();
    build_msg_processes_for(plan, pg, init, host_mode, &ranks)
}

/// Compile `plan` for the listed `ranks` only (in that order) — what a
/// worker hosting part of the program builds — next to the whole program's
/// topology.
pub fn build_msg_processes_for<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    host_mode: HostMode,
    ranks: &[usize],
) -> (Topology, Vec<MsgProcess<L>>) {
    let topo = msg_topology(&pg, host_mode);
    let n = pg.nprocs();
    let host = match host_mode {
        HostMode::GridRank0 => None,
        HostMode::Separate => Some(n),
    };
    let table = channel_table(&topo);
    let procs = ranks
        .iter()
        .map(|&rank| {
            let env = if rank < n { Env::new(pg, rank) } else { Env::new_host(pg) };
            let mut ops = Vec::new();
            flatten(&plan.phases, &env, &pg, host, &mut ops);
            MsgProcess {
                env,
                local: init(&env),
                ops: ops.into(),
                pc: 0,
                chan_to: table[rank].clone(),
                chan_from: table.iter().map(|row| row[rank]).collect(),
                scratch: Vec::new(),
                contribs: Vec::new(),
                global: None,
                loop_stack: Vec::new(),
                while_stack: Vec::new(),
                pool: BufPool::new(),
                pending: None,
            }
        })
        .collect();
    (topo, procs)
}

/// Compile `plan` with every channel's slack bounded to `slack` pending
/// messages (`None` restores the paper's infinite-slack model). Because the
/// compiled program performs all sends of an exchange before any receives
/// (§3.3), it stays deadlock-free down to `slack = 1`.
pub fn build_msg_processes_with_slack<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    host_mode: HostMode,
    slack: Option<usize>,
) -> (Topology, Vec<MsgProcess<L>>) {
    let (topo, procs) = build_msg_processes_hosted(plan, pg, init, host_mode);
    (topo.with_uniform_capacity(slack), procs)
}

/// Run the message-passing program under the simulated scheduler with the
/// given interleaving policy.
pub fn run_msg_simulated<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    let (topo, procs) = build_msg_processes(plan, pg, init);
    Simulator::new(topo, procs).run(policy)
}

/// Run the message-passing program under the simulated scheduler with
/// bounded channel slack. The returned [`RunOutcome`]'s `metrics` carry the
/// per-channel/per-process communication profile (dumpable as JSON).
pub fn run_msg_simulated_slack<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    slack: Option<usize>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    let (topo, procs) =
        build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, slack);
    Simulator::new(topo, procs).run(policy)
}

/// Run the message-passing program with an explicit host placement.
pub fn run_msg_simulated_hosted<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    host_mode: HostMode,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    let (topo, procs) = build_msg_processes_hosted(plan, pg, init, host_mode);
    Simulator::new(topo, procs).run(policy)
}

/// Run the message-passing program under the crash-recovery supervisor:
/// the run suffers the (deterministic) faults of `faults`, checkpoints
/// every `cfg.checkpoint_every` steps, and restarts from the latest
/// checkpoint on every injected crash — converging, by Theorem 1, to a
/// final state bitwise identical to the uninjected
/// [`run_msg_simulated_slack`]. The returned
/// [`ssp_runtime::RecoveryOutcome`] carries the recovery accounting
/// (restarts, checkpoints taken, steps re-executed) next to the usual
/// snapshots and metrics.
pub fn run_msg_recovering<L: MeshLocal + Clone>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    slack: Option<usize>,
    faults: FaultPlan,
    policy: &mut dyn SchedulePolicy,
    cfg: RecoveryConfig,
) -> Result<RecoveryOutcome, RunError> {
    let (topo, procs) =
        build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, slack);
    ssp_runtime::run_recovering(topo, procs, faults, policy, cfg)
}

/// Run the message-passing program under the discrete-event performance
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
    run_msg_predicted_slack(plan, pg, init, model, None)
}

/// [`run_msg_predicted`] with every channel's slack bounded to `slack`:
/// shows what buffer back-pressure costs on `model` (the critical path's
/// `blocked` component) without changing any result byte.
pub fn run_msg_predicted_slack<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    model: &MachineModel,
    slack: Option<usize>,
) -> Result<perf_sim::DesOutcome, RunError> {
    let (topo, procs) =
        build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, slack);
    perf_sim::run_des_default(topo, procs, model)
}

/// Run the message-passing program on real OS threads. Returns per-rank
/// snapshots.
pub fn run_msg_threaded<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
) -> Result<Vec<Vec<u8>>, RunError> {
    let (topo, procs) = build_msg_processes(plan, pg, init);
    ssp_runtime::run_threaded_with(&topo, procs, Default::default()).map(|o| o.snapshots)
}

/// Run the message-passing program on real OS threads with bounded channel
/// slack and an optional deadlock watchdog ([`ssp_runtime::ThreadedConfig`]).
/// Returns the full [`ssp_runtime::ThreadedOutcome`] with snapshots and the
/// communication profile.
pub fn run_msg_threaded_slack<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    init: &InitFn<L>,
    slack: Option<usize>,
    cfg: ssp_runtime::ThreadedConfig,
) -> Result<ssp_runtime::ThreadedOutcome, RunError> {
    let (topo, procs) =
        build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, slack);
    ssp_runtime::run_threaded_with(&topo, procs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MeshLocal;
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
    /// `forge`, encoded and decoded onto a fresh template: what a resuming
    /// worker builds from a hostile manifest.
    fn forged(
        plan: &Plan<One>,
        rank: usize,
        forge: impl FnOnce(&mut MsgProcess<One>),
    ) -> Result<MsgProcess<One>, RunError> {
        let pg = meshgrid::ProcGrid3::new((4, 4, 4), (2, 1, 1));
        let init = init_fn();
        let (_, templates) = build_msg_processes(plan, pg, &init);
        let (_, mut procs) = build_msg_processes(plan, pg, &init);
        forge(&mut procs[rank]);
        MsgProcess::decode_state(&templates[rank], &procs[rank].encode_state())
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
        // Rank 1 compiles [SendFace, RecvFace, ScatterRecvBlock]; its halo
        // arrives from rank 0 through its low x face.
        let halo = |op, face| PendingRecv::Face { op, link: FaceLink { face, neighbor: 0 } };
        let valid = forged(&plan, 1, |p| p.pending = Some(halo(1, Face3::XLo)));
        assert!(valid.is_ok(), "{:?}", valid.err());
        // A halo pending on the send op or over another face, and a scatter
        // block pending on the halo receive.
        let scatter = PendingRecv::ScatterBlock { op: 1 };
        for pending in [halo(0, Face3::XLo), halo(1, Face3::XHi), scatter] {
            let r = forged(&plan, 1, |p| p.pending = Some(pending));
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
        let mut host = forged(&tiny_plan(), 0, |p| {
            p.pc = op_at(p, finish);
            p.pending = Some(PendingRecv::GatherBlock { src: 1 });
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
        let (_topo, mut procs) = build_msg_processes(&tiny_plan(), pg, &init);
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
        let (_topo, mut procs) = build_msg_processes(&tiny_plan(), pg, &init);
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
        let (_topo, mut procs) = build_msg_processes(&plan, pg, &init);
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
        let (_topo, mut procs) = build_msg_processes(&tiny_plan(), pg, &init);
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
        let (topo, mut procs) = build_msg_processes(&plan, pg, &init);

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
        let (topo, all) = build_msg_processes(&plan, pg, &init);
        let (sub_topo, sub) =
            build_msg_processes_for(&plan, pg, &init, HostMode::GridRank0, &[3, 1]);
        assert_eq!(sub_topo.specs(), topo.specs());
        assert_eq!(msg_topology(&pg, HostMode::GridRank0).specs(), topo.specs());
        for (p, &rank) in sub.iter().zip(&[3usize, 1]) {
            assert_eq!(p.env.rank, rank);
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
}
