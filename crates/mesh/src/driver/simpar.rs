//! The sequential simulated-parallel driver (§2.2), the reference every
//! other execution of a plan is compared against.
//!
//! One address space per simulated process (`Vec<L>`); local-computation
//! blocks run for `i = 0..N` in index order; data-exchange operations are
//! performed as assignments between the simulated address spaces — with all
//! "sends" (payload extractions) performed before any "receives" (ghost
//! insertions), the ordering §3.3 prescribes. Every message that the
//! corresponding message-passing program would send is recorded in a
//! [`CommTrace`] for the machine model.
//!
//! The §2.2 restrictions hold for every exchange by construction (DESIGN.md
//! §17), so nothing here checks them. A broken program — a mis-sized
//! gather, scatter or halo, a while loop past its budget, ranks that
//! disagree on a replicated predicate — fails with the
//! [`RunError::Protocol`] the message-passing driver raises for it.

use std::collections::VecDeque;

use machine_model::trace::{CommTrace, MsgRecord, PhaseCost};
use meshgrid::halo::Face3;
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::RunError;

use crate::driver::MeshLocal;
use crate::env::Env;
use crate::exchange::face_links;
use crate::plan::{
    Contribution, ExchangeSpec, GatherSpec, OrderedReduceSpec, Phase, Plan, ReduceSpec,
    ScatterSpec,
};
use crate::reduce::ReducePlan;
use crate::sum::SumMethod;

/// Who plays host for file I/O, ordered reductions and result collection
/// (§4.2 offers both options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostMode {
    /// Grid rank 0 doubles as host (no extra process).
    #[default]
    GridRank0,
    /// A dedicated host process (rank `nprocs`) owning no grid block: it
    /// performs only the host side of gathers/scatters/ordered reductions
    /// and receives every replicated-global injection, at the cost of one
    /// extra message per collective.
    Separate,
}

/// Configuration of a simulated-parallel run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimParConfig {
    /// Host placement.
    pub host_mode: HostMode,
}

/// A protocol error raised by simulated process `proc`.
fn protocol(proc: usize, detail: String) -> RunError {
    RunError::Protocol { proc, detail }
}

/// Result of a simulated-parallel run.
pub struct SimParOutcome<L> {
    /// Final local state of every simulated process.
    pub locals: Vec<L>,
    /// Per-process byte snapshots (comparable with message-passing runs).
    pub snapshots: Vec<Vec<u8>>,
    /// Recorded communication/computation costs.
    pub trace: CommTrace,
}

impl<L> SimParOutcome<L> {
    /// Reassemble a distributed field into a global grid (for comparison
    /// against the original sequential program's output).
    pub fn assemble_global(
        &mut self,
        pg: &ProcGrid3,
        mut field: impl FnMut(&mut L) -> &mut Grid3<f64>,
    ) -> Grid3<f64> {
        let n = pg.n;
        let mut global: Grid3<f64> = Grid3::new(n.0, n.1, n.2, 0);
        for r in 0..pg.nprocs() {
            let block = pg.block(r);
            let local = field(&mut self.locals[r]);
            for li in 0..block.extent().0 {
                for lj in 0..block.extent().1 {
                    for lk in 0..block.extent().2 {
                        let (gi, gj, gk) = block.to_global(li, lj, lk);
                        global.set(
                            gi as isize,
                            gj as isize,
                            gk as isize,
                            local.get(li as isize, lj as isize, lk as isize),
                        );
                    }
                }
            }
        }
        global
    }
}

/// The deterministic global-order summation shared verbatim by this driver
/// and the message-passing driver (bitwise agreement by construction):
/// contributions are concatenated in rank order, stably sorted by
/// `(bin, order)`, and each bin summed with `method`.
pub fn ordered_sum(mut contribs: Vec<Contribution>, n_bins: usize, method: SumMethod) -> Vec<f64> {
    contribs.sort_by_key(|a| (a.bin, a.order));
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); n_bins];
    for c in contribs {
        bins[c.bin as usize].push(c.value);
    }
    bins.into_iter().map(|b| method.sum(&b)).collect()
}

/// Extracted exchange messages in flight: `(src, dst, src_face, data)`,
/// `data` being the slabs of every part crossing the link, in part order.
type Payloads = Vec<(usize, usize, Face3, Vec<f64>)>;

struct SimPar<'p, L> {
    pg: ProcGrid3,
    grid_n: usize,
    envs: Vec<Env>,
    locals: Vec<L>,
    cfg: SimParConfig,
    trace: CommTrace,
    /// Payload batches posted by `ExchangeSend` phases awaiting their
    /// matching `ExchangeRecv` (FIFO — splits of the same plan pair up in
    /// program order, exactly as the per-channel FIFO of the
    /// message-passing driver does).
    staged: VecDeque<Payloads>,
    _plan: std::marker::PhantomData<&'p ()>,
}

/// Run `plan` as a sequential simulated-parallel program over the process
/// topology `pg`, with initial local states built by `init`.
///
/// Panics if the program is broken or a local step fails; use
/// [`try_run_simpar`] for the typed error instead.
pub fn run_simpar<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    cfg: SimParConfig,
    init: impl Fn(&Env) -> L,
) -> SimParOutcome<L> {
    try_run_simpar(plan, pg, cfg, init).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_simpar`], but a broken program fails with the
/// [`RunError::Protocol`] the message-passing driver raises for it, and a
/// failed local step with its own [`RunError`].
pub fn try_run_simpar<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    cfg: SimParConfig,
    init: impl Fn(&Env) -> L,
) -> Result<SimParOutcome<L>, RunError> {
    let grid_n = pg.nprocs();
    let mut envs: Vec<Env> = (0..grid_n).map(|r| Env::new(pg, r)).collect();
    if cfg.host_mode == HostMode::Separate {
        envs.push(Env::new_host(pg));
    }
    let locals: Vec<L> = envs.iter().map(&init).collect();
    let total = locals.len();
    let mut driver = SimPar {
        pg,
        grid_n,
        envs,
        locals,
        cfg,
        trace: CommTrace::new(total),
        staged: VecDeque::new(),
        _plan: std::marker::PhantomData,
    };
    driver.run_phases(&plan.phases)?;
    let snapshots = driver.locals.iter().map(|l| l.snapshot_bytes()).collect();
    Ok(SimParOutcome { locals: driver.locals, snapshots, trace: driver.trace })
}

impl<L: MeshLocal> SimPar<'_, L> {
    /// Total simulated processes (grid + optional separate host).
    fn n(&self) -> usize {
        self.locals.len()
    }

    /// Record a communication phase: no flops, `msgs`.
    fn record(&mut self, name: &str, msgs: Vec<MsgRecord>) {
        let flops = vec![0; self.n()];
        self.trace.push(PhaseCost { name: name.to_string(), flops, msgs });
    }

    /// The rank playing host.
    fn host_rank(&self) -> usize {
        match self.cfg.host_mode {
            HostMode::GridRank0 => 0,
            HostMode::Separate => self.grid_n,
        }
    }

    fn run_phases(&mut self, phases: &[Phase<L>]) -> Result<(), RunError> {
        for phase in phases {
            match phase {
                Phase::Local(step) => {
                    let mut flops = vec![0u64; self.n()];
                    for (i, f) in flops.iter_mut().enumerate().take(self.grid_n) {
                        *f = (step.flops)(&self.envs[i], &self.locals[i]);
                        (step.f)(&self.envs[i], &mut self.locals[i])?;
                    }
                    self.trace.push(PhaseCost::compute(&step.name, flops));
                }
                Phase::Exchange(spec) => {
                    let payloads = self.extract_payloads(spec);
                    self.insert_payloads(spec, payloads)?;
                }
                Phase::ExchangeSend(spec) => self.exchange_send(spec),
                Phase::ExchangeRecv(spec) => self.exchange_recv(spec)?,
                Phase::Reduce(spec) => self.reduce(spec),
                Phase::OrderedReduce(spec) => self.ordered_reduce(spec),
                Phase::Broadcast(spec) => {
                    let payload = (spec.get)(&self.envs[spec.root], &self.locals[spec.root]);
                    let mut msgs = Vec::new();
                    for i in 0..self.n() {
                        (spec.set)(&self.envs[i], &mut self.locals[i], &payload);
                        if i != spec.root {
                            msgs.push(MsgRecord {
                                src: spec.root,
                                dst: i,
                                bytes: 8 * payload.len() as u64,
                            });
                        }
                    }
                    self.record(&spec.name, msgs);
                }
                Phase::GatherGrid(spec) => self.gather(spec)?,
                Phase::ScatterGrid(spec) => self.scatter(spec)?,
                Phase::Loop { count, body } => {
                    for _ in 0..*count {
                        self.run_phases(body)?;
                    }
                }
                Phase::While { name, pred, body, max_iters } => {
                    let mut budget = *max_iters;
                    loop {
                        // The predicate is replicated: every rank must agree.
                        let go = pred(&self.locals[0]);
                        if self.locals[1..].iter().any(|l| pred(l) != go) {
                            let detail = format!("{name}: the ranks disagree on the predicate");
                            return Err(protocol(0, detail));
                        }
                        if !go {
                            break;
                        }
                        if budget == 0 {
                            let detail = format!("{name}: exceeded max_iters {max_iters}");
                            return Err(protocol(0, detail));
                        }
                        budget -= 1;
                        self.run_phases(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The send half of a split exchange: extract the payloads from the
    /// pre-send state, stage them for the matching `ExchangeRecv`, and
    /// charge the messages to this phase.
    fn exchange_send(&mut self, spec: &ExchangeSpec<L>) {
        let payloads = self.extract_payloads(spec);
        let msgs = payloads
            .iter()
            .map(|(src, dst, _, p)| MsgRecord { src: *src, dst: *dst, bytes: 8 * p.len() as u64 })
            .collect();
        self.record(&spec.name, msgs);
        self.staged.push_back(payloads);
    }

    /// The receive half of a split exchange: install the oldest staged
    /// payload batch into destination ghosts (messages were already charged
    /// to the send phase).
    fn exchange_recv(&mut self, spec: &ExchangeSpec<L>) -> Result<(), RunError> {
        let payloads = self.staged.pop_front().unwrap_or_default();
        for (src, dst, face, payload) in payloads {
            self.install(spec, src, dst, face, &payload)?;
        }
        self.record(&spec.name, Vec::new());
        Ok(())
    }

    /// Extract every rank's outgoing messages from the pre-exchange state.
    fn extract_payloads(&mut self, spec: &ExchangeSpec<L>) -> Payloads {
        let mut payloads: Payloads = Vec::new();
        for r in 0..self.grid_n {
            for link in face_links(&self.pg, r) {
                if spec.sent_through(link.face).next().is_none() {
                    continue;
                }
                let mut payload = Vec::new();
                spec.pack(&mut self.locals[r], None, link.face, &mut payload);
                payloads.push((r, link.neighbor, link.face, payload));
            }
        }
        payloads
    }

    /// Install one message into the destination's ghosts. The destination's
    /// name for the shared face is the opposite of the sender's.
    fn install(
        &mut self,
        spec: &ExchangeSpec<L>,
        src: usize,
        dst: usize,
        face: Face3,
        payload: &[f64],
    ) -> Result<(), RunError> {
        spec.unpack(&mut self.locals[dst], None, face.opposite(), payload)
            .map_err(|e| protocol(dst, format!("halo from rank {src}: {e}")))
    }

    /// Install extracted messages into destination ghosts and record them.
    fn insert_payloads(
        &mut self,
        spec: &ExchangeSpec<L>,
        payloads: Payloads,
    ) -> Result<(), RunError> {
        if payloads.is_empty() {
            return Ok(());
        }
        let mut msgs = Vec::with_capacity(payloads.len());
        for (src, dst, face, payload) in payloads {
            let bytes = 8 * payload.len() as u64;
            self.install(spec, src, dst, face, &payload)?;
            msgs.push(MsgRecord { src, dst, bytes });
        }
        self.record(&spec.name, msgs);
        Ok(())
    }

    fn reduce(&mut self, spec: &ReduceSpec<L>) {
        let n = self.grid_n;
        let mut partials: Vec<Vec<f64>> = (0..n)
            .map(|r| (spec.extract)(&self.envs[r], &self.locals[r]))
            .collect();
        let len = partials[0].len();
        let rplan = ReducePlan::build(spec.algo, n);
        debug_assert!(rplan.validate().is_ok());
        rplan.execute(spec.op, &mut partials);
        let mut msgs: Vec<MsgRecord> = rplan
            .stages
            .iter()
            .flatten()
            .map(|step| MsgRecord { src: step.src(), dst: step.dst(), bytes: 8 * len as u64 })
            .collect();
        for (r, partial) in partials.iter().enumerate().take(n) {
            (spec.inject)(&self.envs[r], &mut self.locals[r], partial);
        }
        // A separate host receives the result from grid rank 0 so its copy
        // of the replicated global stays consistent.
        if self.cfg.host_mode == HostMode::Separate {
            let h = self.host_rank();
            let result = partials[0].clone();
            (spec.inject)(&self.envs[h], &mut self.locals[h], &result);
            msgs.push(MsgRecord { src: 0, dst: h, bytes: 8 * len as u64 });
        }
        self.record(&spec.name, msgs);
    }

    fn ordered_reduce(&mut self, spec: &OrderedReduceSpec<L>) {
        let host = self.host_rank();
        // Gather contributions to the host in grid-rank order.
        let mut all: Vec<Contribution> = Vec::new();
        let mut msgs = Vec::new();
        for r in 0..self.grid_n {
            let contribs = (spec.extract)(&self.envs[r], &self.locals[r]);
            if r != host {
                // A contribution wires (bin: u32, order: u64, value: f64).
                msgs.push(MsgRecord { src: r, dst: host, bytes: 20 * contribs.len() as u64 });
            }
            all.extend(contribs);
        }
        let result = ordered_sum(all, spec.n_bins, spec.method);
        for r in 0..self.n() {
            (spec.inject)(&self.envs[r], &mut self.locals[r], &result);
            if r != host {
                msgs.push(MsgRecord { src: host, dst: r, bytes: 8 * result.len() as u64 });
            }
        }
        self.record(&spec.name, msgs);
    }

    fn gather(&mut self, spec: &GatherSpec<L>) -> Result<(), RunError> {
        let host = self.host_rank();
        let global_n = self.pg.n;
        let mut global: Grid3<f64> = Grid3::new(global_n.0, global_n.1, global_n.2, 0);
        let mut msgs = Vec::new();
        for r in 0..self.grid_n {
            let block = self.pg.block(r);
            let data = (spec.field)(&mut self.locals[r]).interior_to_vec();
            let (got, holds) = (data.len(), block.len());
            if got != holds {
                let detail = format!(
                    "gather block from rank {r} carries {got} values, its block holds {holds}"
                );
                return Err(protocol(host, detail));
            }
            if r != host {
                msgs.push(MsgRecord { src: r, dst: host, bytes: 8 * data.len() as u64 });
            }
            let mut it = data.into_iter();
            for li in 0..block.extent().0 {
                for lj in 0..block.extent().1 {
                    for lk in 0..block.extent().2 {
                        let (gi, gj, gk) = block.to_global(li, lj, lk);
                        let v = it.next().expect("length checked against block above");
                        global.set(gi as isize, gj as isize, gk as isize, v);
                    }
                }
            }
        }
        (spec.sink)(&mut self.locals[host], &global);
        self.record(&spec.name, msgs);
        Ok(())
    }

    fn scatter(&mut self, spec: &ScatterSpec<L>) -> Result<(), RunError> {
        let name = &spec.name;
        let host = self.host_rank();
        let global = (spec.source)(&self.locals[host]);
        let (got, n) = (global.extent(), self.pg.n);
        if got != n {
            let detail = format!("scatter {name}: source grid extent {got:?}, expected {n:?}");
            return Err(protocol(host, detail));
        }
        let mut msgs = Vec::new();
        let mut data = Vec::new();
        for r in 0..self.grid_n {
            let block = self.pg.block(r);
            if r != host {
                msgs.push(MsgRecord { src: host, dst: r, bytes: 8 * block.len() as u64 });
            }
            data.clear();
            for li in 0..block.extent().0 {
                for lj in 0..block.extent().1 {
                    for lk in 0..block.extent().2 {
                        let (gi, gj, gk) = block.to_global(li, lj, lk);
                        data.push(global.get(gi as isize, gj as isize, gk as isize));
                    }
                }
            }
            let field = (spec.field)(&mut self.locals[r]);
            let holds = field.interior_len();
            if data.len() != holds {
                let detail = format!(
                    "scatter {name}: block carries {} values, the field interior holds {holds}",
                    data.len()
                );
                return Err(protocol(r, detail));
            }
            field.interior_from_slice(&data);
        }
        self.record(&spec.name, msgs);
        Ok(())
    }
}
