//! The sequential simulated-parallel driver (§2.2).
//!
//! One address space per simulated process (`Vec<L>`); local-computation
//! blocks run for `i = 0..N` in index order; data-exchange operations are
//! performed as assignments between the simulated address spaces — with all
//! "sends" (payload extractions) performed before any "receives" (ghost
//! insertions), the ordering §3.3 prescribes — and validated against the
//! Definition's restrictions. Every message that the corresponding
//! message-passing program would send is recorded in a [`CommTrace`] for
//! the machine model.

use std::collections::VecDeque;

use machine_model::trace::{CommTrace, MsgRecord, PhaseCost};
use meshgrid::halo::{slab_len3, Face3};
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
use crate::validate::{check_exchange, ExchangeAssign, ValidationReport};

/// How thoroughly exchanges are checked against the §2.2 restrictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationLevel {
    /// No restriction checking (fastest; for production-size runs).
    Off,
    /// One abstract object per exchanged face slab (cheap, catches
    /// duplicate-slab writes and starved processes).
    Slab,
    /// One abstract object per ghost cell (exhaustive; for tests).
    Cell,
}

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
#[derive(Debug, Clone, Copy)]
pub struct SimParConfig {
    /// Restriction-checking granularity.
    pub validation: ValidationLevel,
    /// Whether to record the communication/computation trace.
    pub record_trace: bool,
    /// Host placement.
    pub host_mode: HostMode,
}

impl Default for SimParConfig {
    fn default() -> Self {
        SimParConfig {
            validation: ValidationLevel::Slab,
            record_trace: true,
            host_mode: HostMode::GridRank0,
        }
    }
}

/// A gather found a rank's field interior sized differently from the block
/// that rank owns — the assembled global grid would be missing or
/// double-writing cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherShapeError {
    /// The rank whose field was mis-sized.
    pub rank: usize,
    /// Number of values the field interior actually holds.
    pub got: usize,
    /// Number of cells the rank's block owns.
    pub expected: usize,
}

impl std::fmt::Display for GatherShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gather from rank {}: field interior holds {} values, its block holds {}",
            self.rank, self.got, self.expected
        )
    }
}

impl std::error::Error for GatherShapeError {}

/// A simulated-parallel run failed: either the plan itself was malformed
/// (a mis-sized gather or scatter) or a local-computation block reported a
/// typed error (e.g. degenerate boundary geometry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimParError {
    /// A gather found a mis-sized field.
    GatherShape(GatherShapeError),
    /// A scatter's source is not the global grid, or a rank's target field
    /// is not sized to its block.
    ScatterShape {
        /// The scatter phase's name.
        scatter: String,
        /// `None` for the host's source grid, `Some(rank)` for that rank's
        /// target field.
        rank: Option<usize>,
        /// The grid's extent.
        got: (usize, usize, usize),
        /// The extent it must have.
        expected: (usize, usize, usize),
    },
    /// A local step failed; carries the step's own [`RunError`].
    Local(RunError),
}

impl std::fmt::Display for SimParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimParError::GatherShape(e) => e.fmt(f),
            SimParError::ScatterShape { scatter, rank, got, expected } => {
                let grid = rank.map_or("source grid".into(), |r| format!("rank {r}'s field"));
                write!(f, "scatter {scatter}: {grid} extent {got:?}, expected {expected:?}")
            }
            SimParError::Local(e) => write!(f, "local step failed: {e}"),
        }
    }
}

impl std::error::Error for SimParError {}

impl From<GatherShapeError> for SimParError {
    fn from(e: GatherShapeError) -> Self {
        SimParError::GatherShape(e)
    }
}

/// Result of a simulated-parallel run.
pub struct SimParOutcome<L> {
    /// Final local state of every simulated process.
    pub locals: Vec<L>,
    /// Per-process byte snapshots (comparable with message-passing runs).
    pub snapshots: Vec<Vec<u8>>,
    /// Recorded communication/computation costs.
    pub trace: CommTrace,
    /// Restriction-checking results.
    pub report: ValidationReport,
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
    report: ValidationReport,
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
/// Panics if a gather or scatter finds a mis-sized grid (a malformed plan)
/// or a local step fails; use [`try_run_simpar`] for the typed error instead.
pub fn run_simpar<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    cfg: SimParConfig,
    init: impl Fn(&Env) -> L,
) -> SimParOutcome<L> {
    try_run_simpar(plan, pg, cfg, init).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_simpar`], but a malformed plan or failed local step surfaces
/// as a typed [`SimParError`] instead of a panic.
pub fn try_run_simpar<L: MeshLocal>(
    plan: &Plan<L>,
    pg: ProcGrid3,
    cfg: SimParConfig,
    init: impl Fn(&Env) -> L,
) -> Result<SimParOutcome<L>, SimParError> {
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
        report: ValidationReport::default(),
        staged: VecDeque::new(),
        _plan: std::marker::PhantomData,
    };
    driver.run_phases(&plan.phases)?;
    let snapshots = driver.locals.iter().map(|l| l.snapshot_bytes()).collect();
    Ok(SimParOutcome {
        locals: driver.locals,
        snapshots,
        trace: driver.trace,
        report: driver.report,
    })
}

impl<L: MeshLocal> SimPar<'_, L> {
    /// Total simulated processes (grid + optional separate host).
    fn n(&self) -> usize {
        self.locals.len()
    }

    /// The rank playing host.
    fn host_rank(&self) -> usize {
        match self.cfg.host_mode {
            HostMode::GridRank0 => 0,
            HostMode::Separate => self.grid_n,
        }
    }

    fn run_phases(&mut self, phases: &[Phase<L>]) -> Result<(), SimParError> {
        for phase in phases {
            match phase {
                Phase::Local(step) => {
                    let mut flops = vec![0u64; self.n()];
                    for (i, f) in flops.iter_mut().enumerate().take(self.grid_n) {
                        *f = (step.flops)(&self.envs[i], &self.locals[i]);
                        (step.f)(&self.envs[i], &mut self.locals[i])
                            .map_err(SimParError::Local)?;
                    }
                    if self.cfg.record_trace {
                        self.trace.push(PhaseCost::compute(&step.name, flops));
                    }
                }
                Phase::Exchange(spec) => self.exchange(spec),
                Phase::ExchangeSend(spec) => self.exchange_send(spec),
                Phase::ExchangeRecv(spec) => self.exchange_recv(spec),
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
                    if self.cfg.record_trace {
                        self.trace.push(PhaseCost {
                            name: spec.name.clone(),
                            flops: vec![0; self.n()],
                            msgs,
                            rounds: 1,
                        });
                    }
                }
                Phase::GatherGrid(spec) => self.gather(spec)?,
                Phase::ScatterGrid(spec) => self.scatter(spec)?,
                Phase::Loop { count, body } => {
                    for _ in 0..*count {
                        self.run_phases(body)?;
                    }
                }
                Phase::While { name, pred, body, max_iters } => {
                    let mut iters = 0u64;
                    loop {
                        // Replicated predicate: every rank must agree.
                        let votes: Vec<bool> = self.locals.iter().map(|l| pred(l)).collect();
                        self.report.predicates_checked += 1;
                        let head = votes[0];
                        if votes.iter().any(|&v| v != head) {
                            self.report.diverged_predicates.push(name.clone());
                        }
                        if !head {
                            break;
                        }
                        if iters >= *max_iters {
                            self.report.diverged_predicates.push(format!(
                                "{name}: exceeded max_iters {max_iters}"
                            ));
                            break;
                        }
                        iters += 1;
                        self.run_phases(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Boundary exchange as a data-exchange operation: all payload
    /// extractions ("sends"), then all ghost insertions ("receives").
    fn exchange(&mut self, spec: &ExchangeSpec<L>) {
        let payloads = self.extract_payloads(spec);
        self.insert_payloads(spec, payloads);
    }

    /// The send half of a split exchange: extract (and validate) the
    /// payloads from the pre-send state, stage them for the matching
    /// `ExchangeRecv`, and charge the messages to this phase.
    fn exchange_send(&mut self, spec: &ExchangeSpec<L>) {
        let payloads = self.extract_payloads(spec);
        if self.cfg.record_trace {
            let msgs = payloads
                .iter()
                .map(|(src, dst, _, payload)| MsgRecord {
                    src: *src,
                    dst: *dst,
                    bytes: 8 * payload.len() as u64,
                })
                .collect();
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs,
                rounds: 1,
            });
        }
        self.staged.push_back(payloads);
    }

    /// The receive half of a split exchange: install the oldest staged
    /// payload batch into destination ghosts (messages were already charged
    /// to the send phase).
    fn exchange_recv(&mut self, spec: &ExchangeSpec<L>) {
        let payloads = self.staged.pop_front().unwrap_or_default();
        for (src, dst, face, payload) in payloads {
            self.install(spec, src, dst, face, &payload);
        }
        if self.cfg.record_trace {
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs: Vec::new(),
                rounds: 1,
            });
        }
    }

    /// Extract every rank's outgoing messages from the pre-exchange state
    /// and validate them against the §2.2 restrictions.
    fn extract_payloads(&mut self, spec: &ExchangeSpec<L>) -> Payloads {
        let n = self.grid_n;
        if n == 1 {
            // Degenerate: no neighbours, no exchange.
            return Vec::new();
        }
        let mut payloads: Payloads = Vec::new();
        for r in 0..n {
            for link in face_links(&self.pg, r) {
                if spec.sent_through(link.face).next().is_none() {
                    continue;
                }
                let mut payload = Vec::new();
                spec.pack(&mut self.locals[r], link.face, &mut payload);
                payloads.push((r, link.neighbor, link.face, payload));
            }
        }
        if self.cfg.validation != ValidationLevel::Off {
            self.validate(spec, &payloads);
        }
        payloads
    }

    /// Check the assignments `payloads` stand for against the §2.2
    /// restrictions. The abstract objects are (part, face) slabs or their
    /// cells; ghost objects live in the high-bit space so they can never
    /// alias interior sources.
    fn validate(&mut self, spec: &ExchangeSpec<L>, payloads: &Payloads) {
        const GHOST: u64 = 1 << 63;
        let mut assigns = Vec::new();
        for (src, dst, face, _) in payloads {
            for (i, part) in spec.sent_through(*face) {
                let slab = ((i as u64) << 3) | *face as u64;
                let slots = match self.cfg.validation {
                    ValidationLevel::Slab => slab..slab + 1,
                    _ => {
                        let field = (part.field)(&mut self.locals[*src]);
                        let cells = slab_len3(field.extent(), field.ghost(), *face) as u64;
                        (slab << 40)..(slab << 40) + cells
                    }
                };
                assigns.extend(slots.map(|slot| ExchangeAssign {
                    dst_rank: *dst,
                    dst_slot: GHOST | slot,
                    src_rank: *src,
                    src_slots: vec![slot],
                }));
            }
        }
        // Receiver-side view of the same geometry: a rank must be assigned
        // something iff some part reaches it through one of its links.
        let must_receive: Vec<bool> = (0..self.grid_n)
            .map(|r| {
                face_links(&self.pg, r)
                    .iter()
                    .any(|link| spec.received_through(link.face).next().is_some())
            })
            .collect();
        self.report.exchanges_checked += 1;
        if let Err(violations) = check_exchange(&must_receive, &assigns) {
            for v in violations {
                self.report.violations.push((spec.name.clone(), v));
            }
        }
    }

    /// Install one message into the destination's ghosts. The destination's
    /// name for the shared face is the opposite of the sender's.
    fn install(&mut self, spec: &ExchangeSpec<L>, src: usize, dst: usize, face: Face3, payload: &[f64]) {
        spec.unpack(&mut self.locals[dst], face.opposite(), payload)
            .unwrap_or_else(|e| panic!("halo from rank {src} to rank {dst}: {e}"));
    }

    /// Install extracted messages into destination ghosts and record them.
    fn insert_payloads(&mut self, spec: &ExchangeSpec<L>, payloads: Payloads) {
        if payloads.is_empty() {
            return;
        }
        let mut msgs = Vec::with_capacity(payloads.len());
        for (src, dst, face, payload) in payloads {
            let bytes = 8 * payload.len() as u64;
            self.install(spec, src, dst, face, &payload);
            msgs.push(MsgRecord { src, dst, bytes });
        }
        if self.cfg.record_trace {
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs,
                rounds: 1,
            });
        }
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
        let mut msgs = Vec::new();
        if self.cfg.record_trace {
            for stage in &rplan.stages {
                for step in stage {
                    msgs.push(MsgRecord {
                        src: step.src(),
                        dst: step.dst(),
                        bytes: 8 * len as u64,
                    });
                }
            }
        }
        for (r, partial) in partials.iter().enumerate().take(n) {
            (spec.inject)(&self.envs[r], &mut self.locals[r], partial);
        }
        // A separate host receives the result from grid rank 0 so its copy
        // of the replicated global stays consistent.
        if self.cfg.host_mode == HostMode::Separate {
            let h = self.host_rank();
            let result = partials[0].clone();
            (spec.inject)(&self.envs[h], &mut self.locals[h], &result);
            if self.cfg.record_trace {
                msgs.push(MsgRecord { src: 0, dst: h, bytes: 8 * len as u64 });
            }
        }
        if self.cfg.record_trace {
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs,
                rounds: rplan.depth() as u32,
            });
        }
    }

    fn ordered_reduce(&mut self, spec: &OrderedReduceSpec<L>) {
        let host = self.host_rank();
        // Gather contributions to the host in grid-rank order.
        let mut all: Vec<Contribution> = Vec::new();
        let mut msgs = Vec::new();
        for r in 0..self.grid_n {
            let contribs = (spec.extract)(&self.envs[r], &self.locals[r]);
            if r != host && self.cfg.record_trace {
                // A contribution wires (bin: u32, order: u64, value: f64).
                msgs.push(MsgRecord { src: r, dst: host, bytes: 20 * contribs.len() as u64 });
            }
            all.extend(contribs);
        }
        let result = ordered_sum(all, spec.n_bins, spec.method);
        for r in 0..self.n() {
            (spec.inject)(&self.envs[r], &mut self.locals[r], &result);
            if r != host && self.cfg.record_trace {
                msgs.push(MsgRecord { src: host, dst: r, bytes: 8 * result.len() as u64 });
            }
        }
        if self.cfg.record_trace {
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs,
                rounds: 2,
            });
        }
    }

    fn gather(&mut self, spec: &GatherSpec<L>) -> Result<(), GatherShapeError> {
        let host = self.host_rank();
        let global_n = self.pg.n;
        let mut global: Grid3<f64> = Grid3::new(global_n.0, global_n.1, global_n.2, 0);
        let mut msgs = Vec::new();
        for r in 0..self.grid_n {
            let block = self.pg.block(r);
            let data = (spec.field)(&mut self.locals[r]).interior_to_vec();
            if data.len() != block.len() {
                return Err(GatherShapeError { rank: r, got: data.len(), expected: block.len() });
            }
            if r != host && self.cfg.record_trace {
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
        let host = self.host_rank();
        (spec.sink)(&mut self.locals[host], &global);
        if self.cfg.record_trace {
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs,
                rounds: 1,
            });
        }
        Ok(())
    }

    fn scatter(&mut self, spec: &ScatterSpec<L>) -> Result<(), SimParError> {
        let shape_error = |rank, got, expected| SimParError::ScatterShape {
            scatter: spec.name.clone(),
            rank,
            got,
            expected,
        };
        let host = self.host_rank();
        let global = (spec.source)(&self.locals[host]);
        if global.extent() != self.pg.n {
            return Err(shape_error(None, global.extent(), self.pg.n));
        }
        let mut msgs = Vec::new();
        for r in 0..self.grid_n {
            let block = self.pg.block(r);
            if r != host && self.cfg.record_trace {
                msgs.push(MsgRecord { src: host, dst: r, bytes: 8 * block.len() as u64 });
            }
            let field = (spec.field)(&mut self.locals[r]);
            if field.extent() != block.extent() {
                return Err(shape_error(Some(r), field.extent(), block.extent()));
            }
            for li in 0..block.extent().0 {
                for lj in 0..block.extent().1 {
                    for lk in 0..block.extent().2 {
                        let (gi, gj, gk) = block.to_global(li, lj, lk);
                        field.set(
                            li as isize,
                            lj as isize,
                            lk as isize,
                            global.get(gi as isize, gj as isize, gk as isize),
                        );
                    }
                }
            }
        }
        if self.cfg.record_trace {
            self.trace.push(PhaseCost {
                name: spec.name.clone(),
                flops: vec![0; self.n()],
                msgs,
                rounds: 1,
            });
        }
        Ok(())
    }
}
