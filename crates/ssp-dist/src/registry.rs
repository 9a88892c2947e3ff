//! The workload registry: named program families both sides can rebuild.
//!
//! The supervisor never ships code — an ASSIGN carries only a typed
//! [`WorkloadSpec`] (a registry name and its parameters), and both processes
//! construct the identical program from it ([`WorkloadSpec::build`]). The
//! spec is read once from the caller's args ([`build_workload`]) and crosses
//! a socket in binary ([`WorkloadSpec::push`]). This works because processes are
//! deterministic functions of their initial state (the paper's model):
//! rebuilding rank `r` fresh in another process and replaying its inbound
//! channel logs reproduces exactly the state the dead copy would have
//! reached (Theorem 1), which is what makes migration semantics-preserving.
//!
//! A [`Workload`] also type-erases the message codec: the distributed
//! layer below routes opaque `Vec<u8>` payloads, while each workload pins
//! a concrete [`Process`] type and a bitwise-faithful encode/decode pair.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use fdtd::par::{init_a, plan_a, plan_a_overlap, LocalA};
use fdtd::Params;
use mesh_archetype::driver::{
    compile, decode_mesh_msg, encode_mesh_msg, HostMode, MsgProcess, Placement,
};
use meshgrid::ProcGrid3;
use ssp_runtime::json::JsonValue;
use ssp_runtime::proc::{push_u32, push_u64, Reader};
use ssp_runtime::{
    launch_partial, ChannelId, EgressSink, Effect, FaultPlan, FlightKind, FlightLog,
    FlightRecorder, FlightSink, Gateway, GroupManifest, LiveTelemetry, ManifestRank, NoFlight,
    PartialRun, PartialSeed, ProcState, Process, RoundRobin, RunError, RunMetrics, Simulator,
    Topology,
};

fn bad_args(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

/// Sink for outbound DATA payloads: `(channel id, encoded message)` in,
/// the route that carried it ([`FlightKind::DataStar`], `DataDirect` or
/// `DataShm`) out. Called by the sending rank's scheduler worker.
pub type DataSink = Box<dyn FnMut(usize, Vec<u8>) -> Result<FlightKind, RunError> + Send>;

/// Ingress half of a running group: feeds decoded remote messages in.
/// Shared with the worker's socket-read loop.
pub trait GroupIngress: Send + Sync {
    /// Deliver one DATA payload for `chan` into the group, marked in its
    /// flight log as carried by `route`. Call under the worker's router
    /// lock (the gateway lane takes one writer at a time).
    fn push_inbound(&self, chan: usize, bytes: &[u8], route: FlightKind) -> Result<(), RunError>;
    /// Cheap live counters for heartbeat telemetry (atomic loads only;
    /// safe to call from the worker's socket loop while the group runs).
    fn telemetry(&self) -> LiveTelemetry;
}

/// What a finished group reports: `(rank, snapshot)` pairs for every
/// hosted rank, the group's metrics, and — when the flight recorder was
/// enabled for the run — the group's drained [`FlightLog`].
pub type GroupOutcome = (Vec<(usize, Vec<u8>)>, RunMetrics, Option<FlightLog>);

/// What launching a group yields: its inbound ingress plus a join that
/// blocks until the group is done. Every outbound DATA has been handed to
/// the sink before the join returns: each send is its rank's own sink call.
pub type LaunchedGroup = (
    Arc<dyn GroupIngress>,
    Box<dyn FnOnce() -> Result<GroupOutcome, RunError> + Send>,
);

/// A named program family the registry can instantiate.
pub trait Workload: Send + Sync {
    /// The full channel topology (global ids — identical on every host).
    fn topology(&self) -> Topology;
    /// Launch a group hosting `ranks` on a local scheduler instance, from
    /// their initial states or, with `resume`, from a checkpoint manifest.
    /// Outbound cross-group messages go to `sink`; inbound ones arrive
    /// through the returned [`GroupIngress`]. A manifest is validated in
    /// full (it arrives over a socket): a rank set other than `ranks`,
    /// channel vectors not shaped for the topology, channel ids out of
    /// range, queues on non-internal channels and undecodable states or
    /// messages all fail typed.
    fn launch_group(
        &self,
        ranks: &[usize],
        resume: Option<&GroupManifest>,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> Result<LaunchedGroup, RunError>;
    /// The single-process reference run: final snapshots under the
    /// deterministic simulator. The distributed result must match this
    /// bitwise (Theorem 1's standard).
    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError>;
    /// Build the supervisor's whole-program shadow executor with a cut
    /// every `every` shadow steps (see [`ProgramShadow`]).
    fn shadow(&self, every: u64) -> Box<dyn ProgramShadow>;
}

// ---------------------------------------------------------------------------
// The supervisor's whole-program shadow.
// ---------------------------------------------------------------------------

/// The supervisor's untyped handle on a `ShadowExec`.
///
/// In checkpointed transport modes the supervisor re-executes the *entire*
/// program from the registry, one deterministic step at a time, gated by
/// the DATA mirrors workers send it. Theorem 1 is what makes this a shadow
/// rather than a guess: deterministic processes on SRSW channels produce
/// the same per-channel message *sequences* under every maximal
/// interleaving, so the shadow's trajectory is the real system's
/// trajectory — and any periodic cut of the shadow is a consistent global
/// state the supervisor can hand to a merged group as a resume manifest.
/// Mismatched mirror bytes therefore prove a determinism violation, which
/// surfaces as a typed error instead of a silently-wrong resume.
pub trait ProgramShadow: Send {
    /// Mark `chan` as gated (cross-group: shadow sends must wait for and
    /// byte-match a mirror) or free-running (group-internal). Un-gating
    /// drops any queued credits.
    fn set_gated(&mut self, chan: usize, gated: bool);
    /// Feed one logged DATA mirror (in per-channel seq order).
    fn on_mirror(&mut self, chan: usize, bytes: &[u8]);
    /// Run every rank until the next gated send without a credit (or
    /// completion), taking a cut each `every` steps. Errors are
    /// determinism violations or process faults.
    fn advance(&mut self) -> Result<(), RunError>;
    /// Shadow steps executed so far.
    fn steps(&self) -> u64;
    /// Step ordinal of the latest cut.
    fn cut_steps(&self) -> u64;
    /// Cuts taken so far (≥ 1: the initial state counts).
    fn cuts_taken(&self) -> u64;
    /// Deliveries consumed on `chan` at the latest cut — the supervisor's
    /// channel-log truncation frontier.
    fn cut_consumed(&self, chan: usize) -> u64;
    /// The latest cut's state for `ranks`, as the [`GroupManifest`] a
    /// migration ASSIGN carries.
    fn manifest(&self, ranks: &[usize]) -> GroupManifest;
}

/// The typed whole-program shadow executor behind [`ProgramShadow`].
///
/// The shadow *is* the [`Simulator`] — the deterministic ancestor the
/// distributed run is compared against, stepped through the same
/// `step_process_with` every other backend replays — plus the one thing
/// that is the supervisor's own: gated channels are simulator *ports*,
/// open while a mirror credit is queued, and the message a gated send
/// queues must byte-match that credit. Gating keeps the shadow
/// at-or-behind the real execution on every cross-group channel, which is
/// what makes the cut's in-flight window `[consumed, sent)` provably
/// present in the supervisor's channel logs (every gated send the shadow
/// completed was first logged as a mirror).
struct ShadowExec<P: Process + Clone>
where
    P::Msg: Clone,
{
    sim: Simulator<P>,
    gated: Vec<bool>,
    /// Mirror credits per gated channel: the logged wire bytes, in seq
    /// order, not yet consumed by a shadow send.
    credits: Vec<VecDeque<Vec<u8>>>,
    steps: u64,
    cuts: u64,
    every: u64,
    /// The latest consistent cut (a clone of the simulator, exported) and
    /// the shadow step it was taken at.
    cut: PartialSeed<P>,
    cut_steps: u64,
    encode: fn(&P::Msg) -> Vec<u8>,
    state: fn(&P) -> Vec<u8>,
}

impl<P: Process + Clone> ShadowExec<P>
where
    P::Msg: Clone,
{
    fn new(
        topo: Topology,
        procs: Vec<P>,
        encode: fn(&P::Msg) -> Vec<u8>,
        state: fn(&P) -> Vec<u8>,
        every: u64,
    ) -> ShadowExec<P> {
        let n = topo.n_channels();
        let sim = Simulator::new(topo, procs);
        ShadowExec {
            cut: sim.clone().into_seed(),
            sim,
            gated: vec![false; n],
            credits: vec![VecDeque::new(); n],
            steps: 0,
            cuts: 1,
            every: every.max(1),
            cut_steps: 0,
            encode,
            state,
        }
    }

    /// One simulator step of rank `p`; a send it completes on a gated
    /// channel consumes and byte-verifies the head credit.
    fn step(&mut self, p: usize) -> Result<(), RunError> {
        // A step completes at most one send.
        let mut sent_on = None;
        self.sim.step_process_with(p, &mut |ev| {
            if ev.kind == FlightKind::Send {
                sent_on = Some(ev.chan as usize);
            }
        })?;
        self.steps += 1;
        if let Some(c) = sent_on.filter(|&c| self.gated[c]) {
            let chan = ChannelId(c);
            let credit = self.credits[c].pop_front().expect("send gated without credit");
            let msg = self.sim.queue(chan).back().expect("a completed send is queued");
            let enc = (self.encode)(msg);
            if enc != credit {
                return Err(RunError::Protocol {
                    proc: p,
                    detail: format!(
                        "determinism violation on ch{c}: shadow send #{} encodes to {} bytes \
                         that differ from the mirrored frame ({} bytes)",
                        self.sim.metrics().channels[c].messages - 1,
                        enc.len(),
                        credit.len()
                    ),
                });
            }
            self.sim.set_port(chan, Some(!self.credits[c].is_empty()));
        }
        if self.steps - self.cut_steps >= self.every {
            self.cut = self.sim.clone().into_seed();
            self.cut_steps = self.steps;
            self.cuts += 1;
        }
        Ok(())
    }
}

impl<P: Process + Clone + 'static> ProgramShadow for ShadowExec<P>
where
    P::Msg: Clone,
{
    fn set_gated(&mut self, chan: usize, gated: bool) {
        self.gated[chan] = gated;
        if !gated {
            self.credits[chan].clear();
        }
        let port = gated.then(|| !self.credits[chan].is_empty());
        self.sim.set_port(ChannelId(chan), port);
    }

    fn on_mirror(&mut self, chan: usize, bytes: &[u8]) {
        if self.gated[chan] {
            self.credits[chan].push_back(bytes.to_vec());
            self.sim.set_port(ChannelId(chan), Some(true));
        }
    }

    fn advance(&mut self) -> Result<(), RunError> {
        let n_ranks = self.cut.procs.len();
        loop {
            let mut progressed = false;
            for p in 0..n_ranks {
                while self.sim.is_runnable(p) {
                    self.step(p)?;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn cut_steps(&self) -> u64 {
        self.cut_steps
    }

    fn cuts_taken(&self) -> u64 {
        self.cuts
    }

    fn cut_consumed(&self, chan: usize) -> u64 {
        self.cut.consumed[chan]
    }

    fn manifest(&self, ranks: &[usize]) -> GroupManifest {
        let rset: BTreeSet<usize> = ranks.iter().copied().collect();
        let cut = &self.cut;
        // A whole-program cut lists every rank and every channel in id order.
        let mranks = ranks
            .iter()
            .map(|&r| {
                let (_, proc, status, metrics) = &cut.procs[r];
                let status = match status {
                    ProcState::Ready => ProcState::Ready,
                    ProcState::BlockedRecv(c) => ProcState::BlockedRecv(*c),
                    ProcState::BlockedSend(c, m) => ProcState::BlockedSend(*c, (self.encode)(m)),
                    ProcState::Halted => ProcState::Halted,
                };
                let state = (self.state)(proc);
                ManifestRank { rank: r as u32, status, state, metrics: *metrics }
            })
            .collect();
        // Only channels *internal* to the resumed set travel as seeded
        // queues; in-flight messages on inbound channels are replayed
        // from the supervisor's logs (gating guarantees they are there).
        let chans = &self.sim.metrics().channels;
        let queues = cut
            .queues
            .iter()
            .filter(|(i, q)| {
                let c = &chans[*i];
                rset.contains(&c.writer) && rset.contains(&c.reader) && !q.is_empty()
            })
            .map(|(i, q)| (*i as u32, q.iter().map(|m| (self.encode)(m)).collect()))
            .collect();
        GroupManifest {
            steps: self.cut_steps,
            ranks: mranks,
            queues,
            consumed: cut.consumed.clone(),
            counters: cut.counters.clone(),
        }
    }
}

/// A workload's typed codecs: its messages both ways, and a rank's evolving
/// state read back against the rank's template.
struct Codecs<P: Process> {
    encode: fn(&P::Msg) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
    decode_state: fn(&P, &[u8]) -> Result<P, RunError>,
}

/// Build a [`PartialSeed`] for `templates`' ranks from a decoded manifest.
/// Validation is exhaustive (network-facing): rank set mismatches, channel
/// vectors not shaped for `topo`, channel ids out of range, seeded queues
/// on non-internal channels and undecodable payloads are typed errors,
/// never panics.
fn seed_from_manifest<P: Process>(
    topo: &Topology,
    templates: Vec<(usize, P)>,
    manifest: &GroupManifest,
    codecs: &Codecs<P>,
) -> Result<PartialSeed<P>, RunError> {
    let decode = codecs.decode;
    let bad = |detail: String| RunError::Protocol { proc: 0, detail };
    let n_chans = topo.n_channels();
    if manifest.consumed.len() != n_chans || manifest.counters.len() != n_chans {
        return Err(bad(format!(
            "manifest channel vectors ({}, {}) do not match topology ({n_chans})",
            manifest.consumed.len(),
            manifest.counters.len()
        )));
    }
    let by_rank: BTreeMap<usize, &ManifestRank> =
        manifest.ranks.iter().map(|r| (r.rank as usize, r)).collect();
    let rset: BTreeSet<usize> = templates.iter().map(|&(r, _)| r).collect();
    if by_rank.len() != templates.len() || !rset.iter().all(|r| by_rank.contains_key(r)) {
        return Err(bad(format!(
            "manifest rank set {:?} does not match assigned ranks {:?}",
            by_rank.keys().collect::<Vec<_>>(),
            rset
        )));
    }
    let chan_of = |c: usize, what: &str| -> Result<usize, RunError> {
        if c >= n_chans {
            return Err(bad(format!("manifest {what} channel {c} out of range 0..{n_chans}")));
        }
        Ok(c)
    };
    let mut procs = Vec::with_capacity(templates.len());
    for (rank, template) in templates {
        let mr = by_rank[&rank];
        let proc = (codecs.decode_state)(&template, &mr.state)?;
        let status = match &mr.status {
            ProcState::Ready => ProcState::Ready,
            ProcState::BlockedRecv(c) => {
                ProcState::BlockedRecv(ChannelId(chan_of(c.0, "blocked-recv")?))
            }
            ProcState::BlockedSend(c, bytes) => {
                ProcState::BlockedSend(ChannelId(chan_of(c.0, "blocked-send")?), decode(bytes)?)
            }
            ProcState::Halted => ProcState::Halted,
        };
        procs.push((rank, proc, status, mr.metrics));
    }
    let mut queues = Vec::with_capacity(manifest.queues.len());
    for (chan, msgs) in &manifest.queues {
        let c = chan_of(*chan as usize, "queue")?;
        let spec = topo.spec(ChannelId(c));
        if !(rset.contains(&spec.writer) && rset.contains(&spec.reader)) {
            return Err(bad(format!(
                "manifest seeds queue on ch{c}, which is not internal to the resumed ranks"
            )));
        }
        let decoded = msgs.iter().map(|m| decode(m)).collect::<Result<Vec<_>, _>>()?;
        queues.push((c, decoded));
    }
    Ok(PartialSeed {
        procs,
        queues,
        consumed: manifest.consumed.clone(),
        counters: manifest.counters.clone(),
    })
}

/// Typed ingress: decodes bytes and hands them to the scheduler gateway.
struct TypedIngress<P: Process, F: FlightSink> {
    gateway: Gateway<P, F>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
}

impl<P: Process, F: FlightSink> GroupIngress for TypedIngress<P, F> {
    fn push_inbound(&self, chan: usize, bytes: &[u8], route: FlightKind) -> Result<(), RunError> {
        let msg = (self.decode)(bytes)?;
        self.gateway.push_inbound(ChannelId(chan), msg, route)
    }

    fn telemetry(&self) -> LiveTelemetry {
        self.gateway.telemetry()
    }

}

/// Erase a launched run behind the group ingress and a boxed join.
fn erase_run<P, F>(
    run: PartialRun<P, F>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
) -> LaunchedGroup
where
    P: Process + 'static,
    F: FlightSink,
{
    let ingress = Arc::new(TypedIngress { gateway: run.gateway(), decode });
    (ingress, Box::new(move || run.join().map(|o| (o.snapshots, o.metrics, o.flight))))
}

/// The one launch behind [`Workload::launch_group`]: seed `templates`
/// fresh, or from `resume` ([`seed_from_manifest`]), start a typed group
/// whose cross-group sends call `sink` with the codec's encoding, and
/// erase it ([`erase_run`]). The flight choice picks the
/// scheduler monomorphization: `None` runs the zero-cost [`NoFlight`]
/// build, `Some(cap)` the recording one — type-erased here so the
/// distributed layer stays untyped.
fn launch_typed<P>(
    topo: &Topology,
    templates: Vec<(usize, P)>,
    resume: Option<&GroupManifest>,
    workers: Option<usize>,
    flight: Option<usize>,
    codecs: &Codecs<P>,
    mut sink: DataSink,
) -> Result<LaunchedGroup, RunError>
where
    P: Process + 'static,
{
    let seed = match resume {
        None => PartialSeed::fresh(topo, templates),
        Some(m) => seed_from_manifest(topo, templates, m, codecs)?,
    };
    let (encode, decode) = (codecs.encode, codecs.decode);
    let egress: Option<EgressSink<P::Msg>> =
        Some(Box::new(move |chan, msg| sink(chan.0, encode(&msg))));
    let faults = FaultPlan::none();
    Ok(match flight {
        None => {
            let run = launch_partial(topo, seed, workers, &faults, egress, |_| NoFlight);
            erase_run(run, decode)
        }
        Some(cap) => {
            let run = launch_partial(topo, seed, workers, &faults, egress, |w| {
                FlightRecorder::new(w, cap)
            });
            erase_run(run, decode)
        }
    })
}

// ---------------------------------------------------------------------------
// "ring" — a self-contained token ring, the protocol smoke test.
// ---------------------------------------------------------------------------

/// One rank of the token ring. Rank 0 injects a token per lap and absorbs
/// it after a full circuit; every other rank receives, accumulates, and
/// forwards `token + 1`. Final state: the accumulated sum — a value every
/// rank's history feeds into, so any lost or duplicated message shows.
#[derive(Clone)]
struct RingNode {
    rank: usize,
    n: usize,
    laps: u64,
    lap: u64,
    acc: u64,
    st: RingSt,
}

#[derive(Clone, Copy, PartialEq)]
enum RingSt {
    Start,
    Waiting,
    Forward(u64),
    Done,
}

impl Process for RingNode {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        let inbound = ChannelId((self.rank + self.n - 1) % self.n);
        let outbound = ChannelId(self.rank);
        match self.st {
            RingSt::Start => {
                if self.rank == 0 {
                    if self.lap == self.laps {
                        self.st = RingSt::Done;
                        return Effect::Halt;
                    }
                    self.lap += 1;
                    self.st = RingSt::Waiting;
                    return Effect::Send { chan: outbound, msg: self.lap * 1000 };
                }
                self.st = RingSt::Waiting;
                Effect::Recv { chan: inbound }
            }
            RingSt::Waiting => match delivery {
                Some(tok) => {
                    self.acc = self.acc.wrapping_mul(31).wrapping_add(tok);
                    if self.rank == 0 {
                        // Token completed a circuit; start the next lap.
                        self.st = RingSt::Start;
                        Effect::Compute { units: 1 }
                    } else {
                        self.st = RingSt::Forward(tok + 1);
                        Effect::Compute { units: 1 }
                    }
                }
                None => Effect::Recv { chan: inbound },
            },
            RingSt::Forward(tok) => {
                self.lap += 1;
                self.st = if self.lap == self.laps { RingSt::Done } else { RingSt::Waiting };
                Effect::Send { chan: outbound, msg: tok }
            }
            RingSt::Done => Effect::Halt,
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&(self.rank as u64).to_le_bytes());
        b.extend_from_slice(&self.acc.to_le_bytes());
        b.extend_from_slice(&self.lap.to_le_bytes());
        b
    }

    fn progress(&self) -> u64 {
        self.lap * 8
            + match self.st {
                RingSt::Start => 0,
                RingSt::Waiting => 1,
                RingSt::Forward(_) => 2,
                RingSt::Done => 3,
            }
    }

    fn msg_size_bytes(_: &u64) -> u64 {
        8
    }
}

struct RingWorkload {
    n: usize,
    laps: u64,
}

impl RingWorkload {
    fn procs(&self) -> Vec<RingNode> {
        (0..self.n)
            .map(|rank| RingNode {
                rank,
                n: self.n,
                laps: self.laps,
                lap: 0,
                acc: 0,
                st: RingSt::Start,
            })
            .collect()
    }
}

/// Evolving-state codec for checkpoint manifests: `[lap u64][acc u64]
/// [st tag u8][token u64 if Forward]`. Static fields (rank, n, laps)
/// come from the receiving worker's template.
fn ring_state_encode(p: &RingNode) -> Vec<u8> {
    let mut b = Vec::with_capacity(25);
    push_u64(&mut b, p.lap);
    push_u64(&mut b, p.acc);
    match p.st {
        RingSt::Start => b.push(0),
        RingSt::Waiting => b.push(1),
        RingSt::Forward(tok) => {
            b.push(2);
            push_u64(&mut b, tok);
        }
        RingSt::Done => b.push(3),
    }
    b
}

fn ring_state_decode(template: &RingNode, buf: &[u8]) -> Result<RingNode, RunError> {
    let mut r = Reader::new("ring state", buf).for_proc(template.rank);
    let lap = r.u64("lap")?;
    let acc = r.u64("acc")?;
    let st = match r.u8("tag")? {
        0 => RingSt::Start,
        1 => RingSt::Waiting,
        2 => RingSt::Forward(r.u64("token")?),
        3 => RingSt::Done,
        t => return Err(r.error(format_args!("unknown tag {t}"))),
    };
    r.finish(RingNode { lap, acc, st, ..*template })
}

fn encode_u64(m: &u64) -> Vec<u8> {
    m.to_le_bytes().to_vec()
}

fn decode_u64(b: &[u8]) -> Result<u64, RunError> {
    let mut r = Reader::new("ring token", b);
    let token = r.u64("token")?;
    r.finish(token)
}

const RING_CODECS: Codecs<RingNode> =
    Codecs { encode: encode_u64, decode: decode_u64, decode_state: ring_state_decode };

impl Workload for RingWorkload {
    fn topology(&self) -> Topology {
        Topology::ring(self.n)
    }

    fn launch_group(
        &self,
        ranks: &[usize],
        resume: Option<&GroupManifest>,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> Result<LaunchedGroup, RunError> {
        let all = self.procs();
        let templates = ranks.iter().map(|&r| (r, all[r].clone())).collect();
        launch_typed(&self.topology(), templates, resume, workers, flight, &RING_CODECS, sink)
    }

    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError> {
        let out = Simulator::new(self.topology(), self.procs()).run(&mut RoundRobin::new())?;
        Ok(out.snapshots)
    }

    fn shadow(&self, every: u64) -> Box<dyn ProgramShadow> {
        Box::new(ShadowExec::new(
            self.topology(),
            self.procs(),
            encode_u64,
            ring_state_encode,
            every,
        ))
    }
}

// ---------------------------------------------------------------------------
// "fdtd-a" — the paper's FDTD Version A over the mesh archetype.
// ---------------------------------------------------------------------------

struct FdtdAWorkload {
    params: Arc<Params>,
    pg: ProcGrid3,
    /// Use the boundary-first overlapped plan ([`plan_a_overlap`]) instead
    /// of the unsplit one — bitwise the same results (Theorem 1), halos in
    /// flight during the interior updates.
    overlap: bool,
}

impl FdtdAWorkload {
    /// The whole program's topology and the processes of `ranks` alone —
    /// a worker allocates field and material state only for what it hosts.
    fn build_ranks(&self, ranks: &[usize]) -> (Topology, Vec<(usize, MsgProcess<LocalA>)>) {
        let plan =
            if self.overlap { plan_a_overlap(&self.params) } else { plan_a(&self.params) };
        let init = init_a(self.params.clone());
        let distinct: BTreeSet<usize> = ranks.iter().copied().collect();
        assert_eq!(distinct.len(), ranks.len(), "rank assigned twice in {ranks:?}");
        let placement = Placement::per_rank(&self.pg, HostMode::GridRank0);
        let (topo, procs) = compile(&plan, &*init, &placement, ranks.iter().copied());
        (topo, ranks.iter().copied().zip(procs).collect())
    }

    /// Every rank, for the reference run and the supervisor's shadow.
    fn build(&self) -> (Topology, Vec<MsgProcess<LocalA>>) {
        let all: Vec<usize> = (0..self.pg.nprocs()).collect();
        let (topo, procs) = self.build_ranks(&all);
        (topo, procs.into_iter().map(|(_, p)| p).collect())
    }
}

const FDTD_A_CODECS: Codecs<MsgProcess<LocalA>> = Codecs {
    encode: encode_mesh_msg,
    decode: decode_mesh_msg,
    decode_state: MsgProcess::decode_state,
};

impl Workload for FdtdAWorkload {
    fn topology(&self) -> Topology {
        Placement::per_rank(&self.pg, HostMode::GridRank0).topology()
    }

    fn launch_group(
        &self,
        ranks: &[usize],
        resume: Option<&GroupManifest>,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> Result<LaunchedGroup, RunError> {
        let (topo, templates) = self.build_ranks(ranks);
        launch_typed(&topo, templates, resume, workers, flight, &FDTD_A_CODECS, sink)
    }

    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError> {
        let (topo, procs) = self.build();
        let out = Simulator::new(topo, procs).run(&mut RoundRobin::new())?;
        Ok(out.snapshots)
    }

    fn shadow(&self, every: u64) -> Box<dyn ProgramShadow> {
        let (topo, procs) = self.build();
        Box::new(ShadowExec::new(topo, procs, encode_mesh_msg, MsgProcess::encode_state, every))
    }
}

// ---------------------------------------------------------------------------
// Registry front door.
// ---------------------------------------------------------------------------

/// The `fdtd-a` problem presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdtdPreset {
    /// [`Params::tiny`].
    Tiny,
    /// [`Params::figure2`], the paper's Figure 2 problem.
    Figure2,
}

/// A registry workload with its parameters: what an ASSIGN names instead of
/// shipping code. The same range checks hold whether a spec comes from a
/// caller's args ([`WorkloadSpec::from_args`]) or off a socket
/// ([`WorkloadSpec::read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// `ring {n, laps}`: a token ring.
    Ring {
        /// Ranks, `2..=4096`.
        n: usize,
        /// Circuits the token makes.
        laps: u64,
    },
    /// `fdtd-a {preset, p, overlap}`: the paper's FDTD Version A.
    FdtdA {
        /// The problem.
        preset: FdtdPreset,
        /// Ranks, `1..=512`.
        p: usize,
        /// Run the boundary-first overlapped plan ([`plan_a_overlap`]).
        overlap: bool,
    },
}

impl WorkloadSpec {
    /// Read a spec from a registry name and its args object (see
    /// [`ring_args`], [`fdtd_a_args`]).
    pub fn from_args(name: &str, args: &JsonValue) -> Result<WorkloadSpec, RunError> {
        let missing = |key: &str, what: &str| bad_args(format!("{name} args need {what} '{key}'"));
        let size = |key: &str| {
            args.get(key).and_then(JsonValue::as_usize).ok_or_else(|| missing(key, "integer"))
        };
        let spec = match name {
            "ring" => WorkloadSpec::Ring {
                n: size("n")?,
                laps: args
                    .get("laps")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| missing("laps", "integer"))?,
            },
            "fdtd-a" => WorkloadSpec::FdtdA {
                preset: match args.get("preset") {
                    Some(JsonValue::Str(s)) if s == "tiny" => FdtdPreset::Tiny,
                    Some(JsonValue::Str(s)) if s == "figure2" => FdtdPreset::Figure2,
                    Some(JsonValue::Str(s)) => {
                        return Err(bad_args(format!("unknown fdtd preset '{s}'")))
                    }
                    _ => return Err(missing("preset", "string")),
                },
                p: size("p")?,
                overlap: matches!(args.get("overlap"), Some(JsonValue::Bool(true))),
            },
            other => return Err(bad_args(format!("unknown workload '{other}'"))),
        };
        spec.checked()
    }

    /// The spec, if its parameters are in range.
    fn checked(self) -> Result<WorkloadSpec, RunError> {
        match self {
            WorkloadSpec::Ring { n, .. } if !(2..=4096).contains(&n) => {
                Err(bad_args(format!("ring size {n} outside 2..=4096")))
            }
            WorkloadSpec::FdtdA { p, .. } if !(1..=512).contains(&p) => {
                Err(bad_args(format!("fdtd-a rank count {p} outside 1..=512")))
            }
            spec => Ok(spec),
        }
    }

    /// Append the spec's wire form: `[tag: u8]`, then `ring`'s `[n: u32]
    /// [laps: u64]` (tag 0) or `fdtd-a`'s `[preset: u8][p: u32]
    /// [overlap: u8]` (tag 1). The inverse is [`WorkloadSpec::read`].
    pub fn push(&self, buf: &mut Vec<u8>) {
        match *self {
            WorkloadSpec::Ring { n, laps } => {
                buf.push(0);
                push_u32(buf, n as u32);
                push_u64(buf, laps);
            }
            WorkloadSpec::FdtdA { preset, p, overlap } => {
                buf.push(1);
                buf.push(preset as u8);
                push_u32(buf, p as u32);
                buf.push(u8::from(overlap));
            }
        }
    }

    /// Read a spec written by [`WorkloadSpec::push`], range-checked like
    /// [`WorkloadSpec::from_args`].
    pub fn read(r: &mut Reader) -> Result<WorkloadSpec, RunError> {
        let spec = match r.u8("workload tag")? {
            0 => WorkloadSpec::Ring { n: r.u32("ring size")? as usize, laps: r.u64("ring laps")? },
            1 => WorkloadSpec::FdtdA {
                preset: match r.u8("fdtd preset")? {
                    0 => FdtdPreset::Tiny,
                    1 => FdtdPreset::Figure2,
                    t => return Err(r.error(format_args!("unknown fdtd preset tag {t}"))),
                },
                p: r.u32("fdtd rank count")? as usize,
                overlap: r.flag("fdtd overlap")?,
            },
            t => return Err(r.error(format_args!("unknown workload tag {t}"))),
        };
        spec.checked()
    }

    /// Instantiate the workload. Both the supervisor and every worker build
    /// from the same spec, so all processes agree on the topology and
    /// initial states by construction.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Ring { n, laps } => Box::new(RingWorkload { n, laps }),
            WorkloadSpec::FdtdA { preset, p, overlap } => {
                let params = match preset {
                    FdtdPreset::Tiny => Params::tiny(),
                    FdtdPreset::Figure2 => Params::figure2(),
                };
                let pg = ProcGrid3::choose(params.n, p);
                Box::new(FdtdAWorkload { params: Arc::new(params), pg, overlap })
            }
        }
    }
}

/// Instantiate a workload by registry name and args
/// ([`WorkloadSpec::from_args`], then [`WorkloadSpec::build`]).
pub fn build_workload(name: &str, args: &JsonValue) -> Result<Box<dyn Workload>, RunError> {
    Ok(WorkloadSpec::from_args(name, args)?.build())
}

/// Build the JSON args object for the `ring` workload.
pub fn ring_args(n: usize, laps: u64) -> JsonValue {
    let mut m = BTreeMap::new();
    m.insert("n".to_string(), JsonValue::Num(n as f64));
    m.insert("laps".to_string(), JsonValue::Num(laps as f64));
    JsonValue::Obj(m)
}

/// Build the JSON args object for the `fdtd-a` workload.
pub fn fdtd_a_args(preset: &str, p: usize) -> JsonValue {
    let mut m = BTreeMap::new();
    m.insert("preset".to_string(), JsonValue::Str(preset.to_string()));
    m.insert("p".to_string(), JsonValue::Num(p as f64));
    JsonValue::Obj(m)
}

/// [`fdtd_a_args`] selecting the overlapped plan (boundary-first halves
/// with halos in flight during the interior updates).
pub fn fdtd_a_overlap_args(preset: &str, p: usize) -> JsonValue {
    let mut args = fdtd_a_args(preset, p);
    if let JsonValue::Obj(m) = &mut args {
        m.insert("overlap".to_string(), JsonValue::Bool(true));
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Assign;
    use crate::supervisor::TransportMode;

    #[test]
    fn ring_reference_is_deterministic_and_nontrivial() {
        let w = build_workload("ring", &ring_args(4, 3)).unwrap();
        assert_eq!(w.topology().n_procs(), 4);
        let a = w.run_reference().unwrap();
        let b = w.run_reference().unwrap();
        assert_eq!(a, b);
        // Every rank accumulated something.
        for s in &a {
            let acc = Reader::new("ring snapshot", &s[8..]).u64("acc").unwrap();
            assert_ne!(acc, 0);
        }
    }

    #[test]
    fn fdtd_overlap_reference_matches_the_unsplit_plan_bitwise() {
        let base = build_workload("fdtd-a", &fdtd_a_args("tiny", 4)).unwrap();
        let over = build_workload("fdtd-a", &fdtd_a_overlap_args("tiny", 4)).unwrap();
        assert_eq!(
            base.run_reference().unwrap(),
            over.run_reference().unwrap(),
            "overlap reordering changed a distributed reference bit"
        );
    }

    /// With every channel ungated the shadow is the simulator and nothing
    /// else: same final snapshots, same step count under the same
    /// rank-major order, a cut every `every` steps.
    fn ungated_shadow_is_the_simulator<P>(
        build: impl Fn() -> (Topology, Vec<P>),
        encode: fn(&P::Msg) -> Vec<u8>,
        state: fn(&P) -> Vec<u8>,
        reference: Vec<Vec<u8>>,
    ) where
        P: Process + Clone + 'static,
        P::Msg: Clone,
    {
        let (topo, procs) = build();
        let n = procs.len();
        let mut sim = Simulator::new(topo, procs);
        let mut steps = 0u64;
        while !sim.is_done() {
            for p in 0..n {
                while sim.is_runnable(p) {
                    sim.step_process_with(p, &mut |_| {}).unwrap();
                    steps += 1;
                }
            }
        }
        for every in [1, 7, 64] {
            let (topo, procs) = build();
            let mut sh = ShadowExec::new(topo, procs, encode, state, every);
            sh.advance().unwrap();
            assert!(sh.sim.is_done());
            assert_eq!(sh.sim.snapshots_now(), reference, "every={every}");
            assert_eq!(sh.steps(), steps, "every={every}");
            assert_eq!(sh.cuts_taken(), 1 + steps / every, "every={every}");
            assert_eq!(sh.cut_steps(), steps - steps % every, "every={every}");
        }
    }

    #[test]
    fn ungated_shadows_match_their_references_bitwise() {
        let ring = RingWorkload { n: 5, laps: 6 };
        ungated_shadow_is_the_simulator(
            || (ring.topology(), ring.procs()),
            encode_u64,
            ring_state_encode,
            ring.run_reference().unwrap(),
        );
        let params = Params::tiny();
        let pg = ProcGrid3::choose(params.n, 4);
        let fdtd = FdtdAWorkload { params: Arc::new(params), pg, overlap: false };
        ungated_shadow_is_the_simulator(
            || fdtd.build(),
            encode_mesh_msg,
            MsgProcess::encode_state,
            fdtd.run_reference().unwrap(),
        );
    }

    /// `manifest` as a worker receives it: inside an ASSIGN, through its
    /// encoder and decoder.
    fn resumed_assign(spec: WorkloadSpec, ranks: &[usize], manifest: GroupManifest) -> Assign {
        let assign = Assign {
            group: 1,
            spec,
            ranks: ranks.to_vec(),
            flight: None,
            plane: TransportMode::Star,
            table: None,
            resume: Some(manifest),
        };
        Assign::decode(&assign.encode()).unwrap()
    }

    #[test]
    fn ungated_shadow_cut_resumes_to_the_reference_result() {
        // Run the shadow to a mid-run cut (cut every step so the final
        // advance leaves a fresh one), manifest ALL ranks, seed a single
        // threaded group from it, and demand the reference snapshots.
        let spec = WorkloadSpec::Ring { n: 3, laps: 4 };
        let w = spec.build();
        let mut sh = w.shadow(1);
        sh.advance().unwrap();
        assert!(sh.steps() > 0);
        assert_eq!(sh.cut_steps(), sh.steps());
        assert!(sh.cuts_taken() > 1);
        let a = resumed_assign(spec, &[0, 1, 2], sh.manifest(&[0, 1, 2]));
        // Whole program halted in the shadow; resume should agree.
        let (_, join) = w
            .launch_group(
                &a.ranks,
                a.resume.as_ref(),
                Some(2),
                None,
                Box::new(|c, _| panic!("no cross-group sends expected on ch{c}")),
            )
            .unwrap();
        let (mut snaps, _, _) = join().unwrap();
        snaps.sort_by_key(|&(r, _)| r);
        let reference = w.run_reference().unwrap();
        for (r, bytes) in snaps {
            assert_eq!(bytes, reference[r], "rank {r} diverged after resume");
        }
    }

    #[test]
    fn gated_shadow_waits_for_credits_and_detects_mirror_mismatch() {
        let w = build_workload("ring", &ring_args(2, 2)).unwrap();
        // Gate channel 0 (rank 0 → rank 1): the shadow may not complete
        // a send on it until the matching mirror arrives.
        let mut sh = w.shadow(8);
        sh.set_gated(0, true);
        sh.advance().unwrap();
        let stalled = sh.steps();
        sh.advance().unwrap();
        assert_eq!(sh.steps(), stalled, "shadow advanced past a gated send without credit");
        // Correct mirrors (lap tokens 1000 then 2000) unblock it...
        sh.on_mirror(0, &1000u64.to_le_bytes());
        sh.advance().unwrap();
        assert!(sh.steps() > stalled);
        // ...and a corrupted mirror is a determinism violation, typed.
        sh.on_mirror(0, &9999u64.to_le_bytes());
        let r = sh.advance();
        assert!(
            matches!(r, Err(RunError::Protocol { ref detail, .. }) if detail.contains("determinism")),
            "got {r:?}"
        );
    }

    #[test]
    fn seeded_launch_rejects_malformed_manifests_typed() {
        let spec = WorkloadSpec::Ring { n: 3, laps: 2 };
        let w = spec.build();
        let mut sh = w.shadow(1);
        sh.advance().unwrap();
        let good = sh.manifest(&[0, 1]);
        let rejects = |ranks: &[usize], m: GroupManifest| {
            let a = resumed_assign(spec, ranks, m);
            let sink = Box::new(|_, _| Ok(FlightKind::DataStar)) as DataSink;
            let r = w.launch_group(&a.ranks, a.resume.as_ref(), None, None, sink);
            matches!(r, Err(RunError::Protocol { .. }))
        };
        // Rank set mismatch.
        assert!(rejects(&[0, 2], good.clone()));
        // Channel vectors of the wrong length.
        let mut bad = good.clone();
        bad.consumed.pop();
        assert!(rejects(&[0, 1], bad));
        let mut bad = good.clone();
        bad.counters.push((0, 0, 0));
        assert!(rejects(&[0, 1], bad));
        // A seeded queue on a channel that is not internal to the ranks.
        let mut bad = good.clone();
        bad.queues = vec![(2, vec![7u64.to_le_bytes().to_vec()])];
        assert!(rejects(&[0, 1], bad));
        // An undecodable blocked-send message.
        let mut bad = good.clone();
        bad.ranks[0].status = ProcState::BlockedSend(ChannelId(0), vec![1, 2, 3]);
        assert!(rejects(&[0, 1], bad));
        // A truncated rank state.
        let mut bad = good;
        bad.ranks[1].state.truncate(3);
        assert!(rejects(&[0, 1], bad));
    }

    #[test]
    fn workload_specs_round_trip_and_are_range_checked_on_both_ends() {
        let read = |spec: WorkloadSpec| {
            let mut bytes = Vec::new();
            spec.push(&mut bytes);
            let mut r = Reader::new("spec", &bytes);
            WorkloadSpec::read(&mut r).and_then(|s| r.finish(s))
        };
        let ring = WorkloadSpec::Ring { n: 6, laps: 1 << 40 };
        let fdtd = WorkloadSpec::FdtdA { preset: FdtdPreset::Figure2, p: 512, overlap: true };
        assert_eq!(read(ring).unwrap(), ring);
        assert_eq!(read(fdtd).unwrap(), fdtd);
        let tiny = WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 4, overlap: true };
        assert_eq!(WorkloadSpec::from_args("fdtd-a", &fdtd_a_overlap_args("tiny", 4)).unwrap(), tiny);
        // Out-of-range parameters fail typed off the wire as from args.
        for spec in [
            WorkloadSpec::Ring { n: 1, laps: 1 },
            WorkloadSpec::Ring { n: 4097, laps: 1 },
            WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 0, overlap: false },
            WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 513, overlap: false },
        ] {
            assert!(matches!(read(spec), Err(RunError::Protocol { .. })), "{spec:?}");
        }
        assert!(WorkloadSpec::from_args("ring", &ring_args(1, 3)).is_err());
        assert!(WorkloadSpec::from_args("fdtd-a", &fdtd_a_args("tiny", 0)).is_err());
        // Unknown workload and preset tags, and an overlap flag of 2.
        for bytes in [&[2u8][..], &[1, 2, 4, 0, 0, 0, 0], &[1, 0, 4, 0, 0, 0, 2]] {
            let r = WorkloadSpec::read(&mut Reader::new("spec", bytes));
            assert!(matches!(r, Err(RunError::Protocol { .. })), "{bytes:?}: {r:?}");
        }
    }

    #[test]
    fn unknown_names_and_bad_args_are_typed_errors() {
        assert!(matches!(
            build_workload("nope", &JsonValue::Null),
            Err(RunError::Protocol { .. })
        ));
        assert!(matches!(
            build_workload("ring", &JsonValue::Null),
            Err(RunError::Protocol { .. })
        ));
        assert!(matches!(
            build_workload("fdtd-a", &fdtd_a_args("huge", 2)),
            Err(RunError::Protocol { .. })
        ));
    }
}
