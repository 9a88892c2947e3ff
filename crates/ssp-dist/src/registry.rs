//! The workload registry: named program families both sides can rebuild.
//!
//! The supervisor never ships code — an ASSIGN carries only a *name* plus
//! JSON args, and both processes construct the identical program from the
//! registry ([`build_workload`]). This works because processes are
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
use std::thread::{self, JoinHandle};

use fdtd::par::{init_a, plan_a, plan_a_overlap, LocalA};
use fdtd::Params;
use mesh_archetype::driver::{
    build_msg_processes_for, decode_mesh_msg, encode_mesh_msg, msg_topology, HostMode, MeshMsg,
    MsgProcess,
};
use meshgrid::ProcGrid3;
use ssp_runtime::json::JsonValue;
use ssp_runtime::{
    launch_partial, ChannelId, Effect, FaultPlan, FlightKind, FlightLog, FlightRecorder,
    FlightSink, Gateway, GroupManifest, LiveTelemetry, ManifestRank, ManifestStatus, NoFlight,
    PartialRun, PartialSeed, ProcState, Process, RoundRobin, RunError, RunMetrics, SimState,
    Simulator, StepEvent, StepObserver, Topology,
};

fn bad_args(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

/// Sink for outbound DATA payloads: `(channel id, encoded message)`.
pub type DataSink = Box<dyn FnMut(usize, Vec<u8>) -> Result<(), RunError> + Send>;

/// Ingress half of a running group: feeds decoded remote messages in.
/// Shared with the worker's socket-read loop.
pub trait GroupIngress: Send + Sync {
    /// Deliver one DATA payload for `chan` into the group.
    fn push_inbound(&self, chan: usize, bytes: &[u8]) -> Result<(), RunError>;
    /// Abort the group with `err`.
    fn poison(&self, err: RunError);
    /// Cheap live counters for heartbeat telemetry (atomic loads only;
    /// safe to call from the worker's socket loop while the group runs).
    fn telemetry(&self) -> LiveTelemetry;
    /// Record an *inbound* route-provenance mark (`FlightKind::DataStar` /
    /// `DataDirect` / `DataShm`) in the group's flight log. Gateway-lane
    /// single-writer contract: call only from the worker's (mutually
    /// excluded) inbound router path. No-op when recording is disabled.
    fn record_route_in(&self, _kind: FlightKind, _chan: usize, _bytes: u64) {}
    /// Record an *outbound* route-provenance mark in the control lane.
    /// Call only from the group's (single) outbound pump thread.
    fn record_route_out(&self, _kind: FlightKind, _chan: usize, _bytes: u64) {}
}

/// What a finished group reports: `(rank, snapshot)` pairs for every
/// hosted rank, the group's metrics, and — when the flight recorder was
/// enabled for the run — the group's drained [`FlightLog`].
pub type GroupOutcome = (Vec<(usize, Vec<u8>)>, RunMetrics, Option<FlightLog>);

/// Completion half of a running group: blocks until done.
pub trait GroupJoin: Send {
    /// Wait for the group to finish. All outbound DATA has been handed
    /// to the sink before this returns.
    fn join(self: Box<Self>) -> Result<GroupOutcome, RunError>;
}

/// What launching a group yields: its inbound ingress plus the join
/// handle that waits for completion.
pub type LaunchedGroup = (Arc<dyn GroupIngress>, Box<dyn GroupJoin>);

/// A named program family the registry can instantiate.
pub trait Workload: Send + Sync {
    /// Total number of ranks in the program.
    fn n_ranks(&self) -> usize;
    /// The full channel topology (global ids — identical on every host).
    fn topology(&self) -> Topology;
    /// Launch a group hosting `ranks` on a local scheduler instance.
    /// Outbound cross-group messages go to `sink`; inbound ones arrive
    /// through the returned [`GroupIngress`].
    fn launch_group(
        &self,
        ranks: &[usize],
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> (Arc<dyn GroupIngress>, Box<dyn GroupJoin>);
    /// The single-process reference run: final snapshots under the
    /// deterministic simulator. The distributed result must match this
    /// bitwise (Theorem 1's standard).
    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError>;
    /// Build the supervisor's whole-program shadow executor with a cut
    /// every `every` shadow steps (see [`ProgramShadow`]).
    fn shadow(&self, every: u64) -> Box<dyn ProgramShadow>;
    /// [`Workload::launch_group`], but resuming `ranks` from a checkpoint
    /// manifest instead of their initial states. Every manifest field is
    /// validated (this path reads network bytes): unknown ranks, channel
    /// ids out of range, queues on non-internal channels and undecodable
    /// states or messages all fail typed.
    fn launch_group_seeded(
        &self,
        ranks: &[usize],
        manifest: &GroupManifest,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> Result<LaunchedGroup, RunError>;
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
    /// Encode the latest cut's state for `ranks` as a sealed
    /// [`GroupManifest`].
    fn manifest(&self, ranks: &[usize]) -> Vec<u8>;
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
    cut: SimState<P>,
    cut_steps: u64,
    encode: fn(&P::Msg) -> Vec<u8>,
    state: fn(&P) -> Vec<u8>,
}

/// Observer that keeps the channel of the step's completed send, if any (a
/// step completes at most one).
struct SentOn(Option<ChannelId>);

impl StepObserver for SentOn {
    fn on_event(&mut self, ev: StepEvent) {
        if let StepEvent::Sent { chan, .. } = ev {
            self.0 = Some(chan);
        }
    }
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
            cut: sim.clone().into_state(),
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
        let mut sent = SentOn(None);
        self.sim.step_process_with(p, &mut sent)?;
        self.steps += 1;
        if let Some(chan) = sent.0.filter(|c| self.gated[c.0]) {
            let c = chan.0;
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
            self.cut = self.sim.clone().into_state();
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
        self.cut.consumed(chan)
    }

    fn manifest(&self, ranks: &[usize]) -> Vec<u8> {
        let rset: BTreeSet<usize> = ranks.iter().copied().collect();
        let cut = &self.cut;
        let mranks = ranks
            .iter()
            .map(|&r| {
                let status = match &cut.status[r] {
                    ProcState::Ready => ManifestStatus::Ready,
                    ProcState::BlockedRecv(c) => ManifestStatus::BlockedRecv(c.0 as u32),
                    ProcState::BlockedSend(c, m) => {
                        ManifestStatus::BlockedSend(c.0 as u32, (self.encode)(m))
                    }
                    ProcState::Halted => ManifestStatus::Halted,
                };
                ManifestRank {
                    rank: r as u32,
                    status,
                    state: (self.state)(&cut.procs[r]),
                    metrics: cut.metrics.procs[r],
                }
            })
            .collect();
        // Only channels *internal* to the resumed set travel as seeded
        // queues; in-flight messages on inbound channels are replayed
        // from the supervisor's logs (gating guarantees they are there).
        let chans = &cut.metrics.channels;
        let queues = chans
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                rset.contains(&c.writer) && rset.contains(&c.reader) && !cut.queues[*i].is_empty()
            })
            .map(|(i, _)| (i as u32, cut.queues[i].iter().map(|m| (self.encode)(m)).collect()))
            .collect();
        GroupManifest {
            steps: self.cut_steps,
            ranks: mranks,
            queues,
            consumed: (0..chans.len()).map(|c| cut.consumed(c)).collect(),
            counters: chans
                .iter()
                .map(|c| (c.messages, c.bytes, c.max_queue_depth as u64))
                .collect(),
        }
        .encode()
    }
}

/// Build a [`PartialSeed`] for `ranks` from a decoded manifest and launch
/// it. Validation is exhaustive (network-facing): rank set mismatches,
/// channel ids out of range, seeded queues on non-internal channels and
/// undecodable payloads are typed errors, never panics.
#[allow(clippy::too_many_arguments)] // one codec hook per manifest field
fn launch_typed_seeded<P>(
    topo: &Topology,
    templates: Vec<(usize, P)>,
    manifest: &GroupManifest,
    workers: Option<usize>,
    flight: Option<usize>,
    encode: fn(&P::Msg) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
    decode_state: impl Fn(&P, &[u8]) -> Result<P, RunError>,
    sink: DataSink,
) -> Result<LaunchedGroup, RunError>
where
    P: Process + 'static,
{
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
    let chan_of = |c: u32, what: &str| -> Result<usize, RunError> {
        let c = c as usize;
        if c >= n_chans {
            return Err(bad(format!("manifest {what} channel {c} out of range 0..{n_chans}")));
        }
        Ok(c)
    };
    let mut procs = Vec::with_capacity(templates.len());
    for (rank, template) in templates {
        let mr = by_rank[&rank];
        let proc = decode_state(&template, &mr.state)?;
        let status = match &mr.status {
            ManifestStatus::Ready => ProcState::Ready,
            ManifestStatus::BlockedRecv(c) => {
                ProcState::BlockedRecv(ChannelId(chan_of(*c, "blocked-recv")?))
            }
            ManifestStatus::BlockedSend(c, bytes) => {
                ProcState::BlockedSend(ChannelId(chan_of(*c, "blocked-send")?), decode(bytes)?)
            }
            ManifestStatus::Halted => ProcState::Halted,
        };
        procs.push((rank, proc, status, mr.metrics));
    }
    let mut queues = Vec::with_capacity(manifest.queues.len());
    for (chan, msgs) in &manifest.queues {
        let c = chan_of(*chan, "queue")?;
        let spec = topo.spec(ChannelId(c));
        if !(rset.contains(&spec.writer) && rset.contains(&spec.reader)) {
            return Err(bad(format!(
                "manifest seeds queue on ch{c}, which is not internal to the resumed ranks"
            )));
        }
        let decoded = msgs.iter().map(|m| decode(m)).collect::<Result<Vec<_>, _>>()?;
        queues.push((c, decoded));
    }
    let seed = PartialSeed {
        procs,
        queues,
        consumed: manifest.consumed.clone(),
        counters: manifest.counters.clone(),
    };
    Ok(launch_typed(topo, seed, workers, flight, encode, decode, sink))
}

/// Typed ingress: decodes bytes and hands them to the scheduler gateway.
struct TypedIngress<P: Process, F: FlightSink> {
    gateway: Gateway<P, F>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
}

impl<P: Process, F: FlightSink> GroupIngress for TypedIngress<P, F> {
    fn push_inbound(&self, chan: usize, bytes: &[u8]) -> Result<(), RunError> {
        let msg = (self.decode)(bytes)?;
        self.gateway.push_inbound(ChannelId(chan), msg)
    }

    fn poison(&self, err: RunError) {
        self.gateway.poison(err);
    }

    fn telemetry(&self) -> LiveTelemetry {
        self.gateway.telemetry()
    }

    fn record_route_in(&self, kind: FlightKind, chan: usize, bytes: u64) {
        self.gateway.record_gateway(kind, 0, chan, bytes);
    }

    fn record_route_out(&self, kind: FlightKind, chan: usize, bytes: u64) {
        self.gateway.record_control(kind, 0, chan, bytes);
    }
}

/// Typed join handle: outbound pump first (so every DATA precedes the
/// GROUP_DONE the worker sends after us), then the scheduler itself.
struct TypedJoin<P: Process, F: FlightSink> {
    run: PartialRun<P, F>,
    pump: JoinHandle<Result<(), RunError>>,
}

impl<P: Process + 'static, F: FlightSink> GroupJoin for TypedJoin<P, F> {
    fn join(self: Box<Self>) -> Result<GroupOutcome, RunError> {
        let pump_res = self
            .pump
            .join()
            .map_err(|_| RunError::ThreadPanic { proc: 0 })?;
        let out = self.run.join()?;
        pump_res?;
        Ok((out.snapshots, out.metrics, out.flight))
    }
}

/// Erase a launched run behind the two group traits, spawning its
/// outbound pump.
fn erase_run<P, F>(
    run: PartialRun<P, F>,
    encode: fn(&P::Msg) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
    mut sink: DataSink,
) -> (Arc<dyn GroupIngress>, Box<dyn GroupJoin>)
where
    P: Process + 'static,
    F: FlightSink,
{
    let gateway = run.gateway();
    let pump_gw = gateway.clone();
    let pump =
        thread::spawn(move || pump_gw.pump_outbound(|chan, msg| sink(chan.0, encode(&msg))));
    (Arc::new(TypedIngress { gateway, decode }), Box::new(TypedJoin { run, pump }))
}

/// Launch a typed group from `seed` and erase it behind the two group
/// traits. The flight choice picks the scheduler monomorphization: `None`
/// runs the zero-cost [`NoFlight`] build, `Some(cap)` the recording one —
/// type-erased here so the distributed layer stays untyped.
fn launch_typed<P>(
    topo: &Topology,
    seed: PartialSeed<P>,
    workers: Option<usize>,
    flight: Option<usize>,
    encode: fn(&P::Msg) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
    sink: DataSink,
) -> (Arc<dyn GroupIngress>, Box<dyn GroupJoin>)
where
    P: Process + 'static,
{
    let faults = FaultPlan::none();
    match flight {
        None => {
            let run = launch_partial(topo, seed, workers, &faults, |_| NoFlight);
            erase_run(run, encode, decode, sink)
        }
        Some(cap) => {
            let run = launch_partial(topo, seed, workers, &faults, |w| FlightRecorder::new(w, cap));
            erase_run(run, encode, decode, sink)
        }
    }
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
    b.extend_from_slice(&p.lap.to_le_bytes());
    b.extend_from_slice(&p.acc.to_le_bytes());
    match p.st {
        RingSt::Start => b.push(0),
        RingSt::Waiting => b.push(1),
        RingSt::Forward(tok) => {
            b.push(2);
            b.extend_from_slice(&tok.to_le_bytes());
        }
        RingSt::Done => b.push(3),
    }
    b
}

fn ring_state_decode(template: &RingNode, buf: &[u8]) -> Result<RingNode, RunError> {
    let bad = |detail: String| RunError::Protocol { proc: template.rank, detail };
    let need = |n: usize| -> Result<(), RunError> {
        if buf.len() != n {
            return Err(bad(format!("ring state must be {n} bytes for this tag, got {}", buf.len())));
        }
        Ok(())
    };
    if buf.len() < 17 {
        return Err(bad(format!("ring state truncated: {} bytes", buf.len())));
    }
    let lap = u64::from_le_bytes(buf[..8].try_into().unwrap());
    let acc = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let st = match buf[16] {
        0 => {
            need(17)?;
            RingSt::Start
        }
        1 => {
            need(17)?;
            RingSt::Waiting
        }
        2 => {
            need(25)?;
            RingSt::Forward(u64::from_le_bytes(buf[17..25].try_into().unwrap()))
        }
        3 => {
            need(17)?;
            RingSt::Done
        }
        t => return Err(bad(format!("ring state has unknown tag {t}"))),
    };
    Ok(RingNode { lap, acc, st, ..*template })
}

fn encode_u64(m: &u64) -> Vec<u8> {
    m.to_le_bytes().to_vec()
}

fn decode_u64(b: &[u8]) -> Result<u64, RunError> {
    let arr: [u8; 8] = b.try_into().map_err(|_| RunError::Protocol {
        proc: 0,
        detail: format!("ring token must be 8 bytes, got {}", b.len()),
    })?;
    Ok(u64::from_le_bytes(arr))
}

impl Workload for RingWorkload {
    fn n_ranks(&self) -> usize {
        self.n
    }

    fn topology(&self) -> Topology {
        Topology::ring(self.n)
    }

    fn launch_group(
        &self,
        ranks: &[usize],
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> (Arc<dyn GroupIngress>, Box<dyn GroupJoin>) {
        let all = self.procs();
        let procs: Vec<(usize, RingNode)> =
            ranks.iter().map(|&r| (r, all[r].clone())).collect();
        let topo = self.topology();
        let seed = PartialSeed::fresh(&topo, procs);
        launch_typed(&topo, seed, workers, flight, encode_u64, decode_u64, sink)
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

    fn launch_group_seeded(
        &self,
        ranks: &[usize],
        manifest: &GroupManifest,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> Result<LaunchedGroup, RunError> {
        let all = self.procs();
        let templates: Vec<(usize, RingNode)> =
            ranks.iter().map(|&r| (r, all[r].clone())).collect();
        launch_typed_seeded(
            &self.topology(),
            templates,
            manifest,
            workers,
            flight,
            encode_u64,
            decode_u64,
            ring_state_decode,
            sink,
        )
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
        let (topo, procs) =
            build_msg_processes_for(&plan, self.pg, &init, HostMode::GridRank0, ranks);
        (topo, ranks.iter().copied().zip(procs).collect())
    }

    /// Every rank, for the reference run and the supervisor's shadow.
    fn build(&self) -> (Topology, Vec<MsgProcess<LocalA>>) {
        let all: Vec<usize> = (0..self.pg.nprocs()).collect();
        let (topo, procs) = self.build_ranks(&all);
        (topo, procs.into_iter().map(|(_, p)| p).collect())
    }
}

fn encode_mesh(m: &MeshMsg) -> Vec<u8> {
    encode_mesh_msg(m)
}

fn mesh_state_encode(p: &MsgProcess<LocalA>) -> Vec<u8> {
    p.encode_state()
}

impl Workload for FdtdAWorkload {
    fn n_ranks(&self) -> usize {
        self.pg.nprocs()
    }

    fn topology(&self) -> Topology {
        msg_topology(&self.pg, HostMode::GridRank0)
    }

    fn launch_group(
        &self,
        ranks: &[usize],
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> (Arc<dyn GroupIngress>, Box<dyn GroupJoin>) {
        let (topo, procs) = self.build_ranks(ranks);
        let seed = PartialSeed::fresh(&topo, procs);
        launch_typed(&topo, seed, workers, flight, encode_mesh, decode_mesh_msg, sink)
    }

    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError> {
        let (topo, procs) = self.build();
        let out = Simulator::new(topo, procs).run(&mut RoundRobin::new())?;
        Ok(out.snapshots)
    }

    fn shadow(&self, every: u64) -> Box<dyn ProgramShadow> {
        let (topo, procs) = self.build();
        Box::new(ShadowExec::new(topo, procs, encode_mesh, mesh_state_encode, every))
    }

    fn launch_group_seeded(
        &self,
        ranks: &[usize],
        manifest: &GroupManifest,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
    ) -> Result<LaunchedGroup, RunError> {
        let (topo, templates) = self.build_ranks(ranks);
        launch_typed_seeded(
            &topo,
            templates,
            manifest,
            workers,
            flight,
            encode_mesh,
            decode_mesh_msg,
            |t, b| MsgProcess::decode_state(t.clone(), b),
            sink,
        )
    }
}

// ---------------------------------------------------------------------------
// Registry front door.
// ---------------------------------------------------------------------------

/// Instantiate a workload by registry name. Both the supervisor and every
/// worker call this with the same `(name, args)` from the ASSIGN, so all
/// processes agree on the topology and initial states by construction.
pub fn build_workload(name: &str, args: &JsonValue) -> Result<Box<dyn Workload>, RunError> {
    match name {
        "ring" => {
            let n = args
                .get("n")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| bad_args("ring args need integer 'n'".to_string()))?;
            let laps = args
                .get("laps")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad_args("ring args need integer 'laps'".to_string()))?;
            if !(2..=4096).contains(&n) {
                return Err(bad_args(format!("ring size {n} outside 2..=4096")));
            }
            Ok(Box::new(RingWorkload { n, laps }))
        }
        "fdtd-a" => {
            let preset = match args.get("preset") {
                Some(JsonValue::Str(s)) => s.as_str(),
                _ => return Err(bad_args("fdtd-a args need string 'preset'".to_string())),
            };
            let params = match preset {
                "tiny" => Params::tiny(),
                "figure2" => Params::figure2(),
                other => return Err(bad_args(format!("unknown fdtd preset '{other}'"))),
            };
            let p = args
                .get("p")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| bad_args("fdtd-a args need integer 'p' (rank count)".to_string()))?;
            if p == 0 || p > 512 {
                return Err(bad_args(format!("fdtd-a rank count {p} outside 1..=512")));
            }
            let overlap = matches!(args.get("overlap"), Some(JsonValue::Bool(true)));
            let pg = ProcGrid3::choose(params.n, p);
            Ok(Box::new(FdtdAWorkload { params: Arc::new(params), pg, overlap }))
        }
        other => Err(bad_args(format!("unknown workload '{other}'"))),
    }
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
    let mut m = match fdtd_a_args(preset, p) {
        JsonValue::Obj(m) => m,
        _ => unreachable!("fdtd_a_args builds an object"),
    };
    m.insert("overlap".to_string(), JsonValue::Bool(true));
    JsonValue::Obj(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_reference_is_deterministic_and_nontrivial() {
        let w = build_workload("ring", &ring_args(4, 3)).unwrap();
        assert_eq!(w.n_ranks(), 4);
        let a = w.run_reference().unwrap();
        let b = w.run_reference().unwrap();
        assert_eq!(a, b);
        // Every rank accumulated something.
        for s in &a {
            let acc = u64::from_le_bytes(s[8..16].try_into().unwrap());
            assert_ne!(acc, 0);
        }
    }

    #[test]
    fn fdtd_overlap_reference_matches_the_unsplit_plan_bitwise() {
        let base = build_workload("fdtd-a", &fdtd_a_args("tiny", 4)).unwrap();
        let over = build_workload("fdtd-a", &fdtd_a_overlap_args("tiny", 4)).unwrap();
        assert_eq!(base.n_ranks(), over.n_ranks());
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
                    sim.step_process_with(p, &mut ssp_runtime::NoopObserver).unwrap();
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
            encode_mesh,
            mesh_state_encode,
            fdtd.run_reference().unwrap(),
        );
    }

    #[test]
    fn ungated_shadow_cut_resumes_to_the_reference_result() {
        // Run the shadow to a mid-run cut (cut every step so the final
        // advance leaves a fresh one), manifest ALL ranks, seed a single
        // threaded group from it, and demand the reference snapshots.
        let w = build_workload("ring", &ring_args(3, 4)).unwrap();
        let mut sh = w.shadow(1);
        sh.advance().unwrap();
        assert!(sh.steps() > 0);
        assert_eq!(sh.cut_steps(), sh.steps());
        assert!(sh.cuts_taken() > 1);
        let ranks = vec![0, 1, 2];
        let m = GroupManifest::decode(&sh.manifest(&ranks)).unwrap();
        // Whole program halted in the shadow; resume should agree.
        let (_, join) = w
            .launch_group_seeded(
                &ranks,
                &m,
                Some(2),
                None,
                Box::new(|c, _| panic!("no cross-group sends expected on ch{c}")),
            )
            .unwrap();
        let (mut snaps, _, _) = join.join().unwrap();
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
        let w = build_workload("ring", &ring_args(3, 2)).unwrap();
        let mut sh = w.shadow(1);
        sh.advance().unwrap();
        let good = GroupManifest::decode(&sh.manifest(&[0, 1])).unwrap();
        let sink = || Box::new(|_, _| Ok(())) as DataSink;
        // Rank set mismatch.
        let r = w.launch_group_seeded(&[0, 2], &good, None, None, sink());
        assert!(matches!(r, Err(RunError::Protocol { .. })));
        // Channel vectors of the wrong length.
        let mut bad = good.clone();
        bad.consumed.pop();
        let r = w.launch_group_seeded(&[0, 1], &bad, None, None, sink());
        assert!(matches!(r, Err(RunError::Protocol { .. })));
        // A seeded queue on a channel that is not internal to the ranks.
        let mut bad = good.clone();
        bad.queues = vec![(2, vec![7u64.to_le_bytes().to_vec()])];
        let r = w.launch_group_seeded(&[0, 1], &bad, None, None, sink());
        assert!(matches!(r, Err(RunError::Protocol { .. })));
        // An undecodable blocked-send message.
        let mut bad = good.clone();
        bad.ranks[0].status = ManifestStatus::BlockedSend(0, vec![1, 2, 3]);
        let r = w.launch_group_seeded(&[0, 1], &bad, None, None, sink());
        assert!(matches!(r, Err(RunError::Protocol { .. })));
        // A truncated rank state.
        let mut bad = good;
        bad.ranks[1].state.truncate(3);
        let r = w.launch_group_seeded(&[0, 1], &bad, None, None, sink());
        assert!(matches!(r, Err(RunError::Protocol { .. })));
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
