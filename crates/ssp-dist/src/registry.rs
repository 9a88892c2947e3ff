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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fdtd::par::{init_a, plan_a, LocalA};
use fdtd::Params;
use mesh_archetype::driver::{
    compile, decode_mesh_msg, encode_mesh_msg, HostMode, MsgProcess, Placement,
};
use meshgrid::ProcGrid3;
use ssp_runtime::json::JsonValue;
use ssp_runtime::proc::{push_u32, push_u64, Reader};
use ssp_runtime::{
    launch_partial, ChannelId, Effect, EgressSink, FlightKind, FlightLog, Gateway, GroupManifest,
    Handoff, ManifestRank, PartialRun, PartialSeed, ProcState, Process, RoundRobin, RunError,
    RunMetrics, Seal, Simulator, Topology,
};

fn bad_args(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

/// Sink for outbound DATA payloads: `(channel id, encoded message)` in,
/// the route that carried it ([`FlightKind::DataStar`], `DataDirect` or
/// `DataShm`) out. Called by the sending rank's scheduler worker.
pub type DataSink = Box<dyn FnMut(usize, Vec<u8>) -> Result<FlightKind, RunError> + Send>;

/// Receives a running group's sealed cut as a [`GroupManifest`], every
/// `checkpoint_every` of the group's cross-process sends
/// ([`ssp_runtime::Seal`]).
pub type SealHook = Box<dyn FnMut(GroupManifest) + Send>;

/// Ingress half of a running group: feeds decoded remote messages in.
/// Shared with the worker's socket-read loop.
pub trait GroupIngress: Send + Sync {
    /// Deliver one DATA payload for `chan` into the group, marked in its
    /// flight log as carried by `route`. Call under the worker's router
    /// lock (the gateway lane takes one writer at a time); run the
    /// [`Handoff`] it may return only after releasing that lock.
    fn push_inbound(
        &self,
        chan: usize,
        bytes: &[u8],
        route: FlightKind,
    ) -> Result<Option<Handoff>, RunError>;
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
    /// through the returned [`GroupIngress`]. With `seal = Some((k, hook))`
    /// the group seals its cut into a manifest for `hook` every `k` of its
    /// cross-process sends. A manifest is validated in full (it arrives
    /// over a socket): a rank set other than `ranks`, channel vectors not
    /// shaped for the topology, channel ids out of range, queues on
    /// non-internal channels and undecodable states or messages all fail
    /// typed.
    fn launch_group(
        &self,
        ranks: &[usize],
        resume: Option<&GroupManifest>,
        workers: Option<usize>,
        flight: Option<usize>,
        sink: DataSink,
        seal: Option<(u64, SealHook)>,
    ) -> Result<LaunchedGroup, RunError>;
    /// The single-process reference run: final snapshots under the
    /// deterministic simulator. The distributed result must match this
    /// bitwise (Theorem 1's standard).
    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError>;
}

/// A workload's typed codecs: its messages both ways, and a rank's evolving
/// state both ways, read back against the rank's template.
struct Codecs<P: Process> {
    encode: fn(&P::Msg) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
    encode_state: fn(&P) -> Vec<u8>,
    decode_state: fn(&P, &[u8]) -> Result<P, RunError>,
}

/// Seal a group's cut: each rank's encoded state and status (a blocked
/// send's message encoded), its internal queues encoded, and the cut's
/// channel counters. `steps` is the ranks' total.
fn manifest_of<P: Process>(
    seed: PartialSeed<P>,
    encode: fn(&P::Msg) -> Vec<u8>,
    encode_state: fn(&P) -> Vec<u8>,
) -> GroupManifest {
    let ranks: Vec<ManifestRank> = seed
        .procs
        .iter()
        .map(|(rank, proc, status, metrics)| {
            let status = match status {
                ProcState::Ready => ProcState::Ready,
                ProcState::BlockedRecv(c) => ProcState::BlockedRecv(*c),
                ProcState::BlockedSend(c, m) => ProcState::BlockedSend(*c, encode(m)),
                ProcState::Halted => ProcState::Halted,
            };
            let state = encode_state(proc);
            ManifestRank { rank: *rank as u32, status, state, metrics: *metrics }
        })
        .collect();
    GroupManifest {
        steps: ranks.iter().map(|r| r.metrics.steps).sum(),
        ranks,
        queues: seed
            .queues
            .iter()
            .map(|(c, q)| (*c as u32, q.iter().map(encode).collect()))
            .collect(),
        consumed: seed.consumed,
        counters: seed.counters,
    }
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
struct TypedIngress<P: Process> {
    gateway: Gateway<P>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
}

impl<P: Process + 'static> GroupIngress for TypedIngress<P> {
    fn push_inbound(
        &self,
        chan: usize,
        bytes: &[u8],
        route: FlightKind,
    ) -> Result<Option<Handoff>, RunError> {
        let msg = (self.decode)(bytes)?;
        self.gateway.push_inbound(ChannelId(chan), msg, route)
    }
}

/// Erase a launched run behind the group ingress and a boxed join.
fn erase_run<P: Process + 'static>(
    run: PartialRun<P>,
    decode: fn(&[u8]) -> Result<P::Msg, RunError>,
) -> LaunchedGroup {
    let ingress = Arc::new(TypedIngress { gateway: run.gateway(), decode });
    (ingress, Box::new(move || run.join().map(|o| (o.snapshots, o.metrics, o.flight))))
}

/// The one launch behind [`Workload::launch_group`]: seed `templates`
/// fresh, or from `resume` ([`seed_from_manifest`]), start a typed group
/// whose cross-group sends call `sink` with the codec's encoding and whose
/// seals reach the hook as manifests ([`manifest_of`]), and erase it
/// ([`erase_run`]) so the distributed layer stays untyped. `flight` is the
/// recorder's window per lane, `None` not to record.
#[allow(clippy::too_many_arguments)]
fn launch_typed<P>(
    topo: &Topology,
    templates: Vec<(usize, P)>,
    resume: Option<&GroupManifest>,
    workers: Option<usize>,
    flight: Option<usize>,
    codecs: &Codecs<P>,
    mut sink: DataSink,
    seal: Option<(u64, SealHook)>,
) -> Result<LaunchedGroup, RunError>
where
    P: Process + Clone + 'static,
    P::Msg: Clone,
{
    let seed = match resume {
        None => PartialSeed::fresh(topo, templates),
        Some(m) => seed_from_manifest(topo, templates, m, codecs)?,
    };
    let (encode, decode, encode_state) = (codecs.encode, codecs.decode, codecs.encode_state);
    let egress: Option<EgressSink<P::Msg>> =
        Some(Box::new(move |chan, msg| sink(chan.0, encode(&msg))));
    let seal = seal.map(|(every, mut hook)| -> Seal<P> {
        (every, Box::new(move |seed| hook(manifest_of(seed, encode, encode_state))))
    });
    Ok(erase_run(launch_partial(topo, seed, workers, egress, seal, flight), decode))
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

const RING_CODECS: Codecs<RingNode> = Codecs {
    encode: encode_u64,
    decode: decode_u64,
    encode_state: ring_state_encode,
    decode_state: ring_state_decode,
};

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
        seal: Option<(u64, SealHook)>,
    ) -> Result<LaunchedGroup, RunError> {
        let all = self.procs();
        let templates = ranks.iter().map(|&r| (r, all[r].clone())).collect();
        let topo = self.topology();
        launch_typed(&topo, templates, resume, workers, flight, &RING_CODECS, sink, seal)
    }

    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError> {
        let out = Simulator::new(self.topology(), self.procs()).run(&mut RoundRobin::new())?;
        Ok(out.snapshots)
    }
}

// ---------------------------------------------------------------------------
// "fdtd-a" — the paper's FDTD Version A over the mesh archetype.
// ---------------------------------------------------------------------------

struct FdtdAWorkload {
    params: Arc<Params>,
    pg: ProcGrid3,
}

impl FdtdAWorkload {
    /// The whole program's topology and the processes of `ranks` alone —
    /// a worker allocates field and material state only for what it hosts.
    fn build_ranks(&self, ranks: &[usize]) -> (Topology, Vec<(usize, MsgProcess<LocalA>)>) {
        let plan = plan_a(&self.params);
        let init = init_a(self.params.clone());
        let distinct: BTreeSet<usize> = ranks.iter().copied().collect();
        assert_eq!(distinct.len(), ranks.len(), "rank assigned twice in {ranks:?}");
        let placement = Placement::per_rank(&self.pg, HostMode::GridRank0);
        let (topo, procs) = compile(&plan, &*init, &placement, ranks.iter().copied());
        (topo, ranks.iter().copied().zip(procs).collect())
    }

    /// Every rank, for the reference run.
    fn build(&self) -> (Topology, Vec<MsgProcess<LocalA>>) {
        let all: Vec<usize> = (0..self.pg.nprocs()).collect();
        let (topo, procs) = self.build_ranks(&all);
        (topo, procs.into_iter().map(|(_, p)| p).collect())
    }
}

const FDTD_A_CODECS: Codecs<MsgProcess<LocalA>> = Codecs {
    encode: encode_mesh_msg,
    decode: decode_mesh_msg,
    encode_state: MsgProcess::encode_state,
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
        seal: Option<(u64, SealHook)>,
    ) -> Result<LaunchedGroup, RunError> {
        let (topo, templates) = self.build_ranks(ranks);
        launch_typed(&topo, templates, resume, workers, flight, &FDTD_A_CODECS, sink, seal)
    }

    fn run_reference(&self) -> Result<Vec<Vec<u8>>, RunError> {
        let (topo, procs) = self.build();
        let out = Simulator::new(topo, procs).run(&mut RoundRobin::new())?;
        Ok(out.snapshots)
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
    /// `fdtd-a {preset, p}`: the paper's FDTD Version A.
    FdtdA {
        /// The problem.
        preset: FdtdPreset,
        /// Ranks, `1..=512`.
        p: usize,
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
    /// [laps: u64]` (tag 0) or `fdtd-a`'s `[preset: u8][p: u32]` (tag 1).
    /// The inverse is [`WorkloadSpec::read`].
    pub fn push(&self, buf: &mut Vec<u8>) {
        match *self {
            WorkloadSpec::Ring { n, laps } => {
                buf.push(0);
                push_u32(buf, n as u32);
                push_u64(buf, laps);
            }
            WorkloadSpec::FdtdA { preset, p } => {
                buf.push(1);
                buf.push(preset as u8);
                push_u32(buf, p as u32);
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
            WorkloadSpec::FdtdA { preset, p } => {
                let params = match preset {
                    FdtdPreset::Tiny => Params::tiny(),
                    FdtdPreset::Figure2 => Params::figure2(),
                };
                let pg = ProcGrid3::choose(params.n, p);
                Box::new(FdtdAWorkload { params: Arc::new(params), pg })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Assign, Checkpoint};
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
            checkpoint: Some(4),
            resume: Some(Checkpoint { manifest, logs: Vec::new() }),
        };
        Assign::decode(&assign.encode()).unwrap()
    }

    #[test]
    fn seeded_launch_rejects_malformed_manifests_typed() {
        let spec = WorkloadSpec::Ring { n: 3, laps: 2 };
        let w = spec.build();
        let ring = RingWorkload { n: 3, laps: 2 };
        let ranks01 = ring.procs().into_iter().take(2).enumerate().collect();
        let good = manifest_of(
            PartialSeed::fresh(&ring.topology(), ranks01),
            encode_u64,
            ring_state_encode,
        );
        let rejects = |ranks: &[usize], m: GroupManifest| {
            let a = resumed_assign(spec, ranks, m);
            let sink = Box::new(|_, _| Ok(FlightKind::DataStar)) as DataSink;
            let resume = a.resume.as_ref().map(|c| &c.manifest);
            let r = w.launch_group(&a.ranks, resume, None, None, sink, None);
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
        let fdtd = WorkloadSpec::FdtdA { preset: FdtdPreset::Figure2, p: 512 };
        assert_eq!(read(ring).unwrap(), ring);
        assert_eq!(read(fdtd).unwrap(), fdtd);
        // Out-of-range parameters fail typed off the wire as from args.
        for spec in [
            WorkloadSpec::Ring { n: 1, laps: 1 },
            WorkloadSpec::Ring { n: 4097, laps: 1 },
            WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 0 },
            WorkloadSpec::FdtdA { preset: FdtdPreset::Tiny, p: 513 },
        ] {
            assert!(matches!(read(spec), Err(RunError::Protocol { .. })), "{spec:?}");
        }
        assert!(WorkloadSpec::from_args("ring", &ring_args(1, 3)).is_err());
        assert!(WorkloadSpec::from_args("fdtd-a", &fdtd_a_args("tiny", 0)).is_err());
        // Unknown workload and preset tags.
        for bytes in [&[2u8][..], &[1, 2, 4, 0, 0, 0]] {
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
