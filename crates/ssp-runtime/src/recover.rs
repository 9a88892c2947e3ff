//! Checkpoint/restart: crash-consistent execution on top of Theorem 1.
//!
//! The paper's Theorem 1 (§3.2) says every maximal interleaving of a
//! program in the §3.1 model reaches the same final state. A crashed and
//! restarted run *is* just another interleaving: the steps before the crash
//! plus the steps after the restore form a prefix-consistent execution of
//! the same deterministic processes, so checkpoint/restart is
//! semantics-preserving **by construction** — no fsync ordering arguments,
//! no idempotence audits. The tests assert the strongest form of this:
//! recovered final states are *bitwise identical* to uninjected runs.
//!
//! [`run_recovering`] is the simulator's pick loop with a checkpoint
//! supervisor plugged in: it steps the simulator under a [`FaultPlan`],
//! checkpoints every `checkpoint_every` steps (a [`Simulator`] clone plus
//! the plan's bookkeeping), and on an injected crash (or a deadlock)
//! restores the latest checkpoint and re-runs. Fired crashes stay consumed
//! across restores (the plan lives outside the checkpointed state), so
//! recovery cannot livelock on the same fault; `max_restarts` bounds
//! genuinely recurring failures. With `max_restarts: 0` it is plain fault
//! injection: the first crash ends the run with its typed error.
//!
//! [`GroupManifest`] is the one wire form of a cut, a *sealed state* for
//! callers whose workload can decode process state (the distributed
//! backend's migrations).

use crate::chan::Topology;
use crate::error::RunError;
use crate::fault::{Crash, FaultPlan};
use crate::observer::NoopObserver;
use crate::policy::SchedulePolicy;
use crate::proc::{push_bytes, push_u32, push_u64, ProcId, Process, Reader};
use crate::sim::{Rollback, RunOutcome, Simulator};
use crate::trace::{push_counters, push_proc_metrics, RunMetrics};

/// Supervisor tuning: how often to checkpoint and how many restarts to
/// tolerate before giving up.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Take a checkpoint after every this-many executed steps (≥ 1).
    pub checkpoint_every: u64,
    /// Abort (returning the triggering error) after this many restarts.
    pub max_restarts: usize,
}

impl RecoveryConfig {
    /// A config checkpointing every `k` steps with the default restart
    /// budget.
    pub fn every(k: u64) -> Self {
        RecoveryConfig { checkpoint_every: k.max(1), max_restarts: 8 }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::every(64)
    }
}

/// What recovery cost: the numbers `perf-sim` prices into overhead spans.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// How many times the supervisor restored a checkpoint and re-ran.
    pub restarts: u64,
    /// Checkpoints taken (excluding the implicit step-0 one).
    pub checkpoints_taken: u64,
    /// Steps that were executed, lost to a crash, and executed again.
    pub steps_reexecuted: u64,
    /// The errors that triggered each restart, in order.
    pub faults_fired: Vec<RunError>,
}

/// Result of a recovered run: the same final state any uninjected run
/// reaches (Theorem 1), plus the recovery cost accounting.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Byte snapshot of each process's final state, indexed by process id.
    pub snapshots: Vec<Vec<u8>>,
    /// The pick sequence of the final (successful) lineage: the latest
    /// checkpoint's prefix plus everything executed after it.
    pub picks: Vec<ProcId>,
    /// Steps of the final lineage (not counting steps lost to crashes).
    pub steps: u64,
    /// Execution metrics of the final lineage.
    pub metrics: RunMetrics,
    /// Restart/checkpoint/re-execution accounting.
    pub stats: RecoveryStats,
}

/// A consistent snapshot of a run in progress, taken after `step` picks:
/// the simulator at the cut and the fault plan's bookkeeping. The picks
/// before a cut never change, so restoring one truncates the lineage's
/// picks to `step` instead of keeping a copy.
struct Checkpoint<P: Process> {
    step: usize,
    sim: Simulator<P>,
    faults: FaultPlan,
}

/// The checkpoint supervisor the simulator's pick loop runs with.
struct Supervisor<'a, P: Process> {
    cfg: RecoveryConfig,
    latest: Checkpoint<P>,
    /// Every crash that has fired on any lineage. Each stays consumed after
    /// a restore, else the same proc-local trigger would re-fire on every
    /// lineage and recovery would livelock.
    fired: Vec<Crash>,
    stats: &'a mut RecoveryStats,
}

impl<'a, P> Supervisor<'a, P>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    /// Supervise a run starting at `sim` under `faults` (the step-0
    /// checkpoint).
    fn new(
        cfg: RecoveryConfig,
        sim: &Simulator<P>,
        faults: &FaultPlan,
        stats: &'a mut RecoveryStats,
    ) -> Self {
        let latest = Checkpoint { step: 0, sim: sim.clone(), faults: faults.clone() };
        Supervisor { cfg, latest, fired: Vec::new(), stats }
    }
}

impl<P> Rollback<P> for Supervisor<'_, P>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    fn after_step(&mut self, sim: &Simulator<P>, picks: &[ProcId], faults: &FaultPlan) {
        let step = picks.len();
        if (step as u64).is_multiple_of(self.cfg.checkpoint_every.max(1)) {
            self.latest = Checkpoint { step, sim: sim.clone(), faults: faults.clone() };
            self.stats.checkpoints_taken += 1;
        }
    }

    fn restore(
        &mut self,
        failure: RunError,
        sim: &mut Simulator<P>,
        picks: &mut Vec<ProcId>,
        faults: &mut FaultPlan,
    ) -> Result<(), RunError> {
        if let RunError::Injected { proc, step } = failure {
            self.fired.push(Crash { proc, at_step: step });
        }
        self.stats.faults_fired.push(failure.clone());
        self.stats.restarts += 1;
        if self.stats.restarts as usize > self.cfg.max_restarts {
            return Err(failure);
        }
        // The fault plan rolls back with the checkpoint, minus every crash
        // that has fired.
        *sim = self.latest.sim.clone();
        *faults = self.latest.faults.clone();
        for c in &self.fired {
            faults.remove_crash(*c);
        }
        self.stats.steps_reexecuted += (picks.len() - self.latest.step) as u64;
        picks.truncate(self.latest.step);
        Ok(())
    }
}

/// Run `procs` over `topo` under `policy` with `faults` injected,
/// checkpointing every [`RecoveryConfig::checkpoint_every`] steps and
/// recovering from crashes (and deadlocks) by restoring the latest
/// checkpoint and re-running — to completion, or until
/// [`RecoveryConfig::max_restarts`] is exhausted.
///
/// By Theorem 1 the recovered final state is bitwise identical to any
/// uninjected run's. Unrecoverable errors (protocol violations, step-limit
/// exhaustion — both of which would deterministically recur) abort
/// immediately.
pub fn run_recovering<P>(
    topo: Topology,
    procs: Vec<P>,
    mut faults: FaultPlan,
    policy: &mut dyn SchedulePolicy,
    cfg: RecoveryConfig,
) -> Result<RecoveryOutcome, RunError>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    let mut stats = RecoveryStats::default();
    let sim = Simulator::new(topo, procs);
    let mut sup = Supervisor::new(cfg, &sim, &faults, &mut stats);
    let (sim, picks) =
        sim.drive(policy, &mut faults, Some(&mut sup), &mut NoopObserver)?;
    let RunOutcome { snapshots, picks, steps, metrics, .. } = sim.outcome(picks);
    Ok(RecoveryOutcome { snapshots, picks, steps, metrics, stats })
}

// ---------------------------------------------------------------------------
// Group manifests: the distributed backend's migration payload.
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the manifest fingerprint. Cheap, dependency-free,
/// and plenty for *corruption detection* (the threat model is a truncated
/// or bit-flipped frame, not an adversary forging collisions).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A hosted rank's entry in a [`GroupManifest`]: scheduler status plus the
/// process state, both as opaque bytes — the typed side (the workload
/// registry) owns the codecs, so this container stays workload-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRank {
    /// Global rank id.
    pub rank: u32,
    /// Scheduler status at the cut.
    pub status: ManifestStatus,
    /// Encoded process state ([`crate::sim::ProcState`]'s payload).
    pub state: Vec<u8>,
    /// Metrics accumulated by the prefix (step ordinals key fault
    /// injection, so they must survive the move).
    pub metrics: crate::trace::ProcMetrics,
}

/// Untyped [`crate::sim::ProcState`]: blocked-send messages travel encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestStatus {
    /// The rank can take a step.
    Ready,
    /// Blocked receiving on the channel.
    BlockedRecv(u32),
    /// Blocked sending the encoded message on the channel.
    BlockedSend(u32, Vec<u8>),
    /// The rank halted.
    Halted,
}

/// A fingerprint-verified consistent cut of a rank subset — what migrates
/// when a distributed worker dies. Decodes into a
/// [`crate::sched::PartialSeed`] on the receiving worker (via the typed
/// workload registry), resuming the merged group from the supervisor's
/// last checkpoint instead of step zero.
///
/// Theorem 1 licenses this exactly as it licenses [`run_recovering`]'s
/// checkpoints: the cut
/// plus the resumed execution is just another maximal interleaving of the
/// same deterministic processes, so the final state is unchanged — which
/// the distributed suites assert bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupManifest {
    /// Global shadow step ordinal of the cut (diagnostics; replay-cost
    /// accounting).
    pub steps: u64,
    /// One entry per hosted rank.
    pub ranks: Vec<ManifestRank>,
    /// Queue contents at the cut for channels internal to the rank set:
    /// `(chan, encoded messages front-to-back)`.
    pub queues: Vec<(u32, Vec<Vec<u8>>)>,
    /// Deliveries completed before the cut, per channel (full topology).
    pub consumed: Vec<u64>,
    /// Writer-side traffic counters at the cut, per channel:
    /// `(messages, bytes, max_depth)`.
    pub counters: Vec<(u64, u64, u64)>,
}

const GMAN_MAGIC: &[u8; 8] = b"SSPGMAN1";
const GMAN_CODEC: &str = "group manifest";

impl GroupManifest {
    /// Binary wire form, fingerprint-sealed: the last 8 bytes are the
    /// FNV-1a-64 of everything before them. Channel counters and per-rank
    /// metrics use the metrics wire form ([`push_counters`],
    /// [`push_proc_metrics`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(GMAN_MAGIC);
        push_u64(&mut out, self.steps);
        push_u32(&mut out, self.consumed.len() as u32);
        for &c in &self.consumed {
            push_u64(&mut out, c);
        }
        push_counters(&mut out, &self.counters);
        push_u32(&mut out, self.ranks.len() as u32);
        for r in &self.ranks {
            push_u32(&mut out, r.rank);
            push_proc_metrics(&mut out, &r.metrics);
            match &r.status {
                ManifestStatus::Ready => out.push(0),
                ManifestStatus::BlockedRecv(c) => {
                    out.push(1);
                    push_u32(&mut out, *c);
                }
                ManifestStatus::BlockedSend(c, msg) => {
                    out.push(2);
                    push_u32(&mut out, *c);
                    push_bytes(&mut out, msg);
                }
                ManifestStatus::Halted => out.push(3),
            }
            push_bytes(&mut out, &r.state);
        }
        push_u32(&mut out, self.queues.len() as u32);
        for (chan, msgs) in &self.queues {
            push_u32(&mut out, *chan);
            push_u32(&mut out, msgs.len() as u32);
            for m in msgs {
                push_bytes(&mut out, m);
            }
        }
        let fp = fnv1a_64(&out);
        push_u64(&mut out, fp);
        out
    }

    /// Decode and fingerprint-verify a wire manifest. Every failure is a
    /// typed [`RunError::Protocol`] — this path reads network bytes, so it
    /// must never panic and never allocate proportionally to a forged
    /// count.
    pub fn decode(buf: &[u8]) -> Result<GroupManifest, RunError> {
        let (body, seal) = buf.split_at(buf.len().saturating_sub(8));
        let want = Reader::new(GMAN_CODEC, seal).u64("fingerprint")?;
        let mut r = Reader::new(GMAN_CODEC, body);
        let got = fnv1a_64(body);
        if want != got {
            return Err(r.error(format_args!(
                "fingerprint mismatch (manifest says {want:#018x}, bytes hash to {got:#018x})"
            )));
        }
        if r.take(GMAN_MAGIC.len(), "magic")? != GMAN_MAGIC {
            return Err(r.error("bad magic"));
        }
        let steps = r.u64("steps")?;
        let n_consumed = r.count(8, "consumed")?;
        let consumed = (0..n_consumed).map(|_| r.u64("consumed")).collect::<Result<_, _>>()?;
        let counters = r.counters()?;
        let n_ranks = r.count(4 + 48 + 1 + 4, "ranks")?;
        let mut ranks = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let rank = r.u32("rank")?;
            let metrics = r.proc_metrics()?;
            let status = match r.u8("status tag")? {
                0 => ManifestStatus::Ready,
                1 => ManifestStatus::BlockedRecv(r.u32("blocked-recv channel")?),
                2 => {
                    let chan = r.u32("blocked-send channel")?;
                    ManifestStatus::BlockedSend(chan, r.bytes("blocked send message")?.to_vec())
                }
                3 => ManifestStatus::Halted,
                t => return Err(r.error(format_args!("unknown status tag {t}"))),
            };
            let state = r.bytes("rank state")?.to_vec();
            ranks.push(ManifestRank { rank, status, state, metrics });
        }
        let n_queues = r.count(8, "queues")?;
        let mut queues = Vec::with_capacity(n_queues);
        for _ in 0..n_queues {
            let chan = r.u32("queue channel")?;
            let n_msgs = r.count(4, "queued messages")?;
            let msgs = (0..n_msgs)
                .map(|_| Ok(r.bytes("queued message")?.to_vec()))
                .collect::<Result<_, RunError>>()?;
            queues.push((chan, msgs));
        }
        r.finish(GroupManifest { steps, ranks, queues, consumed, counters })
    }
}

#[cfg(test)]
mod manifest_tests {
    use super::*;

    fn sample() -> GroupManifest {
        GroupManifest {
            steps: 913,
            ranks: vec![
                ManifestRank {
                    rank: 2,
                    status: ManifestStatus::BlockedSend(7, vec![1, 2, 3]),
                    state: vec![9; 33],
                    metrics: crate::trace::ProcMetrics {
                        steps: 41,
                        compute_units: 5,
                        sends: 11,
                        receives: 12,
                        blocked_steps: 3,
                        blocked_nanos: 77,
                    },
                },
                ManifestRank {
                    rank: 5,
                    status: ManifestStatus::Halted,
                    state: Vec::new(),
                    metrics: Default::default(),
                },
            ],
            queues: vec![(3, vec![vec![0xAA], vec![]]), (4, vec![])],
            consumed: vec![0, 4, 9],
            counters: vec![(5, 600, 2), (0, 0, 0), (9, 901, 3)],
        }
    }

    #[test]
    fn manifest_round_trips_and_is_fingerprint_sealed() {
        let m = sample();
        let wire = m.encode();
        assert_eq!(GroupManifest::decode(&wire).unwrap(), m);
        // Tail fingerprint really covers the body.
        assert_eq!(
            Reader::new("seal", &wire[wire.len() - 8..]).u64("fingerprint").unwrap(),
            fnv1a_64(&wire[..wire.len() - 8])
        );
    }

    /// Pinned bytes: a codec change may not move the layout of a cut
    /// without failing here.
    #[test]
    fn manifest_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            "535350474d414e31910300000000000003000000000000000000000004000000",
            "0000000009000000000000000300000005000000000000005802000000000000",
            "0200000000000000000000000000000000000000000000000000000000000000",
            "0900000000000000850300000000000003000000000000000200000002000000",
            "290000000000000005000000000000000b000000000000000c00000000000000",
            "03000000000000004d0000000000000002070000000300000001020321000000",
            "0909090909090909090909090909090909090909090909090909090909090909",
            "0905000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000300000000020000000300",
            "00000200000001000000aa000000000400000000000000bac3fb671a4bf3aa",
        );
        let hex: String = sample().encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
    }

    #[test]
    fn every_truncation_fails_typed() {
        let wire = sample().encode();
        for cut in 0..wire.len() {
            let err = GroupManifest::decode(&wire[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, RunError::Protocol { .. }), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn every_byte_flip_fails_typed_or_decodes_nothing_silently_wrong() {
        let wire = sample().encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            // A flip anywhere lands on the fingerprint check (body flips
            // change the hash; tail flips change the expectation).
            let err = GroupManifest::decode(&bad).expect_err("bit flip must fail");
            assert!(matches!(err, RunError::Protocol { .. }), "flip {i}: {err:?}");
        }
    }

    #[test]
    fn forged_counts_fail_before_allocating() {
        // A fingerprint-correct manifest whose rank count is absurd: the
        // count guard must reject it (the fingerprint can't help against a
        // *well-formed* hostile sender).
        let mut body = Vec::new();
        body.extend_from_slice(GMAN_MAGIC);
        push_u64(&mut body, 0);
        push_u32(&mut body, 0); // consumed
        push_u32(&mut body, 0); // counters
        push_u32(&mut body, u32::MAX); // ranks: 4B entries, ~230 B payload
        let fp = fnv1a_64(&body);
        push_u64(&mut body, fp);
        let err = GroupManifest::decode(&body).expect_err("forged count must fail");
        let detail = err.to_string();
        assert!(detail.contains("exceeds payload"), "{detail}");
    }
}
