//! The deterministic simulated runner.
//!
//! [`Simulator`] interleaves atomic actions of a process collection one at a
//! time under a [`SchedulePolicy`], maintaining channel queues in its own
//! address space — the executable counterpart of the paper's §3.1 recipe for
//! simulating a parallel program:
//!
//! 1. simulate concurrent execution by interleaving actions from processes;
//! 2. simulate separate address spaces with distinct data structures;
//! 3. represent channels as queues, never reading from an empty one.
//!
//! A run terminates when every process has halted; the interleaving taken is
//! then *maximal* and the final state is the vector of process snapshots.
//! Running the same collection under different policies and comparing
//! outcomes is the empirical form of Theorem 1.
//!
//! One pick loop (`Simulator::drive`) runs every simulated execution:
//! [`Simulator::run`], [`Simulator::run_observed`] (which `perf-sim`'s
//! discrete-event engine drives, its clocks consuming the events) and
//! [`crate::recover::run_recovering`] (which plugs a checkpoint supervisor
//! into it). A run is recorded once, as its `picks`; anything finer is its
//! [`FlightEvent`]s, in the vocabulary the pool's flight recorder writes
//! (see [`Simulator::step_process_with`]), with `nanos` 0 because the
//! simulator has no clock.

use std::collections::VecDeque;

use crate::chan::{ChannelId, Topology};
use crate::error::RunError;
use crate::fault::FaultPlan;
use crate::policy::SchedulePolicy;
use crate::proc::{Effect, ProcId, Process};
use crate::sched::PartialSeed;
use crate::trace::{FlightEvent, FlightKind, RunMetrics};
use crate::waitgraph::{self, BlockKind};

/// Result of a terminated simulated run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Byte snapshot of each rank's final state: every process's
    /// [`Process::rank_snapshots`], processes in id order — one snapshot per
    /// process when each hosts one rank, as the threaded runner reports.
    pub snapshots: Vec<Vec<u8>>,
    /// The exact pick sequence the policy produced, one entry per atomic
    /// step — including picks that only post a receive. Feeding `picks` to
    /// [`crate::policy::FixedSchedule`] replays the run exactly.
    pub picks: Vec<ProcId>,
    /// Number of atomic steps taken (equals `picks.len()`).
    pub steps: u64,
    /// High-water mark of total queued messages across all channels — the
    /// "slack" the run actually used. Infinite-slack channels make this
    /// unbounded in principle; observing it shows how adversarial schedules
    /// inflate buffering.
    pub max_queued: usize,
    /// Per-channel and per-process execution metrics (message counts,
    /// payload bytes, queue-depth high-water marks, block accounting).
    pub metrics: RunMetrics,
}

impl RunOutcome {
    /// True if `self` and `other` ended in the same final state
    /// (bitwise-identical snapshots for every rank) — the equivalence
    /// Theorem 1 guarantees.
    pub fn same_final_state(&self, other: &RunOutcome) -> bool {
        self.snapshots == other.snapshots
    }
}

/// A process's scheduling status: what the simulator stores per process,
/// what a cut ([`Simulator::into_seed`]) carries to seed another backend,
/// what the threaded scheduler resumes from, and — with the message
/// encoded, `ProcState<Vec<u8>>` — what a sealed
/// [`crate::recover::GroupManifest`] carries per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcState<M> {
    /// Can be resumed with no delivery.
    Ready,
    /// A receive is posted on the channel; the delivery has not happened.
    /// Runnable iff the queue is non-empty.
    BlockedRecv(ChannelId),
    /// A send is pending on a channel that would not admit it (a full
    /// bounded channel, or a closed port); holds the undelivered message.
    BlockedSend(ChannelId, M),
    /// The process has halted.
    Halted,
}

/// Simulated executor for one process collection over one topology.
#[derive(Clone)]
pub struct Simulator<P: Process> {
    topo: Topology,
    procs: Vec<P>,
    status: Vec<ProcState<P::Msg>>,
    queues: Vec<VecDeque<P::Msg>>,
    /// Per channel: `Some(open)` marks a port (see [`Simulator::set_port`]).
    ports: Vec<Option<bool>>,
    metrics: RunMetrics,
    /// Messages in flight across all channels, and its high-water mark.
    queued: usize,
    max_queued: usize,
    /// Maximum atomic actions before aborting with [`RunError::StepLimit`].
    pub step_limit: u64,
}

/// A recovery supervisor plugged into [`Simulator::drive`]: it sees every
/// completed step (to checkpoint) and every failure that ends a lineage (to
/// rewind). [`crate::recover`] implements it; a plain run has none and
/// clones nothing.
pub(crate) trait Rollback<P: Process> {
    /// Step `picks.len()` of the lineage completed.
    fn after_step(&mut self, sim: &Simulator<P>, picks: &[ProcId], faults: &FaultPlan);

    /// An injected crash or a deadlock ended the lineage. Either rewind
    /// `sim`, `picks` and `faults` to a checkpoint and return `Ok`, or give
    /// up with `failure`.
    fn restore(
        &mut self,
        failure: RunError,
        sim: &mut Simulator<P>,
        picks: &mut Vec<ProcId>,
        faults: &mut FaultPlan,
    ) -> Result<(), RunError>;
}

impl<P: Process> Simulator<P> {
    /// Build a simulator. `procs[i]` is process `i`; its length must match
    /// the topology's process count.
    pub fn new(topo: Topology, procs: Vec<P>) -> Self {
        assert_eq!(
            procs.len(),
            topo.n_procs(),
            "process count must match topology"
        );
        let n_chans = topo.n_channels();
        let n_procs = procs.len();
        let metrics = RunMetrics::for_topology(&topo);
        Simulator {
            topo,
            procs,
            status: (0..n_procs).map(|_| ProcState::Ready).collect(),
            queues: (0..n_chans).map(|_| VecDeque::new()).collect(),
            ports: vec![None; n_chans],
            metrics,
            queued: 0,
            max_queued: 0,
            step_limit: u64::MAX,
        }
    }

    /// Set the step limit (builder style).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Mark `chan` as a *port* — a channel whose far end lives outside this
    /// simulator — or back as an ordinary channel. `None` is the spec's
    /// capacity rule; `Some(open)` lets a send complete iff `open` and
    /// ignores capacity, because flow control across a process boundary
    /// belongs to the transport (the rule `sched` applies to egress
    /// channels).
    /// This is API for external steppers that admit sends themselves (the
    /// distributed supervisor's shadow), not a user setting.
    pub fn set_port(&mut self, chan: ChannelId, port: Option<bool>) {
        self.ports[chan.0] = port;
    }

    /// The messages in flight on `chan`, front (next delivered) to back
    /// (last sent).
    pub fn queue(&self, chan: ChannelId) -> &VecDeque<P::Msg> {
        &self.queues[chan.0]
    }

    /// Would a send on `chan` complete now?
    fn admits_send(&self, chan: ChannelId) -> bool {
        match self.ports[chan.0] {
            Some(open) => open,
            None => self.topo.spec(chan).capacity.is_none_or(|k| self.queues[chan.0].len() < k),
        }
    }

    /// Can `p` take a step now? [`Simulator::runnable`] is the set of
    /// processes for which this holds.
    pub fn is_runnable(&self, p: ProcId) -> bool {
        match &self.status[p] {
            ProcState::Ready => true,
            ProcState::BlockedRecv(c) => !self.queues[c.0].is_empty(),
            ProcState::BlockedSend(c, _) => self.admits_send(*c),
            ProcState::Halted => false,
        }
    }

    fn all_halted(&self) -> bool {
        self.status.iter().all(|s| matches!(s, ProcState::Halted))
    }

    fn blocked_list(&self) -> Vec<(ProcId, ChannelId, BlockKind)> {
        self.status
            .iter()
            .enumerate()
            .filter_map(|(p, s)| match s {
                ProcState::BlockedRecv(c) => Some((p, *c, BlockKind::Recv)),
                ProcState::BlockedSend(c, _) => Some((p, *c, BlockKind::Send)),
                _ => None,
            })
            .collect()
    }

    /// Handle the effect a process returned from `resume`, updating its
    /// status and the queues, and report the corresponding event.
    fn apply_effect(
        &mut self,
        p: ProcId,
        eff: Effect<P::Msg>,
        obs: &mut dyn FnMut(FlightEvent),
    ) -> Result<(), RunError> {
        match eff {
            Effect::Compute { units } => {
                self.metrics.procs[p].compute_units += units;
                self.status[p] = ProcState::Ready;
                obs(event(FlightKind::Compute, p, 0, units));
            }
            Effect::Send { chan, msg } => {
                self.topo.check_writer(chan, p)?;
                if self.admits_send(chan) {
                    self.complete_send(p, chan, msg, obs);
                } else {
                    // Full bounded channel (non-paper model) or closed
                    // port: hold the message until the send is admitted.
                    self.status[p] = ProcState::BlockedSend(chan, msg);
                    obs(event(FlightKind::Park, p, chan.0, 1));
                }
            }
            Effect::Recv { chan } => {
                self.topo.check_reader(chan, p)?;
                // The receive itself (delivery) is a separate atomic action,
                // taken when this process is next scheduled and the queue is
                // non-empty.
                self.status[p] = ProcState::BlockedRecv(chan);
                obs(event(FlightKind::Park, p, chan.0, 0));
            }
            Effect::Halt => {
                self.status[p] = ProcState::Halted;
                obs(event(FlightKind::Halt, p, 0, 0));
            }
            Effect::Fault { error } => {
                // The process detected an unrecoverable condition; mark it
                // halted so it is never resumed again and abort the run.
                self.status[p] = ProcState::Halted;
                obs(event(FlightKind::Fault, p, 0, 0));
                return Err(error);
            }
        }
        Ok(())
    }

    /// Enqueue `msg` on `chan` (which admits it) and leave `p` ready.
    fn complete_send(
        &mut self,
        p: ProcId,
        chan: ChannelId,
        msg: P::Msg,
        obs: &mut dyn FnMut(FlightEvent),
    ) {
        let bytes = P::msg_size_bytes(&msg);
        self.queues[chan.0].push_back(msg);
        self.queued += 1;
        self.max_queued = self.max_queued.max(self.queued);
        self.metrics.on_send(chan, bytes, self.queues[chan.0].len());
        self.status[p] = ProcState::Ready;
        obs(event(FlightKind::Send, p, chan.0, bytes));
    }

    /// Take one atomic step for process `p` (which must be runnable).
    fn step(&mut self, p: ProcId, obs: &mut dyn FnMut(FlightEvent)) -> Result<(), RunError> {
        // Temporarily replace the status to take ownership of any held message.
        let status = std::mem::replace(&mut self.status[p], ProcState::Ready);
        self.metrics.procs[p].steps += 1;
        match status {
            ProcState::Ready => {
                let eff = self.procs[p].resume(None);
                self.apply_effect(p, eff, obs)
            }
            ProcState::BlockedRecv(chan) => {
                let msg = self.queues[chan.0]
                    .pop_front()
                    .expect("scheduled a recv-blocked process with empty queue");
                self.queued -= 1;
                self.metrics.on_recv(chan);
                obs(event(FlightKind::Recv, p, chan.0, P::msg_size_bytes(&msg)));
                let eff = self.procs[p].resume(Some(msg));
                self.apply_effect(p, eff, obs)
            }
            ProcState::BlockedSend(chan, msg) => {
                // The channel now admits the pending send. The process is
                // not resumed this step; the send is the action.
                self.complete_send(p, chan, msg, obs);
                Ok(())
            }
            ProcState::Halted => unreachable!("halted processes are never scheduled"),
        }
    }

    /// The currently runnable processes (empty + not all halted ⇒ deadlock).
    /// Public for interactive exploration: exhaustive interleaving
    /// enumeration branches on exactly this set.
    pub fn runnable(&self) -> Vec<ProcId> {
        (0..self.procs.len()).filter(|&p| self.is_runnable(p)).collect()
    }

    /// Fill `out` with the processes a policy may pick for this scheduling
    /// slot, and charge every blocked process that cannot move one blocked
    /// step: it loses the slot.
    ///
    /// Under `faults`, a process whose pending delivery an active channel
    /// stall withholds is left out — unless that would leave no one. A stall
    /// may delay deliveries but must never fabricate a deadlock (Theorem 1:
    /// stalls cannot change outcomes, so they cannot *create* a stuck
    /// state), so an all-withheld slot releases the stalls for this step.
    fn schedulable(&mut self, faults: &FaultPlan, out: &mut Vec<ProcId>) {
        out.clear();
        for p in 0..self.status.len() {
            if self.is_runnable(p) {
                out.push(p);
            } else if !matches!(self.status[p], ProcState::Halted) {
                self.metrics.procs[p].blocked_steps += 1;
            }
        }
        if !faults.stalls().is_empty() {
            let withheld = |p: &ProcId| {
                matches!(&self.status[*p],
                         ProcState::BlockedRecv(c) if faults.delivery_withheld(*c))
            };
            if !out.iter().all(withheld) {
                out.retain(|p| !withheld(p));
            }
        }
    }

    /// True when every process has halted (the interleaving is maximal).
    pub fn is_done(&self) -> bool {
        self.all_halted()
    }

    /// Take one atomic step for runnable process `p`, telling `obs` exactly
    /// what the step did, in the pool's flight-recorder vocabulary with
    /// `nanos` 0: `Compute` (units in `bytes`), `Send`, `Recv` (the message
    /// size in `bytes`), `Park` (`bytes` 0 for a posted receive, 1 for a
    /// blocked send), `Halt`, and `Fault` (`bytes` 0 for a process fault).
    /// A delivery step reports the `Recv` and then the resumed process's
    /// next action. External steppers — exhaustive interleaving
    /// enumeration, the distributed supervisor's shadow — use this to
    /// reuse the simulator's semantics instead of reimplementing them.
    pub fn step_process_with(
        &mut self,
        p: ProcId,
        obs: &mut dyn FnMut(FlightEvent),
    ) -> Result<(), RunError> {
        assert!(self.is_runnable(p), "step_process_with requires a runnable process");
        self.step(p, obs)
    }

    /// Take one atomic step for runnable `p` under a fault plan.
    ///
    /// If the plan holds a crash for `p` at the step it is about to take
    /// (its own, process-local step count — schedule-independent by the
    /// paper's model), the process is marked halted, the crash is consumed
    /// from the plan, and [`RunError::Injected`] is returned. Otherwise the
    /// step proceeds normally and the plan's stall bookkeeping (global tick
    /// count, per-channel delivery counts) is advanced. An empty plan
    /// injects nothing and needs no bookkeeping. A crash is reported as a
    /// `Fault` event carrying the step.
    fn step_injected(
        &mut self,
        p: ProcId,
        faults: &mut FaultPlan,
        obs: &mut dyn FnMut(FlightEvent),
    ) -> Result<(), RunError> {
        if faults.is_empty() {
            return self.step(p, obs);
        }
        let local_step = self.metrics.procs[p].steps + 1;
        if let Some(crash) = faults.take_crash(p, local_step) {
            self.status[p] = ProcState::Halted;
            obs(event(FlightKind::Fault, p, 0, crash.at_step));
            return Err(RunError::Injected { proc: p, step: crash.at_step });
        }
        let delivering = match &self.status[p] {
            ProcState::BlockedRecv(c) if !self.queues[c.0].is_empty() => Some(*c),
            _ => None,
        };
        let r = self.step(p, obs);
        faults.tick();
        if let Some(c) = delivering {
            faults.note_recv(c);
        }
        r
    }

    /// The typed deadlock error describing the *current* blocked
    /// configuration (every process blocked, none runnable).
    fn deadlock_error(&self) -> RunError {
        waitgraph::deadlock_error(&self.topo, &self.blocked_list())
    }

    /// The communication metrics accumulated so far (complete once
    /// [`Simulator::is_done`]). External steppers read these instead of
    /// re-counting traffic themselves.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Snapshot every process's current state (meaningful once
    /// [`Simulator::is_done`], but callable at any point).
    pub fn snapshots_now(&self) -> Vec<Vec<u8>> {
        self.procs.iter().map(|p| p.snapshot()).collect()
    }

    /// A canonical fingerprint of the *entire* simulator state — process
    /// snapshots and progress counters, statuses, and queue contents
    /// (encoded by `msg_bytes`). Two simulators with equal fingerprints are
    /// behaviourally identical, so state-graph exploration may merge them.
    pub fn state_fingerprint(&self, msg_bytes: impl Fn(&P::Msg) -> Vec<u8>) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in &self.procs {
            let snap = p.snapshot();
            buf.extend_from_slice(&(snap.len() as u64).to_le_bytes());
            buf.extend_from_slice(&snap);
            buf.extend_from_slice(&p.progress().to_le_bytes());
        }
        for s in &self.status {
            match s {
                ProcState::Ready => buf.push(0),
                ProcState::BlockedRecv(c) => {
                    buf.push(1);
                    buf.extend_from_slice(&(c.0 as u64).to_le_bytes());
                }
                ProcState::BlockedSend(c, m) => {
                    buf.push(2);
                    buf.extend_from_slice(&(c.0 as u64).to_le_bytes());
                    let mb = msg_bytes(m);
                    buf.extend_from_slice(&(mb.len() as u64).to_le_bytes());
                    buf.extend_from_slice(&mb);
                }
                ProcState::Halted => buf.push(3),
            }
        }
        for q in &self.queues {
            buf.extend_from_slice(&(q.len() as u64).to_le_bytes());
            for m in q {
                let mb = msg_bytes(m);
                buf.extend_from_slice(&(mb.len() as u64).to_le_bytes());
                buf.extend_from_slice(&mb);
            }
        }
        buf
    }

    /// Export the simulator's cut — processes mid-state, their statuses,
    /// the in-flight queues and the prefix's counters — as the seed of a
    /// whole program, for another backend to resume from. Consumes the
    /// simulator: the state is moved, not copied. Any backend that runs the
    /// seed to completion reaches the same final state as continuing the
    /// simulation would (Theorem 1: the steps before the cut plus the steps
    /// after form one maximal interleaving).
    pub fn into_seed(self) -> PartialSeed<P> {
        let Simulator { procs, status, queues, metrics, .. } = self;
        let consumed = metrics
            .channels
            .iter()
            .zip(&queues)
            .map(|(c, q)| c.messages.saturating_sub(q.len() as u64))
            .collect();
        PartialSeed {
            procs: procs
                .into_iter()
                .zip(status)
                .enumerate()
                .map(|(rank, (proc, st))| (rank, proc, st, metrics.procs[rank]))
                .collect(),
            queues: queues.into_iter().map(Vec::from).enumerate().collect(),
            consumed,
            counters: metrics.counters(),
        }
    }

    /// Run to termination under `policy`, producing the picks taken and the
    /// final state.
    pub fn run(self, policy: &mut dyn SchedulePolicy) -> Result<RunOutcome, RunError> {
        self.run_observed(policy, &mut |_| {})
    }

    /// [`Simulator::run`] with every atomic action reported to `obs`.
    pub fn run_observed(
        self,
        policy: &mut dyn SchedulePolicy,
        obs: &mut dyn FnMut(FlightEvent),
    ) -> Result<RunOutcome, RunError> {
        let (sim, picks) = self.drive(policy, &mut FaultPlan::none(), None, obs)?;
        Ok(sim.outcome(picks))
    }

    /// The outcome of a lineage that ended here after `picks`.
    pub(crate) fn outcome(self, picks: Vec<ProcId>) -> RunOutcome {
        RunOutcome {
            snapshots: self.procs.iter().flat_map(|p| p.rank_snapshots()).collect(),
            steps: picks.len() as u64,
            picks,
            max_queued: self.max_queued,
            metrics: self.metrics,
        }
    }

    /// The one pick loop behind every simulated run: pick, step, until every
    /// process halts; returns the final simulator and the lineage's picks.
    /// `faults` is injected as it goes (an empty plan injects nothing).
    /// Without `rollback`, an injected crash or a deadlock ends the run;
    /// with it, they rewind to a checkpoint. Errors that would recur on
    /// every lineage — protocol violations, the step limit — always end it.
    pub(crate) fn drive(
        mut self,
        policy: &mut dyn SchedulePolicy,
        faults: &mut FaultPlan,
        mut rollback: Option<&mut dyn Rollback<P>>,
        obs: &mut dyn FnMut(FlightEvent),
    ) -> Result<(Self, Vec<ProcId>), RunError> {
        let mut picks = Vec::new();
        let mut runnable = Vec::new();
        while !self.all_halted() {
            self.schedulable(faults, &mut runnable);
            let failure = if runnable.is_empty() {
                self.deadlock_error()
            } else if picks.len() as u64 >= self.step_limit {
                return Err(RunError::StepLimit { limit: self.step_limit });
            } else {
                let p = policy.pick(&runnable);
                debug_assert!(runnable.contains(&p), "policy must pick a runnable process");
                match self.step_injected(p, faults, obs) {
                    Ok(()) => {
                        picks.push(p);
                        if let Some(r) = rollback.as_deref_mut() {
                            r.after_step(&self, &picks, faults);
                        }
                        continue;
                    }
                    Err(e @ RunError::Injected { .. }) => e,
                    Err(e) => return Err(e),
                }
            };
            match rollback.as_deref_mut() {
                Some(r) => r.restore(failure, &mut self, &mut picks, faults)?,
                None => return Err(failure),
            }
        }
        Ok((self, picks))
    }
}

/// The event of `kind` that process `p` takes on channel `chan`.
fn event(kind: FlightKind, p: ProcId, chan: usize, bytes: u64) -> FlightEvent {
    FlightEvent { nanos: 0, kind, rank: p as u32, chan: chan as u32, bytes }
}

/// Convenience: build and run in one call.
pub fn run_simulated<P: Process>(
    topo: Topology,
    procs: Vec<P>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    Simulator::new(topo, procs).run(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::ChannelSpec;
    use crate::policy::{Adversary, AdversarialPolicy, RandomPolicy, RoundRobin};
    use crate::proc::{push_f64, push_u64};
    use crate::recover::{run_recovering, RecoveryConfig, RecoveryOutcome};

    /// A process that sends `count` increasing integers then halts, or
    /// receives `count` integers, sums them, then halts.
    #[derive(Clone)]
    enum PingPong {
        Sender { chan: ChannelId, next: u64, count: u64 },
        Receiver { chan: ChannelId, got: u64, sum: u64, count: u64 },
    }

    impl Process for PingPong {
        type Msg = u64;

        fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
            match self {
                PingPong::Sender { chan, next, count } => {
                    if *next < *count {
                        let msg = *next;
                        *next += 1;
                        Effect::Send { chan: *chan, msg }
                    } else {
                        Effect::Halt
                    }
                }
                PingPong::Receiver { chan, got, sum, count } => {
                    if let Some(m) = delivery {
                        *sum = sum.wrapping_mul(31).wrapping_add(m);
                        *got += 1;
                    }
                    if *got < *count {
                        Effect::Recv { chan: *chan }
                    } else {
                        Effect::Halt
                    }
                }
            }
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            match self {
                PingPong::Sender { next, .. } => push_u64(&mut buf, *next),
                PingPong::Receiver { sum, .. } => push_u64(&mut buf, *sum),
            }
            buf
        }
    }

    fn pair(count: u64) -> (Topology, Vec<PingPong>) {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count },
        ];
        (topo, procs)
    }

    /// Fault injection without recovery: [`run_recovering`] with no restart
    /// budget, so the first crash ends the run with its typed error.
    fn injected(count: u64, faults: FaultPlan) -> Result<RecoveryOutcome, RunError> {
        let (topo, procs) = pair(count);
        let cfg = RecoveryConfig { checkpoint_every: u64::MAX, max_restarts: 0 };
        run_recovering(topo, procs, faults, &mut RoundRobin::new(), cfg)
    }

    #[test]
    fn messages_arrive_in_fifo_order() {
        let (topo, procs) = pair(10);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        // The receiver's order-sensitive hash must equal the in-order hash.
        let mut expect: u64 = 0;
        for m in 0..10u64 {
            expect = expect.wrapping_mul(31).wrapping_add(m);
        }
        let mut buf = Vec::new();
        push_u64(&mut buf, expect);
        assert_eq!(out.snapshots[1], buf);
    }

    #[test]
    fn all_policies_agree_on_final_state() {
        let run = |policy: &mut dyn SchedulePolicy| {
            let (topo, procs) = pair(25);
            run_simulated(topo, procs, policy).unwrap()
        };
        let reference = run(&mut RoundRobin::new());
        let outcomes = [
            run(&mut AdversarialPolicy::new(Adversary::LowestFirst)),
            run(&mut AdversarialPolicy::new(Adversary::HighestFirst)),
            run(&mut AdversarialPolicy::new(Adversary::PingPong)),
            run(&mut RandomPolicy::seeded(1)),
            run(&mut RandomPolicy::seeded(2)),
        ];
        for o in &outcomes {
            assert!(reference.same_final_state(o));
        }
    }

    #[test]
    fn lowest_first_maximizes_queueing() {
        // Under LowestFirst the sender (process 0) runs to completion before
        // the receiver ever drains: the queue peaks at the full message count.
        let (topo, procs) = pair(25);
        let out = run_simulated(
            topo,
            procs,
            &mut AdversarialPolicy::new(Adversary::LowestFirst),
        )
        .unwrap();
        assert_eq!(out.max_queued, 25);

        // Round-robin drains as it goes: strictly less buffering.
        let (topo, procs) = pair(25);
        let rr = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert!(rr.max_queued < 25);
    }

    #[test]
    fn recv_from_never_written_channel_deadlocks() {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        // Sender sends nothing; receiver expects one message.
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 0 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 1 },
        ];
        let err = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap_err();
        match err {
            RunError::Deadlock { blocked, cycle } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!((blocked[0].proc, blocked[0].chan), (1, c));
                assert_eq!(blocked[0].kind, BlockKind::Recv);
                assert_eq!(blocked[0].on, 0, "waiting on the channel's writer");
                assert!(cycle.is_empty(), "writer halted: no wait-for cycle");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn bounded_channels_block_senders_but_still_complete_here() {
        // With capacity 1 and an eager sender, the sender blocks between
        // messages; the run still completes because the receiver drains.
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 1));
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 8 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 8 },
        ];
        let out = run_simulated(
            topo,
            procs,
            &mut AdversarialPolicy::new(Adversary::LowestFirst),
        )
        .unwrap();
        assert_eq!(out.max_queued, 1, "capacity bound respected");
    }

    #[test]
    fn step_limit_aborts_long_runs() {
        let (topo, procs) = pair(100);
        let err = Simulator::new(topo, procs)
            .with_step_limit(5)
            .run(&mut RoundRobin::new())
            .unwrap_err();
        assert_eq!(err, RunError::StepLimit { limit: 5 });
    }

    /// Two processes that each send one message to the other and then
    /// receive — the safe "all sends before any receives" ordering of §3.3.
    struct ExchangeOk {
        out: ChannelId,
        inp: ChannelId,
        sent: bool,
        value: f64,
        received: Option<f64>,
    }

    impl Process for ExchangeOk {
        type Msg = f64;
        fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
            if let Some(v) = delivery {
                self.received = Some(v);
                return Effect::Halt;
            }
            if !self.sent {
                self.sent = true;
                Effect::Send { chan: self.out, msg: self.value }
            } else {
                Effect::Recv { chan: self.inp }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            push_f64(&mut buf, self.received.unwrap_or(f64::NAN));
            buf
        }
    }

    #[test]
    fn symmetric_exchange_sends_before_receives_terminates() {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let procs = vec![
            ExchangeOk { out: c01, inp: c10, sent: false, value: 1.0, received: None },
            ExchangeOk { out: c10, inp: c01, sent: false, value: 2.0, received: None },
        ];
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let mut b0 = Vec::new();
        push_f64(&mut b0, 2.0);
        let mut b1 = Vec::new();
        push_f64(&mut b1, 1.0);
        assert_eq!(out.snapshots, vec![b0, b1]);
    }

    /// The *undisciplined* exchange: receive first, then send — the ordering
    /// §3.3 warns against. Fine with infinite slack? No — even with infinite
    /// slack this deadlocks, since neither process ever reaches its send.
    struct ExchangeBad {
        out: ChannelId,
        inp: ChannelId,
        received: Option<f64>,
        value: f64,
        sent: bool,
    }

    impl Process for ExchangeBad {
        type Msg = f64;
        fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
            if let Some(v) = delivery {
                self.received = Some(v);
            }
            if self.received.is_none() {
                return Effect::Recv { chan: self.inp };
            }
            if !self.sent {
                self.sent = true;
                return Effect::Send { chan: self.out, msg: self.value };
            }
            Effect::Halt
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            push_f64(&mut buf, self.received.unwrap_or(f64::NAN));
            buf
        }
    }

    #[test]
    fn receive_before_send_exchange_reports_the_wait_for_cycle() {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let procs = vec![
            ExchangeBad { out: c01, inp: c10, received: None, value: 1.0, sent: false },
            ExchangeBad { out: c10, inp: c01, received: None, value: 2.0, sent: false },
        ];
        let err = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap_err();
        let RunError::Deadlock { blocked, cycle } = err else {
            panic!("expected a typed deadlock");
        };
        assert_eq!(blocked.len(), 2);
        assert_eq!(cycle.len(), 2, "0 waits on 1 waits on 0");
        assert!(cycle.iter().all(|w| w.kind == BlockKind::Recv));
        assert_eq!(cycle[0].on, cycle[1].proc);
        assert_eq!(cycle[1].on, cycle[0].proc);
    }

    #[test]
    fn send_side_deadlock_names_the_cycle_at_slack_one() {
        // Both processes send TWO messages before receiving any, over
        // capacity-1 channels: the second send blocks each process, and the
        // deadlock is on the send side.
        struct TwoSends {
            out: ChannelId,
            inp: ChannelId,
            sent: u64,
            got: u64,
        }
        impl Process for TwoSends {
            type Msg = u64;
            fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
                if delivery.is_some() {
                    self.got += 1;
                }
                if self.sent < 2 {
                    self.sent += 1;
                    return Effect::Send { chan: self.out, msg: self.sent };
                }
                if self.got < 2 {
                    return Effect::Recv { chan: self.inp };
                }
                Effect::Halt
            }
            fn snapshot(&self) -> Vec<u8> {
                let mut buf = Vec::new();
                push_u64(&mut buf, self.got);
                buf
            }
        }
        let mut topo = Topology::new(2);
        let c01 = topo.add(ChannelSpec::bounded(0, 1, 1));
        let c10 = topo.add(ChannelSpec::bounded(1, 0, 1));
        let procs = vec![
            TwoSends { out: c01, inp: c10, sent: 0, got: 0 },
            TwoSends { out: c10, inp: c01, sent: 0, got: 0 },
        ];
        let err = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap_err();
        let RunError::Deadlock { cycle, .. } = err else {
            panic!("expected a typed deadlock");
        };
        assert_eq!(cycle.len(), 2);
        assert!(cycle.iter().all(|w| w.kind == BlockKind::Send));
    }

    #[test]
    fn metrics_profile_a_simple_run() {
        let (topo, procs) = pair(10);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let m = &out.metrics;
        assert_eq!(m.channels[0].messages, 10);
        assert_eq!(m.procs[0].sends, 10);
        assert_eq!(m.procs[1].receives, 10);
        assert_eq!(m.total_messages(), 10);
        assert!(m.max_queue_depth() >= 1);
        assert_eq!(m.max_queue_depth(), out.max_queued, "single channel: marks agree");
        // PingPong messages are u64 but msg_size_bytes is not overridden.
        assert_eq!(m.total_bytes(), 0);
        let json = m.to_json();
        assert!(json.contains("\"messages\":10"));

        // Under HighestFirst the receiver runs first, blocks on the empty
        // channel, and loses scheduling slots while the sender catches up.
        let (topo, procs) = pair(10);
        let out = run_simulated(
            topo,
            procs,
            &mut AdversarialPolicy::new(Adversary::HighestFirst),
        )
        .unwrap();
        assert!(out.metrics.procs[1].blocked_steps > 0);
    }

    #[test]
    fn observer_sees_every_action_with_matching_counts() {
        let (topo, procs) = pair(5);
        let mut events = Vec::new();
        let out = Simulator::new(topo, procs)
            .run_observed(&mut RoundRobin::new(), &mut |e| events.push(e))
            .unwrap();

        let count = |f: &dyn Fn(&FlightEvent) -> bool| events.iter().filter(|e| f(e)).count();
        let sent = count(&|e| e.kind == FlightKind::Send);
        let received = count(&|e| e.kind == FlightKind::Recv);
        let posted = count(&|e| e.kind == FlightKind::Park && e.bytes == 0);
        let halted = count(&|e| e.kind == FlightKind::Halt);
        assert_eq!(sent as u64, out.metrics.total_messages());
        assert_eq!(received as u64, out.metrics.procs[1].receives);
        assert_eq!(posted, received, "every delivery was awaited first");
        assert_eq!(halted, 2);
        // A delivery step reports the delivery and the resumed process's
        // next effect; every other step reports one event.
        assert_eq!(events.len() as u64, out.steps + received as u64);
    }

    #[test]
    fn observer_reports_blocked_sends_on_bounded_channels() {
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 1));
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 3 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 3 },
        ];
        let mut events = Vec::new();
        // LowestFirst drives the sender into the full channel immediately.
        Simulator::new(topo, procs)
            .run_observed(&mut AdversarialPolicy::new(Adversary::LowestFirst), &mut |e| {
                events.push(e)
            })
            .unwrap();
        let blocked = events
            .iter()
            .filter(|e| e.kind == FlightKind::Park && e.rank == 0 && e.bytes == 1)
            .count();
        let sent = events.iter().filter(|e| e.kind == FlightKind::Send).count();
        assert!(blocked >= 1, "capacity-1 channel must block the eager sender");
        assert_eq!(sent, 3, "every blocked send eventually completes as Sent");
    }

    #[test]
    fn fault_effect_aborts_the_run_with_its_error() {
        struct Faulty;
        impl Process for Faulty {
            type Msg = ();
            fn resume(&mut self, _d: Option<()>) -> Effect<()> {
                Effect::Fault {
                    error: RunError::Protocol { proc: 0, detail: "bad message".into() },
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                Vec::new()
            }
        }
        let topo = Topology::new(1);
        let err = run_simulated(topo, vec![Faulty], &mut RoundRobin::new()).unwrap_err();
        assert_eq!(err, RunError::Protocol { proc: 0, detail: "bad message".into() });
    }

    #[test]
    fn injected_crash_aborts_with_typed_error_and_is_consumed() {
        let err = injected(10, FaultPlan::none().crash(0, 3)).unwrap_err();
        assert_eq!(err, RunError::Injected { proc: 0, step: 3 });

        // A fired crash is one-shot: with a budget of one restart the rerun
        // does not meet it again, and matches an entirely uninjected run.
        let (topo, procs) = pair(10);
        let cfg = RecoveryConfig { checkpoint_every: u64::MAX, max_restarts: 1 };
        let faults = FaultPlan::none().crash(0, 3);
        let redo = run_recovering(topo, procs, faults, &mut RoundRobin::new(), cfg).unwrap();
        assert_eq!(redo.stats.restarts, 1);
        let (topo, procs) = pair(10);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert_eq!(redo.snapshots, clean.snapshots);
    }

    #[test]
    fn channel_stalls_delay_delivery_but_never_change_the_final_state() {
        let c = ChannelId(0);
        // Stall the first and the fifth delivery, generously.
        let faults = FaultPlan::none().stall(c, 0, 7).stall(c, 4, 9);
        let stalled = injected(10, faults).expect("stalls must not deadlock or abort");
        let (topo, procs) = pair(10);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert_eq!(stalled.snapshots, clean.snapshots, "Theorem 1: stalls are harmless");
        // The stalled run is a different interleaving (delivery was pushed
        // later), but still maximal.
        assert!(stalled.steps >= clean.steps);
    }

    #[test]
    fn stalls_never_fabricate_a_deadlock_when_only_the_reader_can_move() {
        // Sender finishes everything, then only the receiver remains — and
        // its one pending delivery is stalled "forever". The auto-release
        // rule must let the run complete.
        let faults = FaultPlan::none().stall(ChannelId(0), 0, u64::MAX / 2);
        let out = injected(1, faults).expect("a stall on the only runnable process auto-releases");
        let (topo, procs) = pair(1);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert_eq!(out.snapshots, clean.snapshots);
    }

    #[test]
    fn fingerprint_tracks_state() {
        let (topo, procs) = pair(3);
        let mut sim = Simulator::new(topo, procs);
        let f0 = sim.state_fingerprint(|m| m.to_le_bytes().to_vec());
        // Fingerprints differ once any process steps.
        sim.step_process_with(0, &mut |_| {}).unwrap();
        let f1 = sim.state_fingerprint(|m| m.to_le_bytes().to_vec());
        assert_ne!(f0, f1);
    }

    #[test]
    fn a_port_admits_sends_by_its_gate_not_by_capacity() {
        // Capacity 1, eager sender: as an ordinary channel the second send
        // would block on the full queue.
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 1));
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 3 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 3 },
        ];
        let mut sim = Simulator::new(topo, procs);
        let mut events = Vec::new();

        // A closed port blocks its sender, empty queue or not.
        sim.set_port(c, Some(false));
        sim.step_process_with(0, &mut |e| events.push(e)).unwrap();
        assert_eq!(events, [event(FlightKind::Park, 0, c.0, 1)]);
        assert!(sim.queue(c).is_empty());
        assert!(!sim.is_runnable(0));
        assert_eq!(sim.runnable(), [1], "the receiver may still post its receive");

        // Opening it completes the held send without resuming the process:
        // message 0 lands, message 1 has not been produced yet.
        sim.set_port(c, Some(true));
        assert!(sim.is_runnable(0));
        events.clear();
        sim.step_process_with(0, &mut |e| events.push(e)).unwrap();
        assert_eq!(events, [event(FlightKind::Send, 0, c.0, 0)]);
        assert_eq!(sim.queue(c).iter().copied().collect::<Vec<_>>(), [0]);

        // Capacity is ignored while the channel is a port...
        sim.step_process_with(0, &mut |_| {}).unwrap();
        sim.step_process_with(0, &mut |_| {}).unwrap();
        assert_eq!(sim.queue(c).len(), 3, "an open port outruns capacity 1");
        assert_eq!(sim.metrics().channels[c.0].max_queue_depth, 3);

        // ...and is the rule again once it no longer is one.
        sim.set_port(c, None);
        let out = sim.run(&mut RoundRobin::new()).unwrap();
        let (topo, procs) = pair(3);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert_eq!(out.snapshots, clean.snapshots);
    }
}
