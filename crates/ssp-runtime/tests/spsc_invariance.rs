//! The threaded backend on SPSC rings is *observationally equal* to the
//! simulated backend.
//!
//! Theorem 1 says every maximal fair interleaving of the same deterministic
//! process collection terminates in the same final state. The simulated
//! runner exercises that across six scheduling policies; the threaded
//! runner adds a seventh "policy" — whatever the OS scheduler does, with
//! real lock-free rings instead of a stepped queue vector. This suite pins
//! the two backends together: at slack 1, 4 and unbounded, the threaded
//! final snapshots must be bitwise identical to the simulated reference,
//! and the SPSC path must still produce functional metrics, honor bounded
//! capacity in its queue-depth high-water marks, and surface injected
//! faults as typed errors — one crash key leaving one prefix on every
//! backend.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use ssp_runtime::proc::push_u64;
use ssp_runtime::{
    crashing, run_simulated, run_threaded_with, Adversary, AdversarialPolicy, ChannelId, Crash,
    Effect, Process, RandomPolicy, RoundRobin, RunError, SchedulePolicy, ThreadedConfig, Topology,
};

/// Where an [`Exchanger`] is within its current round.
#[derive(Clone, Copy)]
enum Phase {
    SendLeft,
    SendRight,
    RecvLeft,
    RecvRight,
    EndRound,
    Done,
}

/// One process of a line-topology neighbor exchange following the §3.3
/// discipline: *all* of a round's sends are issued before *any* of its
/// receives, so the program is deadlock-free even at slack 1. The state is
/// an order-sensitive hash of every received value, and outgoing values
/// depend on the state, so any reordering or corruption anywhere in the
/// channel layer changes the final snapshots.
struct Exchanger {
    id: usize,
    rounds: usize,
    round: usize,
    state: u64,
    phase: Phase,
    left_out: Option<ChannelId>,
    right_out: Option<ChannelId>,
    left_in: Option<ChannelId>,
    right_in: Option<ChannelId>,
}

impl Exchanger {
    fn value(&self, dir: u64) -> u64 {
        self.state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((self.id as u64) << 32) ^ ((self.round as u64) << 1) ^ dir)
    }
}

impl Process for Exchanger {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        if let Some(m) = delivery {
            self.state = self.state.wrapping_mul(31).wrapping_add(m);
        }
        loop {
            match self.phase {
                Phase::SendLeft => {
                    self.phase = Phase::SendRight;
                    if let Some(chan) = self.left_out {
                        return Effect::Send { chan, msg: self.value(0) };
                    }
                }
                Phase::SendRight => {
                    self.phase = Phase::RecvLeft;
                    if let Some(chan) = self.right_out {
                        return Effect::Send { chan, msg: self.value(1) };
                    }
                }
                Phase::RecvLeft => {
                    self.phase = Phase::RecvRight;
                    if let Some(chan) = self.left_in {
                        return Effect::Recv { chan };
                    }
                }
                Phase::RecvRight => {
                    self.phase = Phase::EndRound;
                    if let Some(chan) = self.right_in {
                        return Effect::Recv { chan };
                    }
                }
                Phase::EndRound => {
                    self.round += 1;
                    self.phase =
                        if self.round == self.rounds { Phase::Done } else { Phase::SendLeft };
                    return Effect::Compute { units: 1 };
                }
                Phase::Done => return Effect::Halt,
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        push_u64(&mut buf, self.state);
        push_u64(&mut buf, self.round as u64);
        buf
    }

    fn msg_size_bytes(_msg: &u64) -> u64 {
        8
    }
}

fn exchangers(topo: &Topology, n: usize, rounds: usize) -> Vec<Exchanger> {
    (0..n)
        .map(|id| Exchanger {
            id,
            rounds,
            round: 0,
            state: id as u64 + 1,
            phase: Phase::SendLeft,
            left_out: if id > 0 { topo.find(id, id - 1) } else { None },
            left_in: if id > 0 { topo.find(id - 1, id) } else { None },
            right_out: topo.find(id, id + 1),
            right_in: topo.find(id + 1, id),
        })
        .collect()
}

fn policy_battery(seed: u64) -> Vec<Box<dyn SchedulePolicy>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomPolicy::seeded(seed)),
        Box::new(AdversarialPolicy::new(Adversary::LowestFirst)),
        Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
        Box::new(AdversarialPolicy::new(Adversary::PingPong)),
        Box::new(AdversarialPolicy::new(Adversary::Starve(0))),
    ]
}

const WATCHDOG: Duration = Duration::from_secs(10);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At every slack level: the six simulated policies agree with each
    /// other (Theorem 1), the threaded SPSC run agrees with them bitwise,
    /// and the threaded metrics count exactly the traffic the program
    /// defines — with queue-depth high-water marks never exceeding the
    /// bounded capacity.
    #[test]
    fn threaded_spsc_is_bitwise_identical_to_the_simulated_reference(
        n in 2usize..5,
        rounds in 1usize..5,
        seed in 0u64..1000,
    ) {
        for slack in [Some(1), Some(4), None] {
            let topo = Topology::line(n).with_uniform_capacity(slack);

            let mut reference: Option<Vec<Vec<u8>>> = None;
            for policy in policy_battery(seed).iter_mut() {
                let out = run_simulated(
                    topo.clone(),
                    exchangers(&topo, n, rounds),
                    policy.as_mut(),
                )
                .unwrap_or_else(|e| panic!("slack {slack:?}, {}: {e}", policy.name()));
                match &reference {
                    None => reference = Some(out.snapshots),
                    Some(r) => prop_assert_eq!(
                        r,
                        &out.snapshots,
                        "policy {} changed the simulated result at slack {:?}",
                        policy.name(),
                        slack
                    ),
                }
            }
            let reference = reference.unwrap();

            let out = run_threaded_with(
                &topo,
                exchangers(&topo, n, rounds),
                ThreadedConfig::with_watchdog(WATCHDOG),
            )
            .unwrap_or_else(|e| panic!("threaded run at slack {slack:?}: {e}"));
            prop_assert_eq!(
                &reference,
                &out.snapshots,
                "threaded backend diverged from the simulated reference at slack {:?}",
                slack
            );

            // Metrics stay functional on the SPSC path: exactly one message
            // per channel per round, 8 bytes each, depth bounded by slack.
            let messages: u64 = out.metrics.channels.iter().map(|c| c.messages).sum();
            prop_assert_eq!(messages, (2 * (n - 1) * rounds) as u64);
            let bytes: u64 = out.metrics.channels.iter().map(|c| c.bytes).sum();
            prop_assert_eq!(bytes, messages * 8);
            if let Some(cap) = slack {
                for c in &out.metrics.channels {
                    prop_assert!(
                        c.max_queue_depth <= cap,
                        "channel {}→{} reported depth {} above capacity {}",
                        c.writer,
                        c.reader,
                        c.max_queue_depth,
                        cap
                    );
                }
            }
        }
    }
}

/// Fault injection still works on the SPSC path: a crash keyed to a
/// process's own resume count aborts the run with the typed error and
/// wakes every blocked peer instead of hanging.
#[test]
fn injected_crash_surfaces_as_a_typed_error_on_the_spsc_path() {
    let topo = Topology::line(3).with_uniform_capacity(Some(1));
    let procs = crashing(exchangers(&topo, 3, 50), &[Crash { proc: 1, at_step: 7 }]);
    match run_threaded_with(&topo, procs, ThreadedConfig::with_watchdog(WATCHDOG)) {
        Err(RunError::Injected { proc, step }) => {
            assert_eq!(proc, 1);
            assert_eq!(step, 7);
        }
        other => panic!("expected the injected crash, got {other:?}"),
    }
}

/// Every action a [`Recorder`] took, in order: one entry per `resume`.
type Log = Arc<Mutex<Vec<String>>>;

/// Process 0 sends twice, computes, then halts; process 1 computes twice
/// before it first receives, then receives twice and halts. At slack 1 the
/// second send cannot complete before the first receive, so the simulator
/// counts its later completion as a step of process 0 that is no resume.
/// Each resume appends the effect it returns to the process's log.
struct Recorder {
    script: Vec<Effect<u64>>,
    pc: usize,
    sum: u64,
    log: Log,
}

impl Process for Recorder {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        self.sum = self.sum.wrapping_mul(31).wrapping_add(delivery.unwrap_or(0));
        let effect = self.script[self.pc].clone();
        self.pc += 1;
        self.log.lock().unwrap().push(format!("{effect:?}"));
        effect
    }

    fn snapshot(&self) -> Vec<u8> {
        self.sum.to_le_bytes().to_vec()
    }
}

/// The writer–reader pair at `slack`, and the writer's log.
fn recorded_pair(slack: Option<usize>) -> (Topology, Vec<Recorder>, Log) {
    let mut topo = Topology::new(2);
    let chan = topo.connect(0, 1);
    let topo = topo.with_uniform_capacity(slack);
    let compute = Effect::Compute { units: 1 };
    let writer = vec![
        Effect::Send { chan, msg: 7 },
        Effect::Send { chan, msg: 9 },
        compute.clone(),
        Effect::Halt,
    ];
    let reader =
        vec![compute.clone(), compute, Effect::Recv { chan }, Effect::Recv { chan }, Effect::Halt];
    let log = Log::default();
    let procs = [writer, reader]
        .into_iter()
        .enumerate()
        .map(|(id, script)| Recorder {
            script,
            pc: 0,
            sum: 0,
            log: if id == 0 { log.clone() } else { Log::default() },
        })
        .collect();
    (topo, procs, log)
}

/// One crash key on every backend: the same [`Crash`] leaves the same
/// recorded prefix of the crashed process and returns the same typed error
/// on the simulator at slack 1 and unbounded and on the pool at 1, 2 and 4
/// workers, although at slack 1 a blocked send sits before the crash point.
#[test]
fn one_crash_key_leaves_one_prefix_on_every_backend() {
    let crash = Crash { proc: 0, at_step: 4 };
    let injected = RunError::Injected { proc: 0, step: 4 };
    let prefix = [
        "Send { chan: ChannelId(0), msg: 7 }",
        "Send { chan: ChannelId(0), msg: 9 }",
        "Compute { units: 1 }",
    ];

    for slack in [Some(1), None] {
        // The program really blocks at slack 1: the simulator takes one
        // step of the writer that is not a resume.
        let (topo, procs, _) = recorded_pair(slack);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let writer_steps = if slack.is_some() { 5 } else { 4 };
        assert_eq!(clean.metrics.procs[0].steps, writer_steps, "slack {slack:?}");

        for policy in policy_battery(7).iter_mut() {
            let (topo, procs, log) = recorded_pair(slack);
            let err = run_simulated(topo, crashing(procs, &[crash]), policy.as_mut()).unwrap_err();
            let at = format!("simulator, slack {slack:?}, {}", policy.name());
            assert_eq!(err, injected, "{at}");
            assert_eq!(*log.lock().unwrap(), prefix, "{at}");
        }
        for workers in [1, 2, 4] {
            let (topo, procs, log) = recorded_pair(slack);
            let config = ThreadedConfig::with_watchdog(WATCHDOG).with_workers(workers);
            let err = run_threaded_with(&topo, crashing(procs, &[crash]), config).unwrap_err();
            let at = format!("pool, slack {slack:?}, {workers} workers");
            assert_eq!(err, injected, "{at}");
            assert_eq!(*log.lock().unwrap(), prefix, "{at}");
        }
    }
}
