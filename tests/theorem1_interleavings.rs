//! Experiment E5 at the umbrella level: Theorem 1 across the whole stack —
//! the FDTD message-passing program, the transformed IR programs, and the
//! model-assumption boundary (what goes wrong *outside* the theorem's
//! hypotheses).

use std::sync::Arc;

use archetypes::core::stencil::{partition, seed_initial, StencilSpec};
use archetypes::core::theorem::{enumerate_interleavings, policy_battery_agree};
use archetypes::core::{to_parallel, Store};
use archetypes::fdtd::par::{init_a, plan_a};
use archetypes::fdtd::Params;
use archetypes::grid::ProcGrid3;
use archetypes::mesh::driver::{run_simpar, SimParConfig};
use archetypes::mesh::{run_msg_simulated, run_msg_threaded};
use archetypes::runtime::{
    Adversary, AdversarialPolicy, ChannelId, ChannelSpec, Effect, Process, RoundRobin,
    RunError, Simulator, Topology,
};

#[test]
fn fdtd_message_passing_equals_simpar_under_adversaries_and_threads() {
    let mut params = Params::tiny();
    params.steps = 6;
    let params = Arc::new(params);
    let plan = plan_a(&params);
    let pg = ProcGrid3::choose(params.n, 6);
    let init = init_a(params.clone());
    let cfg = SimParConfig::default();
    let simpar = run_simpar(&plan, pg, cfg, |e| init(e));

    for strategy in [
        Adversary::LowestFirst,
        Adversary::HighestFirst,
        Adversary::PingPong,
        Adversary::Starve(0),
        Adversary::Starve(3),
    ] {
        let out =
            run_msg_simulated(&plan, pg, &init, &mut AdversarialPolicy::new(strategy))
                .unwrap();
        assert_eq!(out.snapshots, simpar.snapshots, "{strategy:?}");
    }
    for _ in 0..5 {
        assert_eq!(run_msg_threaded(&plan, pg, &init).unwrap(), simpar.snapshots);
    }
}

#[test]
fn full_interleaving_space_of_a_transformed_program_is_confluent() {
    let spec = StencilSpec { n: 3, steps: 1, a: 0.5, b: 0.25, c: 0.25 };
    let pp = to_parallel(&partition(&spec, 3)).unwrap();
    let mut store = Store::new();
    seed_initial(&spec, 3, |i| i as f64 * 1.5)(&mut store);
    let r = enumerate_interleavings(&pp, &store, 5_000_000).unwrap();
    assert!(!r.truncated);
    assert!(r.interleavings > 1);
    assert_eq!(r.final_state, policy_battery_agree(&pp, &store, 4).unwrap());
}

/// Two processes that each RECEIVE before sending — the ordering §3.3
/// forbids. Outside the transformation's discipline, the system deadlocks;
/// the simulated runner detects it.
struct RecvFirst {
    inp: ChannelId,
    out: ChannelId,
    got: Option<f64>,
    sent: bool,
}

impl Process for RecvFirst {
    type Msg = f64;
    fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
        if let Some(v) = delivery {
            self.got = Some(v);
        }
        if self.got.is_none() {
            return Effect::Recv { chan: self.inp };
        }
        if !self.sent {
            self.sent = true;
            return Effect::Send { chan: self.out, msg: 1.0 };
        }
        Effect::Halt
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![u8::from(self.got.is_some())]
    }
}

#[test]
fn receive_before_send_ordering_deadlocks_motivating_the_rule() {
    let mut topo = Topology::new(2);
    let c01 = topo.connect(0, 1);
    let c10 = topo.connect(1, 0);
    let procs = vec![
        RecvFirst { inp: c10, out: c01, got: None, sent: false },
        RecvFirst { inp: c01, out: c10, got: None, sent: false },
    ];
    let err = Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap_err();
    assert!(matches!(err, RunError::Deadlock { .. }), "got {err:?}");
}

/// A sender that floods `count` messages before its partner reads any —
/// legal *only* because channels have infinite slack. With a bounded
/// channel and a receiver that never drains until after its own sends, the
/// theorem's hypotheses are violated and the system deadlocks.
struct Flooder {
    out: ChannelId,
    inp: ChannelId,
    to_send: u64,
    to_recv: u64,
}

impl Process for Flooder {
    type Msg = f64;
    fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
        if delivery.is_some() {
            self.to_recv -= 1;
        }
        if self.to_send > 0 {
            self.to_send -= 1;
            return Effect::Send { chan: self.out, msg: 0.0 };
        }
        if self.to_recv > 0 {
            return Effect::Recv { chan: self.inp };
        }
        Effect::Halt
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![0]
    }
}

#[test]
fn infinite_slack_is_a_load_bearing_hypothesis() {
    // Unbounded: fine.
    let build = |capacity: Option<usize>| {
        let mut topo = Topology::new(2);
        let spec = |w, r| match capacity {
            None => ChannelSpec::unbounded(w, r),
            Some(k) => ChannelSpec::bounded(w, r, k),
        };
        let c01 = topo.add(spec(0, 1));
        let c10 = topo.add(spec(1, 0));
        let procs = vec![
            Flooder { out: c01, inp: c10, to_send: 10, to_recv: 10 },
            Flooder { out: c10, inp: c01, to_send: 10, to_recv: 10 },
        ];
        Simulator::new(topo, procs)
    };
    build(None).run(&mut RoundRobin::new()).expect("infinite slack terminates");
    // Capacity 2 with both sides flooding 10 before draining: deadlock.
    let err = build(Some(2)).run(&mut RoundRobin::new()).unwrap_err();
    assert!(matches!(err, RunError::Deadlock { .. }), "got {err:?}");
}
