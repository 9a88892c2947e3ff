//! Property-based tests of the discrete-event price: monotone in every
//! machine parameter, fully attributed by the critical path, bounded over
//! concatenated phases, and exact on pure computation.
//!
//! The programs are phase lists: in each phase every rank computes its
//! units, then sends its messages, then receives its messages (all sends
//! before any receive, §3.3), so no program can deadlock.

use machine_model::{ibm_sp, network_of_suns, MachineModel};
use perf_sim::run_des;
use proptest::prelude::*;
use ssp_runtime::{Effect, Process, RoundRobin, Topology};

/// One phase: per-rank work units, then `(src, dst, bytes)` messages.
#[derive(Debug, Clone)]
struct PhaseSpec {
    units: Vec<u64>,
    msgs: Vec<(usize, usize, u64)>,
}

/// A rank's actions in order; a message's value is its size in bytes.
struct Script {
    acts: Vec<Effect<u64>>,
    pc: usize,
    received: u64,
}

impl Process for Script {
    type Msg = u64;
    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        self.received += delivery.unwrap_or(0);
        self.pc += 1;
        self.acts.get(self.pc - 1).cloned().unwrap_or(Effect::Halt)
    }
    fn snapshot(&self) -> Vec<u8> {
        self.received.to_le_bytes().to_vec()
    }
    fn msg_size_bytes(bytes: &u64) -> u64 {
        *bytes
    }
}

/// The per-rank program of `phases` over `n` ranks.
fn program(n: usize, phases: &[PhaseSpec]) -> (Topology, Vec<Script>) {
    let topo = Topology::fully_connected(n);
    let chan = |s, d| topo.find(s, d).expect("fully connected");
    let mut acts: Vec<Vec<Effect<u64>>> = (0..n).map(|_| Vec::new()).collect();
    for ph in phases {
        for (r, &units) in ph.units.iter().enumerate() {
            acts[r].push(Effect::Compute { units });
        }
        for &(s, d, b) in &ph.msgs {
            acts[s].push(Effect::Send { chan: chan(s, d), msg: b });
        }
        for &(s, d, _) in &ph.msgs {
            acts[d].push(Effect::Recv { chan: chan(s, d) });
        }
    }
    let procs = acts.into_iter().map(|acts| Script { acts, pc: 0, received: 0 }).collect();
    (topo, procs)
}

/// The DES makespan of `phases` on `m`.
fn price(m: &MachineModel, n: usize, phases: &[PhaseSpec]) -> f64 {
    let (topo, procs) = program(n, phases);
    run_des(topo, procs, m, &mut RoundRobin::new()).expect("sends precede receives").makespan
}

fn arb_program() -> impl Strategy<Value = (usize, Vec<PhaseSpec>)> {
    (2usize..6, 1usize..8).prop_flat_map(|(n, nphases)| {
        let phase = (
            prop::collection::vec(0u64..1_000_000, n),
            prop::collection::vec((0usize..6, 1usize..6, 1u64..100_000), 0..6),
        )
            .prop_map(move |(units, raw)| {
                // A nonzero offset keeps every message between two ranks.
                let msgs = raw.into_iter().map(|(s, o, b)| (s % n, (s + o % (n - 1) + 1) % n, b));
                PhaseSpec { units, msgs: msgs.collect() }
            });
        prop::collection::vec(phase, nphases).prop_map(move |phases| (n, phases))
    })
}

proptest! {
    /// The price is monotone non-decreasing in each machine parameter:
    /// every span's placement is a max-plus recurrence over costs.
    #[test]
    fn price_monotone_in_parameters(prog in arb_program(), scale in 1.5f64..100.0) {
        let (n, phases) = prog;
        let base = network_of_suns();
        let t0 = price(&base, n, &phases);
        for bumped in [
            MachineModel { t_flop: base.t_flop * scale, ..base },
            MachineModel { alpha: base.alpha * scale, ..base },
            MachineModel { beta: base.beta * scale, ..base },
            MachineModel { o_send: base.o_send * scale, ..base },
            MachineModel { o_recv: base.o_recv * scale, ..base },
        ] {
            prop_assert!(price(&bumped, n, &phases) >= t0);
        }
    }

    /// The critical path attributes the whole price: compute + latency +
    /// bandwidth + blocked is the makespan.
    #[test]
    fn price_decomposes(prog in arb_program()) {
        let (n, phases) = prog;
        for m in [network_of_suns(), ibm_sp()] {
            let (topo, procs) = program(n, &phases);
            let out = run_des(topo, procs, &m, &mut RoundRobin::new()).unwrap();
            let parts = out.critical.breakdown.total();
            prop_assert!((out.makespan - parts).abs() <= 1e-9 * out.makespan.max(1e-30));
        }
    }

    /// Phases overlap on the virtual clock, so a program of two halves
    /// costs at least its dearer half and at most the sum of the halves (a
    /// barrier after every phase).
    #[test]
    fn price_additive_over_phases(prog in arb_program()) {
        let (n, phases) = prog;
        let m = ibm_sp();
        let total = price(&m, n, &phases);
        let cut = phases.len() / 2;
        let (a, b) = (price(&m, n, &phases[..cut]), price(&m, n, &phases[cut..]));
        let slack = 1e-9 * total.max(1e-30);
        prop_assert!(a.max(b) <= total + slack);
        prop_assert!(total <= a + b + slack);
    }

    /// A program with no messages costs exactly its critical rank's compute.
    #[test]
    fn compute_only_traces(n in 1usize..6, units in prop::collection::vec(0u64..1_000_000, 1..5)) {
        let phases: Vec<PhaseSpec> = units
            .iter()
            .map(|u| PhaseSpec { units: (0..n).map(|r| u + r as u64).collect(), msgs: Vec::new() })
            .collect();
        let m = network_of_suns();
        let critical: u64 = units.iter().map(|u| u + n as u64 - 1).sum();
        let expect = critical as f64 * m.t_flop;
        prop_assert!((price(&m, n, &phases) - expect).abs() <= 1e-12 * expect.max(1e-30));
    }
}
