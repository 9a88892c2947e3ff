//! The DES prediction is a *function of the program*, not of the schedule.
//!
//! Extends `crates/mesh/tests/slack.rs` to the virtual-clock backend: under
//! every scheduling policy, at slack 1, 4 and unbounded, the predicted
//! makespan is bit-identical and the final state is bitwise the paper's
//! (Theorem 1). This holds because every span's placement is a causal
//! recurrence over predecessor times, and determinism makes per-process
//! action sequences and per-channel FIFO orders schedule-independent — the
//! policy only changes the order the engine *discovers* the one timed
//! execution in.

use std::sync::Arc;

use machine_model::network_of_suns;
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode, MeshLocal};
use mesh_archetype::plan::InitFn;
use mesh_archetype::{Env, Plan, ReduceAlgo, ReduceOp};
use meshgrid::{Grid3, ProcGrid3};
use perf_sim::run_des;
use proptest::prelude::*;
use ssp_runtime::{
    run_recovering, run_simulated, Adversary, AdversarialPolicy, RandomPolicy,
    RecoveryConfig, RoundRobin, SchedulePolicy,
};

#[derive(Clone)]
struct Relax {
    u: Grid3<f64>,
    next: Grid3<f64>,
    max_abs: f64,
}

impl MeshLocal for Relax {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = meshgrid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&self.max_abs.to_bits().to_le_bytes());
        buf
    }
}

fn init_relax() -> InitFn<Relax> {
    Arc::new(|env: &Env| {
        let (nx, ny, nz) = env.block.extent();
        let block = env.block;
        let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
            let (gi, gj, gk) = block.to_global(i, j, k);
            ((gi * 3 + gj * 5 + gk * 2) % 11) as f64 * 0.25 - 1.0
        });
        Relax { next: u.clone(), u, max_abs: 0.0 }
    })
}

/// A halo-exchange + smooth + reduction loop, with declared flops so the
/// DES charges real compute time.
fn relax_plan(steps: usize) -> Plan<Relax> {
    Plan::builder()
        .loop_n(steps, |b| {
            b.exchange("halo", |l: &mut Relax| &mut l.u)
                .local_with_flops(
                    "smooth",
                    |_, l: &mut Relax| {
                        let (nx, ny, nz) = l.u.extent();
                        for i in 0..nx as isize {
                            for j in 0..ny as isize {
                                for k in 0..nz as isize {
                                    let v = 0.5 * l.u.get(i, j, k)
                                        + (l.u.get(i - 1, j, k) + l.u.get(i + 1, j, k)) * 0.25;
                                    l.next.set(i, j, k, v);
                                }
                            }
                        }
                        std::mem::swap(&mut l.u, &mut l.next);
                    },
                    |_, l| {
                        let (nx, ny, nz) = l.u.extent();
                        (nx * ny * nz * 4) as u64
                    },
                )
                .reduce(
                    "max-abs",
                    ReduceOp::Max,
                    ReduceAlgo::RecursiveDoubling,
                    |_, l: &Relax| {
                        vec![l
                            .u
                            .interior_to_vec()
                            .into_iter()
                            .fold(0.0f64, |m, x| if x.abs() > m { x.abs() } else { m })]
                    },
                    |_, l, v| l.max_abs = v[0],
                )
        })
        .build()
}

/// The plain simulator, the recovery supervisor with nothing to recover
/// from, and the DES are one pick loop, so they count alike — blocked steps
/// included — on a slack-1 run where ranks block.
#[test]
fn every_simulated_path_reports_the_same_metrics() {
    let (plan, init) = (relax_plan(2), init_relax());
    let pg = ProcGrid3::choose((5, 4, 4), 4);
    let build = || build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, Some(1));

    let (topo, procs) = build();
    let simulated = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
    let (topo, procs) = build();
    let cfg = RecoveryConfig::default();
    let recovered = run_recovering(topo, procs, &mut RoundRobin::new(), cfg).unwrap();
    let (topo, procs) = build();
    let des = run_des(topo, procs, &network_of_suns(), &mut RoundRobin::new()).unwrap();

    let blocked: u64 = simulated.metrics.procs.iter().map(|m| m.blocked_steps).sum();
    assert!(blocked > 0, "the program must block for the comparison to mean anything");
    assert_eq!(recovered.metrics, simulated.metrics, "run_recovering");
    assert_eq!(des.metrics, simulated.metrics, "run_des");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All six policy variants at every slack level: the makespan is
    /// bit-identical and the snapshots bitwise equal — and tightening
    /// slack can only slow the prediction down, never change results.
    #[test]
    fn prediction_is_policy_invariant_at_every_slack(
        p in 2usize..5,
        steps in 1usize..3,
        seed in 0u64..1000,
    ) {
        let plan = relax_plan(steps);
        let pg = ProcGrid3::choose((5, 4, 4), p);
        let init = init_relax();
        let model = network_of_suns();

        let mut by_slack: Vec<f64> = Vec::new();
        let mut reference_state: Option<Vec<Vec<u8>>> = None;
        for slack in [Some(1), Some(4), None] {
            let mut makespan: Option<f64> = None;
            for policy in policy_battery(seed).iter_mut() {
                let (topo, procs) = build_msg_processes_with_slack(
                    &plan, pg, &init, HostMode::GridRank0, slack,
                );
                let out = run_des(topo, procs, &model, policy.as_mut())
                    .unwrap_or_else(|e| panic!("slack {slack:?}, {}: {e}", policy.name()));
                match makespan {
                    None => makespan = Some(out.makespan),
                    Some(m) => prop_assert_eq!(
                        m.to_bits(),
                        out.makespan.to_bits(),
                        "policy {} moved the makespan at slack {:?}",
                        policy.name(),
                        slack
                    ),
                }
                match &reference_state {
                    None => reference_state = Some(out.snapshots),
                    Some(r) => prop_assert_eq!(r, &out.snapshots),
                }
            }
            by_slack.push(makespan.unwrap());
        }
        // Slack 1 ≥ slack 4 ≥ unbounded: constraints only ever delay.
        prop_assert!(by_slack[0] >= by_slack[1] - 1e-12 * by_slack[0]);
        prop_assert!(by_slack[1] >= by_slack[2] - 1e-12 * by_slack[1]);
    }
}
