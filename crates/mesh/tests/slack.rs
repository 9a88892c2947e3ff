//! Bounded-slack properties of the message-passing driver.
//!
//! The paper's model gives every channel infinite slack; the runtime now
//! supports a finite bound. Two things must hold for plans compiled with
//! the §3.3 sends-before-receives discipline:
//!
//! 1. they stay **deadlock-free at slack = 1** under any scheduling policy
//!    (the strictest admissible bound — every send may block until its
//!    matching receive);
//! 2. the final state is **bitwise identical** at slack 1, slack 4 and
//!    unbounded — slack changes scheduling freedom, never results
//!    (Theorem 1 with a smaller set of maximal interleavings).

use std::sync::Arc;

use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode, MeshLocal, SimParConfig};
use mesh_archetype::plan::InitFn;
use mesh_archetype::{
    run_msg_simulated, run_msg_threaded_slack, try_run_simpar, Env, Plan, ReduceAlgo, ReduceOp,
};
use meshgrid::{Grid3, ProcGrid3};
use proptest::prelude::*;
use ssp_runtime::{
    Adversary, AdversarialPolicy, RandomPolicy, RoundRobin, RunError, RunOutcome, SchedulePolicy,
    Simulator, ThreadedConfig,
};

/// The per-rank program on the simulator, every channel's slack bounded to
/// `slack`.
fn simulate(
    plan: &Plan<Relax>,
    pg: ProcGrid3,
    init: &InitFn<Relax>,
    slack: Option<usize>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    let (topo, procs) = build_msg_processes_with_slack(plan, pg, init, HostMode::GridRank0, slack);
    Simulator::new(topo, procs).run(policy)
}

struct Relax {
    u: Grid3<f64>,
    next: Grid3<f64>,
    /// Replicated global refreshed by a reduction each round.
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
            ((gi * 5 + gj * 2 + gk) % 7) as f64 * 0.5 - 1.5
        });
        Relax { next: u.clone(), u, max_abs: 0.0 }
    })
}

fn relax_plan(steps: usize, algo: ReduceAlgo) -> Plan<Relax> {
    Plan::builder()
        .loop_n(steps, |b| {
            b.exchange("halo", |l: &mut Relax| &mut l.u)
                .local("relax", |env, l: &mut Relax| {
                    let (nx, ny, nz) = l.u.extent();
                    let g = env.pg.n;
                    for i in 0..nx as isize {
                        for j in 0..ny as isize {
                            for k in 0..nz as isize {
                                let (gi, gj, gk) = env.block.to_global(
                                    i as usize, j as usize, k as usize,
                                );
                                let edge = gi == 0
                                    || gj == 0
                                    || gk == 0
                                    || gi == g.0 - 1
                                    || gj == g.1 - 1
                                    || gk == g.2 - 1;
                                let v = if edge {
                                    l.u.get(i, j, k)
                                } else {
                                    0.4 * l.u.get(i, j, k)
                                        + 0.1
                                            * (l.u.get(i - 1, j, k)
                                                + l.u.get(i + 1, j, k)
                                                + l.u.get(i, j - 1, k)
                                                + l.u.get(i, j + 1, k)
                                                + l.u.get(i, j, k - 1)
                                                + l.u.get(i, j, k + 1))
                                };
                                l.next.set(i, j, k, v);
                            }
                        }
                    }
                    std::mem::swap(&mut l.u, &mut l.next);
                })
                .reduce(
                    "max-abs",
                    ReduceOp::Max,
                    algo,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §3.3-disciplined plans run to the same bitwise final state at
    /// slack 1, slack 4 and unbounded — and never deadlock at slack 1.
    #[test]
    fn random_plans_agree_bitwise_across_slack(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 4usize..7,
        p in 1usize..7,
        steps in 1usize..4,
        algo_idx in 0usize..2,
    ) {
        let algo = [ReduceAlgo::AllToOne, ReduceAlgo::RecursiveDoubling][algo_idx];
        let plan = relax_plan(steps, algo);
        let pg = ProcGrid3::choose((nx, ny, nz), p);
        let init = init_relax();
        let slacks = [Some(1), Some(4), None];
        let outs: Vec<_> = slacks
            .iter()
            .map(|&s| {
                simulate(&plan, pg, &init, s, &mut RoundRobin::new())
                    .unwrap_or_else(|e| panic!("slack {s:?} failed: {e}"))
            })
            .collect();
        prop_assert_eq!(&outs[0].snapshots, &outs[2].snapshots, "slack 1 vs unbounded");
        prop_assert_eq!(&outs[1].snapshots, &outs[2].snapshots, "slack 4 vs unbounded");
        // Bounded runs respect their bound.
        prop_assert!(outs[0].metrics.max_queue_depth() <= 1);
        prop_assert!(outs[1].metrics.max_queue_depth() <= 4);
    }

    /// Deadlock freedom at slack 1 holds under every scheduling policy we
    /// can throw at it, and every policy produces the same snapshots.
    #[test]
    fn slack_one_is_deadlock_free_under_any_policy(
        p in 2usize..7,
        seed in 0u64..200,
    ) {
        let plan = relax_plan(2, ReduceAlgo::RecursiveDoubling);
        let pg = ProcGrid3::choose((6, 5, 4), p);
        let init = init_relax();
        let mut policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomPolicy::seeded(seed)),
            Box::new(AdversarialPolicy::new(Adversary::LowestFirst)),
            Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
            Box::new(AdversarialPolicy::new(Adversary::PingPong)),
            Box::new(AdversarialPolicy::new(Adversary::Starve(0))),
        ];
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for policy in policies.iter_mut() {
            let out = simulate(&plan, pg, &init, Some(1), policy.as_mut())
                .unwrap_or_else(|e| panic!("policy {} failed: {e}", policy.name()));
            match &reference {
                None => reference = Some(out.snapshots),
                Some(r) => prop_assert_eq!(r, &out.snapshots),
            }
        }
    }
}

/// The bounded run's metrics give the Figure-2-style communication profile:
/// per-channel counts/bytes/depths, dumpable as JSON.
#[test]
fn bounded_run_exposes_a_communication_profile() {
    let plan = relax_plan(3, ReduceAlgo::AllToOne);
    let pg = ProcGrid3::choose((6, 6, 5), 4);
    let init = init_relax();
    let out = simulate(&plan, pg, &init, Some(2), &mut RoundRobin::new()).unwrap();
    let m = &out.metrics;
    assert!(m.total_messages() > 0, "exchanges and reductions moved messages");
    assert!(m.total_bytes() > 0, "halo slabs are priced (8 bytes per f64)");
    assert!(m.max_queue_depth() <= 2, "the slack bound is respected");
    let json = m.to_json();
    for key in ["\"channels\"", "\"procs\"", "\"total_messages\"", "\"max_queue_depth\""] {
        assert!(json.contains(key), "profile JSON has {key}: {json}");
    }
}

/// The real-thread execution at slack 1 (every send may block) reaches the
/// same bitwise final state as the simulated one, under a watchdog that
/// must not fire.
#[test]
fn threaded_run_at_slack_one_matches_the_simulated_run() {
    let plan = relax_plan(2, ReduceAlgo::AllToOne);
    let pg = ProcGrid3::choose((5, 5, 4), 4);
    let init = init_relax();
    let sim = simulate(&plan, pg, &init, Some(1), &mut RoundRobin::new()).unwrap();
    let cfg = ThreadedConfig::with_watchdog(std::time::Duration::from_secs(10));
    let out = run_msg_threaded_slack(&plan, pg, &init, Some(1), cfg).unwrap();
    assert_eq!(out.snapshots, sim.snapshots, "Theorem 1 across executions and slack");
    assert!(out.metrics.max_queue_depth() <= 1);
}

/// A mis-sized gather is the same typed error from the simulated-parallel
/// driver as from the message-passing one: the host names the offending
/// rank and both lengths.
#[test]
fn mis_sized_gather_is_a_typed_error() {
    struct Bad {
        u: Grid3<f64>,
    }
    impl MeshLocal for Bad {
        fn snapshot_bytes(&self) -> Vec<u8> {
            meshgrid::io::grid3_to_bytes(&self.u)
        }
    }
    let plan: Plan<Bad> = Plan::builder()
        .gather_grid("collect", |l: &mut Bad| &mut l.u, |_, _| {})
        .build();
    let pg = ProcGrid3::choose((6, 6, 6), 4);
    // Every rank allocates a 2x2x2 field regardless of its block.
    let init: InitFn<Bad> = Arc::new(|_| Bad { u: Grid3::new(2, 2, 2, 0) });
    let err = try_run_simpar(&plan, pg, SimParConfig::default(), |e| init(e)).err();
    let holds = pg.block(0).len();
    let detail = format!("gather block from rank 0 carries 8 values, its block holds {holds}");
    assert_eq!(err, Some(RunError::Protocol { proc: 0, detail }));
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).err();
    assert_eq!(msg, err);
}

/// A scatter whose source is not the global grid is the same protocol fault
/// naming the scatter from the simulated-parallel and the message-passing
/// driver.
#[test]
fn mis_sized_scatter_source_is_a_typed_error() {
    let plan: Plan<Relax> = Plan::builder()
        .scatter_grid("load", |_| Grid3::new(2, 2, 2, 0), |l: &mut Relax| &mut l.u)
        .build();
    let pg = ProcGrid3::choose((6, 6, 6), 2);
    let init = init_relax();
    let err = try_run_simpar(&plan, pg, SimParConfig::default(), |e| init(e)).err().unwrap();
    let detail = "scatter load: source grid extent (2, 2, 2), expected (6, 6, 6)";
    assert_eq!(err, RunError::Protocol { proc: 0, detail: detail.into() });
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap_err();
    assert_eq!(msg, err);
}

/// A rank whose scatter target is not sized to its block: the rank names
/// the scatter and both lengths, on either driver.
#[test]
fn mis_sized_scatter_target_is_a_typed_error() {
    let plan: Plan<Relax> = Plan::builder()
        .scatter_grid("load", |_| Grid3::new(6, 6, 6, 0), |l: &mut Relax| &mut l.next)
        .build();
    let pg = ProcGrid3::choose((6, 6, 6), 2);
    let relax = init_relax();
    // Rank 1's target is one cell short along z.
    let init: InitFn<Relax> = Arc::new(move |e: &Env| {
        let mut l = relax(e);
        if e.rank == 1 {
            let (nx, ny, nz) = e.block.extent();
            l.next = Grid3::new(nx, ny, nz - 1, 1);
        }
        l
    });
    let err = try_run_simpar(&plan, pg, SimParConfig::default(), |e| init(e)).err().unwrap();
    let n = pg.block(1).len();
    let holds = n - n / pg.block(1).extent().2;
    let detail =
        format!("scatter load: block carries {n} values, the field interior holds {holds}");
    assert_eq!(err, RunError::Protocol { proc: 1, detail });
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap_err();
    assert_eq!(msg, err);
}

/// A while loop that outruns its `max_iters` budget: every driver stops
/// with a protocol fault naming the loop, not a panic, and the
/// simulated-parallel driver's is the simulated message-passing run's.
#[test]
fn exhausted_while_budget_is_a_protocol_fault_naming_the_loop() {
    let plan: Plan<Relax> = Plan::builder()
        .while_loop("forever", |_| true, 3, |b| b.local("spin", |_, _: &mut Relax| {}))
        .build();
    let pg = ProcGrid3::choose((6, 6, 6), 2);
    let init = init_relax();
    let budget_fault = |e: &RunError| {
        matches!(e, RunError::Protocol { detail, .. } if detail == "forever: exceeded max_iters 3")
    };
    let simpar = try_run_simpar(&plan, pg, SimParConfig::default(), |e| init(e)).err().unwrap();
    assert!(budget_fault(&simpar), "simulated-parallel: {simpar}");
    let err = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap_err();
    assert_eq!(err, simpar);
    let cfg = ThreadedConfig::default();
    let err = run_msg_threaded_slack(&plan, pg, &init, None, cfg).unwrap_err();
    assert!(budget_fault(&err), "threaded: {err}");
}
