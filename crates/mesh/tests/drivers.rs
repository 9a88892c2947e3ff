//! Cross-driver equivalence tests on a 3-D heat-diffusion mesh program.
//!
//! The program exercises every archetype operation: boundary exchange,
//! grid-op local computation, Max reduction (exact, hence bitwise
//! P-independent), Sum reduction (ordered variant, bitwise P-independent by
//! construction), broadcast, gather and scatter, fixed loops and a
//! replicated-predicate while loop.

use std::sync::Arc;

use mesh_archetype::driver::MeshLocal;
use mesh_archetype::{
    run_msg_simulated, run_msg_threaded, run_seq, run_simpar, try_run_simpar, Contribution, Env,
    Plan, ReduceAlgo, ReduceOp, SumMethod,
};
use mesh_archetype::driver::SimParConfig;
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::{Adversary, AdversarialPolicy, RandomPolicy, RoundRobin, RunError, ThreadedConfig};

/// Local state of the heat program.
struct Heat {
    u: Grid3<f64>,
    unew: Grid3<f64>,
    /// Replicated global: max |u| after the last reduction.
    max_abs: f64,
    /// Replicated global: ordered sum of all cells.
    total: f64,
    /// Host-only: the gathered global field.
    gathered: Option<Grid3<f64>>,
    /// Replicated iteration counter for the while loop.
    sweeps: u64,
}

impl MeshLocal for Heat {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = meshgrid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&self.max_abs.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.total.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.sweeps.to_le_bytes());
        if let Some(g) = &self.gathered {
            buf.extend_from_slice(&meshgrid::io::grid3_to_bytes(g));
        }
        buf
    }
}

fn init_heat(env: &Env) -> Heat {
    let (nx, ny, nz) = env.block.extent();
    // Deterministic initial condition as a function of *global* coordinates,
    // so every partitioning sees the same global field.
    let block = env.block;
    let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
        let (gi, gj, gk) = block.to_global(i, j, k);
        ((gi * 7 + gj * 3 + gk) % 11) as f64 * 0.25 - 1.0
    });
    Heat {
        unew: Grid3::new(nx, ny, nz, 1),
        u,
        max_abs: 0.0,
        total: 0.0,
        gathered: None,
        sweeps: 0,
    }
}

/// One diffusion sweep: unew = 0.5*u + 0.5/6 * sum(neighbors); physical
/// boundary cells keep their value (ghosts at the physical boundary are
/// zero-filled but unused because boundary cells are frozen).
fn sweep(env: &Env, h: &mut Heat) {
    let (nx, ny, nz) = h.u.extent();
    let g = env.pg.n;
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                let (gi, gj, gk) =
                    env.block.to_global(i as usize, j as usize, k as usize);
                let frozen = gi == 0
                    || gj == 0
                    || gk == 0
                    || gi == g.0 - 1
                    || gj == g.1 - 1
                    || gk == g.2 - 1;
                let v = if frozen {
                    h.u.get(i, j, k)
                } else {
                    0.5 * h.u.get(i, j, k)
                        + (0.5 / 6.0)
                            * (h.u.get(i - 1, j, k)
                                + h.u.get(i + 1, j, k)
                                + h.u.get(i, j - 1, k)
                                + h.u.get(i, j + 1, k)
                                + h.u.get(i, j, k - 1)
                                + h.u.get(i, j, k + 1))
                };
                h.unew.set(i, j, k, v);
            }
        }
    }
    std::mem::swap(&mut h.u, &mut h.unew);
}

fn heat_plan(steps: usize) -> Plan<Heat> {
    Plan::builder()
        .loop_n(steps, |b| {
            b.exchange("halo-u", |h: &mut Heat| &mut h.u)
                .local_with_flops("sweep", sweep, |env, _| 9 * env.block.len() as u64)
        })
        .reduce(
            "max-abs",
            ReduceOp::Max,
            ReduceAlgo::RecursiveDoubling,
            |_, h: &Heat| {
                vec![h
                    .u
                    .interior_to_vec()
                    .into_iter()
                    .fold(0.0f64, |m, x| m.max(x.abs()))]
            },
            |_, h, v| h.max_abs = v[0],
        )
        .ordered_reduce(
            "total",
            1,
            SumMethod::Naive,
            |env, h: &Heat| {
                let (gx, gy) = (env.pg.n.0 as u64, env.pg.n.1 as u64);
                let _ = (gx, gy);
                let block = env.block;
                let (nx, ny, nz) = h.u.extent();
                let gn = env.pg.n;
                let mut out = Vec::with_capacity(nx * ny * nz);
                for i in 0..nx {
                    for j in 0..ny {
                        for k in 0..nz {
                            let (gi, gj, gk) = block.to_global(i, j, k);
                            out.push(Contribution {
                                bin: 0,
                                order: ((gi * gn.1 + gj) * gn.2 + gk) as u64,
                                value: h.u.get(i as isize, j as isize, k as isize),
                            });
                        }
                    }
                }
                out
            },
            |_, h, v| h.total = v[0],
        )
        .broadcast(
            "sync-total",
            0,
            |_, h: &Heat| vec![h.total],
            |_, h, v| h.total = v[0],
        )
        .gather_grid(
            "gather-u",
            |h: &mut Heat| &mut h.u,
            |h, g| h.gathered = Some(g.clone()),
        )
        .build()
}

const N: (usize, usize, usize) = (10, 9, 8);

#[test]
fn simpar_matches_sequential_bitwise_on_fields() {
    let plan = heat_plan(6);
    let seq = run_seq(&plan, N, init_heat);
    for p in [2usize, 3, 4, 6, 8] {
        let pg = ProcGrid3::choose(N, p);
        let mut out = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
        let global = out.assemble_global(&pg, |h| &mut h.u);
        // Stencil results are bitwise P-independent: every cell is computed
        // from the same values by the same expression.
        let seq_u = seq.u.clone();
        let seq_global = {
            let mut g = Grid3::new(N.0, N.1, N.2, 0);
            let v = seq_u.interior_to_vec();
            g.interior_from_slice(&v);
            g
        };
        assert!(global.interior_bitwise_eq(&seq_global), "field diverged at P={p}");
        // Max reduction is exact; ordered sum is order-fixed: both equal.
        for h in &out.locals {
            assert_eq!(h.max_abs.to_bits(), seq.max_abs.to_bits(), "max at P={p}");
            assert_eq!(h.total.to_bits(), seq.total.to_bits(), "total at P={p}");
        }
        // Host gathered the same global field.
        let gathered = out.locals[0].gathered.as_ref().expect("host gathered");
        assert!(gathered.interior_bitwise_eq(&seq_global));
    }
}

#[test]
fn msg_simulated_matches_simpar_bitwise_under_many_interleavings() {
    let plan = heat_plan(4);
    for p in [2usize, 4, 5] {
        let pg = ProcGrid3::choose(N, p);
        let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
        let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);

        let mut policies: Vec<Box<dyn ssp_runtime::SchedulePolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(AdversarialPolicy::new(Adversary::LowestFirst)),
            Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
            Box::new(AdversarialPolicy::new(Adversary::PingPong)),
            Box::new(RandomPolicy::seeded(11)),
            Box::new(RandomPolicy::seeded(12)),
        ];
        for policy in policies.iter_mut() {
            let out = run_msg_simulated(&plan, pg, &init, policy.as_mut())
                .unwrap_or_else(|e| panic!("P={p} {}: {e}", policy.name()));
            assert_eq!(
                out.snapshots,
                simpar.snapshots,
                "P={p} policy={} diverged from simulated-parallel",
                policy.name()
            );
        }
    }
}

#[test]
fn msg_threaded_matches_simpar_bitwise() {
    let plan = heat_plan(3);
    let pg = ProcGrid3::choose(N, 4);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
    let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);
    // "On the first and every execution."
    for _ in 0..3 {
        let snaps = run_msg_threaded(&plan, pg, &init).unwrap();
        assert_eq!(snaps, simpar.snapshots);
    }
}

#[test]
fn while_loop_agrees_across_drivers() {
    // Iterate sweeps until the replicated counter reaches 5. The counter is
    // bumped in a local step on every rank identically.
    let plan: Plan<Heat> = Plan::builder()
        .while_loop(
            "until-5-sweeps",
            |h: &Heat| h.sweeps < 5,
            100,
            |b| {
                b.exchange("halo-u", |h: &mut Heat| &mut h.u)
                    .local("sweep+count", |env, h| {
                        sweep(env, h);
                        h.sweeps += 1;
                    })
            },
        )
        .build();
    let pg = ProcGrid3::choose(N, 4);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
    for l in &simpar.locals {
        assert_eq!(l.sweeps, 5);
    }
    let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}

#[test]
fn reduce_driven_while_loop_agrees_across_drivers() {
    // §4.2: "looping based on a variable whose value is the result of a
    // reduction" — the Max reduction is exact, so every rank sees the same
    // replicated residual and the data-dependent trip count is identical
    // in every driver.
    let plan: Plan<Heat> = Plan::builder()
        .local("arm", |_, h: &mut Heat| h.max_abs = f64::INFINITY)
        .while_loop(
            "until-cool",
            |h: &Heat| h.max_abs > 0.5,
            1_000,
            |b| {
                b.exchange("halo-u", |h: &mut Heat| &mut h.u)
                    .local("sweep+damp", |env, h| {
                        sweep(env, h);
                        h.sweeps += 1;
                        // Damping so the field actually decays to the
                        // threshold.
                        let (nx, ny, nz) = h.u.extent();
                        for i in 0..nx as isize {
                            for j in 0..ny as isize {
                                for k in 0..nz as isize {
                                    h.u.set(i, j, k, h.u.get(i, j, k) * 0.9);
                                }
                            }
                        }
                    })
                    .reduce(
                        "max-abs",
                        ReduceOp::Max,
                        ReduceAlgo::RecursiveDoubling,
                        |_, h: &Heat| {
                            vec![h
                                .u
                                .interior_to_vec()
                                .into_iter()
                                .fold(0.0f64, |m, x| m.max(x.abs()))]
                        },
                        |_, h, v| h.max_abs = v[0],
                    )
            },
        )
        .build();
    let pg = ProcGrid3::choose(N, 6);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
    let sweeps = simpar.locals[0].sweeps;
    assert!(sweeps > 0, "loop must run at least once");
    for l in &simpar.locals {
        assert_eq!(l.sweeps, sweeps, "trip count replicated");
        assert!(l.max_abs <= 0.5, "converged");
    }
    // Sequential (P=1) takes the same data-dependent number of sweeps.
    let seq = run_seq(&plan, N, init_heat);
    assert_eq!(seq.sweeps, sweeps);
    // Message passing matches bitwise.
    let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);
    let msg = run_msg_simulated(&plan, pg, &init, &mut RandomPolicy::seeded(21)).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}

#[test]
fn diverged_predicate_is_reported_by_simpar() {
    // A deliberately wrong program: the predicate depends on the rank.
    let plan: Plan<Heat> = Plan::builder()
        .local("mark", |env, h: &mut Heat| h.sweeps = env.rank as u64)
        .while_loop(
            "broken",
            |h: &Heat| h.sweeps == 0,
            3,
            |b| b.local("bump", |_, h| h.sweeps += 10),
        )
        .build();
    let pg = ProcGrid3::choose(N, 4);
    let err = try_run_simpar(&plan, pg, SimParConfig::default(), init_heat).err();
    let detail = "broken: the ranks disagree on the predicate";
    assert_eq!(err, Some(RunError::Protocol { proc: 0, detail: detail.into() }));
    // The grouped program with every rank in one process sees the same
    // disagreement and names it the same way.
    let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);
    let cfg = ThreadedConfig::default().with_workers(1);
    let err = mesh_archetype::run_msg_threaded_slack(&plan, pg, &init, None, cfg).err();
    assert!(
        matches!(&err, Some(RunError::Protocol { detail: d, .. }) if d == detail),
        "{err:?}"
    );
}

#[test]
fn scatter_distributes_host_grid() {
    // Host builds a global ramp; scatter writes each rank's block; gather
    // brings it back; the round trip must be exact.
    fn ramp(n: (usize, usize, usize)) -> Grid3<f64> {
        Grid3::from_fn(n.0, n.1, n.2, 0, |i, j, k| (i * 10000 + j * 100 + k) as f64)
    }
    let plan: Plan<Heat> = Plan::builder()
        .scatter_grid("scatter", |_| ramp(N), |h: &mut Heat| &mut h.u)
        .gather_grid("gather", |h: &mut Heat| &mut h.u, |h, g| h.gathered = Some(g.clone()))
        .build();
    let pg = ProcGrid3::choose(N, 6);
    let out = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
    let got = out.locals[0].gathered.as_ref().unwrap();
    assert!(got.interior_bitwise_eq(&ramp(N)));

    let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);
    let msg = run_msg_simulated(&plan, pg, &init, &mut RandomPolicy::seeded(3)).unwrap();
    assert_eq!(msg.snapshots, out.snapshots);
}

#[test]
fn trace_accounts_messages_and_flops() {
    let plan = heat_plan(2);
    let pg = ProcGrid3::new(N, (2, 1, 1));
    let out = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
    let t = &out.trace;
    assert_eq!(t.nprocs, 2);
    // 2 iterations × (1 exchange + 1 sweep) + reduce + ordered + bcast + gather.
    assert_eq!(t.phases.len(), 2 * 2 + 4);
    // Each exchange on a 2-rank split: 2 messages of one 9x8 face each.
    let ex: Vec<_> = t.phases.iter().filter(|p| p.name == "halo-u").collect();
    assert_eq!(ex.len(), 2);
    for e in ex {
        assert_eq!(e.msgs.len(), 2);
        assert!(e.msgs.iter().all(|m| m.bytes == 8 * 9 * 8));
    }
    // Sweep flops: 9 flops/cell × cells per rank.
    let sw = t.phases.iter().find(|p| p.name == "sweep").unwrap();
    assert_eq!(sw.flops[0] + sw.flops[1], 9 * (N.0 * N.1 * N.2) as u64);
    assert!(t.total_flops() > 0);
}

#[test]
fn reduce_algorithms_agree_across_drivers_even_when_inexact() {
    // A Sum reduction whose result differs between algorithms (order!) but
    // must be identical between simpar and msg for the *same* algorithm.
    for algo in [ReduceAlgo::AllToOne, ReduceAlgo::RecursiveDoubling] {
        let plan: Plan<Heat> = Plan::builder()
            .reduce(
                "sum-cells",
                ReduceOp::Sum,
                algo,
                |_, h: &Heat| vec![h.u.interior_to_vec().iter().sum::<f64>()],
                |_, h, v| h.total = v[0],
            )
            .build();
        let pg = ProcGrid3::choose(N, 5);
        let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_heat);
        let init: mesh_archetype::plan::InitFn<Heat> = Arc::new(init_heat);
        let msg = run_msg_simulated(&plan, pg, &init, &mut RandomPolicy::seeded(9)).unwrap();
        assert_eq!(msg.snapshots, simpar.snapshots, "algo={algo:?}");
    }
}
