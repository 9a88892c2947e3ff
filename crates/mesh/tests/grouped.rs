//! The grouped placement is one more maximal interleaving of the same
//! program: for every phase kind and both host modes, the program placed on
//! W ∈ {1, 2, 3, P} processes equals the per-rank program on the simulator
//! bitwise — on the simulator under six policies, on the discrete-event
//! engine and on the pool, at slack {1, ∞}.
//!
//! `Placement::groups` cuts the ranks into W processes of contiguous ranks,
//! W clamped to `1..=` the rank count; on these small grids it is also the
//! placement a pool of W < P workers gives `run_msg_threaded_slack`
//! (`Placement::pool`). Each plan below moves data with one phase kind and
//! feeds the result back into the field, so a group that performed any
//! assignment in another order — or skipped one — would show. The plan
//! whose sweeps are declared cellwise runs fused: each group's ranks that
//! tile a box are one section.

use std::sync::Arc;
use std::time::Duration;

use machine_model::network_of_suns;
use mesh_archetype::driver::{compile, HostMode, MeshLocal, Placement, SimParConfig};
use mesh_archetype::plan::InitFn;
use mesh_archetype::{
    run_simpar, Contribution, Env, ExchangeSpec, Plan, PlanBuilder, ReduceAlgo, ReduceOp,
    SumMethod,
};
use meshgrid::halo::{Face3, FaceSet3};
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::policy::standard_battery;
use ssp_runtime::{run_threaded_with, RoundRobin, Simulator, ThreadedConfig};

const N: (usize, usize, usize) = (8, 6, 5);

/// Two exchanged fields and the replicated results of the collectives.
struct G {
    u: Grid3<f64>,
    v: Grid3<f64>,
    /// Every reduction, ordered reduction and broadcast result, in order.
    results: Vec<f64>,
    /// Host only: the gathered field.
    gathered: Option<Grid3<f64>>,
    /// The while loop's replicated residual and sweep count.
    resid: f64,
    sweeps: u64,
}

impl MeshLocal for G {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = meshgrid::io::grid3_to_bytes(&self.u);
        out.extend(meshgrid::io::grid3_to_bytes(&self.v));
        for x in self.results.iter().chain([&self.resid]) {
            out.extend(x.to_bits().to_le_bytes());
        }
        out.extend(self.sweeps.to_le_bytes());
        if let Some(g) = &self.gathered {
            out.extend(meshgrid::io::grid3_to_bytes(g));
        }
        out
    }

    fn cut(&self, whole: &Env, member: &Env) -> Option<Self> {
        let at = member.block.within(&whole.block);
        Some(G {
            u: self.u.sub_grid(&at),
            v: self.v.sub_grid(&at),
            results: self.results.clone(),
            gathered: self.gathered.clone(),
            resid: self.resid,
            sweeps: self.sweeps,
        })
    }
}

fn value(gi: usize, gj: usize, gk: usize) -> f64 {
    1.0 + ((gi * 7 + gj * 3 + gk) % 11) as f64 * 0.37
}

fn init() -> InitFn<G> {
    Arc::new(|env: &Env| {
        let (nx, ny, nz) = env.block.extent();
        let b = env.block;
        let at = |i, j, k| {
            let (gi, gj, gk) = b.to_global(i, j, k);
            value(gi, gj, gk)
        };
        G {
            u: Grid3::from_fn(nx, ny, nz, 1, at),
            v: Grid3::from_fn(nx, ny, nz, 1, |i, j, k| -at(i, j, k)),
            results: Vec::new(),
            gathered: None,
            resid: f64::INFINITY,
            sweeps: 0,
        }
    })
}

/// Every interior cell of `g`.
fn cells(g: &Grid3<f64>) -> impl Iterator<Item = (isize, isize, isize)> {
    let (nx, ny, nz) = g.extent();
    let (nx, ny, nz) = (nx as isize, ny as isize, nz as isize);
    (0..nx).flat_map(move |i| (0..ny).flat_map(move |j| (0..nz).map(move |k| (i, j, k))))
}

/// `u ← u/2 + (its six neighbours)/12 + (v's XHi, YLo, ZHi neighbours)/24`:
/// reads every ghost the exchanges below refresh. Returns the largest
/// change.
fn mix(_: &Env, l: &mut G) -> f64 {
    let (u, v) = (l.u.clone(), &l.v);
    let mut change: f64 = 0.0;
    for (i, j, k) in cells(&u) {
        let six = u.get(i - 1, j, k)
            + u.get(i + 1, j, k)
            + u.get(i, j - 1, k)
            + u.get(i, j + 1, k)
            + u.get(i, j, k - 1)
            + u.get(i, j, k + 1);
        let three = v.get(i + 1, j, k) + v.get(i, j - 1, k) + v.get(i, j, k + 1);
        let new = 0.5 * u.get(i, j, k) + six / 12.0 + three / 24.0;
        change = change.max((new - u.get(i, j, k)).abs());
        l.u.set(i, j, k, new);
    }
    change
}

/// Partials of wide magnitude (and a signed zero), so any change of
/// combine order or operand shows in the bits.
fn partials(env: &Env, l: &G) -> Vec<f64> {
    let vals = l.u.interior_to_vec();
    let scale = 10f64.powi((env.rank % 5) as i32 * 4);
    let sum: f64 = vals.iter().sum();
    let zero = if env.rank.is_multiple_of(2) { 0.0 } else { -0.0 };
    vec![sum * scale, sum / scale, vals[0] - vals[vals.len() - 1], zero]
}

/// Record `r` and feed it back into the field.
fn keep(_: &Env, l: &mut G, r: &[f64]) {
    l.results.extend_from_slice(r);
    let nudge = r.iter().map(|x| x.abs().min(1e6)).sum::<f64>() * 1e-13;
    l.u.set(0, 0, 0, l.u.get(0, 0, 0) + nudge);
}

fn halo() -> ExchangeSpec<G> {
    use Face3::{XHi, YLo, ZHi};
    ExchangeSpec::new("halo")
        .part(|l: &mut G| &mut l.u, FaceSet3::ALL)
        .part(|l: &mut G| &mut l.v, FaceSet3::of(&[XHi, YLo, ZHi]))
}

/// `body` twice, each time after an exchange and a mix.
fn stepped(body: impl Fn(PlanBuilder<G>) -> PlanBuilder<G>) -> Plan<G> {
    Plan::builder()
        .loop_n(2, |b| {
            body(b.exchange_parts(halo()).local("mix", |e, l| {
                mix(e, l);
            }))
        })
        .build()
}

/// One plan per phase kind, for a program whose host is `host_mode`.
fn plans(p: usize, host_mode: HostMode) -> Vec<(String, Plan<G>)> {
    let mut out = vec![("exchange".to_string(), stepped(|b| b))];
    // The same sweep declared cellwise: a group of several ranks fuses
    // them into boxes, and the exchanges inside a box vanish.
    let sweep = |b: PlanBuilder<G>| {
        b.exchange_parts(halo())
            .local("mix", |e, l| {
                mix(e, l);
                l.sweeps += 1;
            })
            .cellwise()
    };
    let cellwise = Plan::builder().loop_n(2, sweep);
    // A separate host runs no local block, so a while loop there must test
    // state a collective replicates; a fusable plan has none, and counts.
    let cellwise = match host_mode {
        HostMode::GridRank0 => cellwise.while_loop("count", |l: &G| l.sweeps < 5, 8, sweep),
        HostMode::Separate => cellwise.loop_n(3, sweep),
    };
    out.push(("cellwise exchange".into(), cellwise.build()));
    out.push((
        "split exchange".into(),
        stepped(|b| {
            // The scaling writes the slabs in flight: the send half must
            // have taken them already.
            b.exchange_send(halo())
                .local("scale", |_, l: &mut G| {
                    for (i, j, k) in cells(&l.u.clone()) {
                        l.u.set(i, j, k, l.u.get(i, j, k) * 1.25);
                    }
                })
                .exchange_recv(halo())
                .local("mix", |e, l| {
                    mix(e, l);
                })
        }),
    ));
    for algo in [ReduceAlgo::AllToOne, ReduceAlgo::RecursiveDoubling] {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            let name = format!("reduce {} {}", algo.name(), op.name());
            out.push((name, stepped(move |b| b.reduce("r", op, algo, partials, keep))));
        }
    }
    let contribs = |env: &Env, l: &G| -> Vec<Contribution> {
        let (b, n) = (env.block, env.pg.n);
        cells(&l.u)
            .map(|(i, j, k)| {
                let (gi, gj, gk) = b.to_global(i as usize, j as usize, k as usize);
                Contribution {
                    bin: ((gi + gj + gk) % 3) as u32,
                    order: ((gi * n.1 + gj) * n.2 + gk) as u64,
                    value: l.u.get(i, j, k) * 10f64.powi((gi % 4) as i32 * 5),
                }
            })
            .collect()
    };
    out.push((
        "ordered reduce".into(),
        stepped(move |b| b.ordered_reduce("o", 3, SumMethod::Naive, contribs, keep)),
    ));
    // Rooted at the last rank, so the root's group is not the host's.
    out.push((
        "broadcast".into(),
        stepped(move |b| {
            b.broadcast("b", p - 1, |env, l: &G| vec![l.u.get(0, 0, 0), env.rank as f64], keep)
        }),
    ));
    out.push((
        "scatter and gather".into(),
        Plan::builder()
            .scatter_grid(
                "load",
                |_: &G| Grid3::from_fn(N.0, N.1, N.2, 0, value),
                |l: &mut G| &mut l.v,
            )
            .exchange_parts(halo())
            .local("mix", |e, l| {
                mix(e, l);
            })
            .gather_grid("collect", |l: &mut G| &mut l.u, |l, g| l.gathered = Some(g.clone()))
            .build(),
    ));
    out.push((
        "reduce-driven while".into(),
        Plan::builder()
            .while_loop(
                "relax",
                |l: &G| l.resid > 0.05,
                64,
                |b| {
                    b.exchange_parts(halo()).local("mix", |e, l| l.resid = mix(e, l)).reduce(
                        "residual",
                        ReduceOp::Max,
                        ReduceAlgo::RecursiveDoubling,
                        |_, l: &G| vec![l.resid],
                        |_, l: &mut G, r| {
                            l.resid = r[0];
                            l.sweeps += 1;
                        },
                    )
                },
            )
            .build(),
    ));
    out
}

const HOSTS: [HostMode; 2] = [HostMode::GridRank0, HostMode::Separate];

/// `plan` placed by `placement` on the simulator under round-robin: one
/// snapshot per rank.
fn simulate(plan: &Plan<G>, init: &InitFn<G>, placement: &Placement) -> Vec<Vec<u8>> {
    let (topo, procs) = compile(plan, &**init, placement, 0..placement.width());
    Simulator::new(topo, procs).run(&mut RoundRobin::new()).unwrap().snapshots
}

#[test]
fn every_phase_kind_is_bitwise_at_every_group_count_and_slack() {
    let suns = network_of_suns();
    for p in [5, 8] {
        let pg = ProcGrid3::choose(N, p);
        let init = init();
        for host_mode in HOSTS {
            for (name, plan) in plans(p, host_mode) {
                let reference = simulate(&plan, &init, &Placement::per_rank(&pg, host_mode));
                let simpar = run_simpar(&plan, pg, SimParConfig { host_mode }, |e| init(e));
                let at = format!("{name} P={p} {host_mode:?}");
                assert_eq!(simpar.snapshots, reference, "{at}: simulated-parallel");
                // A group count out of range is clamped: W = 0 is W = 1, and
                // W past the rank count is one process per rank.
                let ranks = p + usize::from(host_mode == HostMode::Separate);
                let groups = |w| Placement::groups(&plan, &pg, &*init, host_mode, w);
                assert_eq!(groups(0), groups(1), "{at}: W = 0");
                assert_eq!(groups(ranks + 3), Placement::per_rank(&pg, host_mode), "{at}");
                for w in [0, ranks + 3] {
                    assert_eq!(simulate(&plan, &init, &groups(w)), reference, "{at}: W = {w}");
                }
                for w in [1, 2, 3, p] {
                    let placement = groups(w);
                    assert_eq!(placement.width(), w, "{at} W={w}");
                    if w < p {
                        let pool = Placement::pool(&plan, &pg, &*init, host_mode, w);
                        assert_eq!(pool, placement, "{at} W={w}: the pool's placement");
                    }
                    let build = |slack| {
                        let (topo, procs) = compile(&plan, &*init, &placement, 0..w);
                        (topo.with_uniform_capacity(slack), procs)
                    };
                    for slack in [Some(1), None] {
                        let at = format!("{at} W={w} slack {slack:?}");
                        // Six policies: round-robin, both extremes,
                        // ping-pong, starving rank 0, one seeded random.
                        for mut policy in standard_battery(1, 1) {
                            let (topo, procs) = build(slack);
                            let out = Simulator::new(topo, procs).run(policy.as_mut());
                            let out = out.unwrap_or_else(|e| panic!("{at} {}: {e}", policy.name()));
                            assert_eq!(out.snapshots, reference, "{at} {}", policy.name());
                        }
                        let (topo, procs) = build(slack);
                        let des = perf_sim::run_des(topo, procs, &suns, &mut RoundRobin::new())
                            .unwrap_or_else(|e| panic!("{at} DES: {e}"));
                        assert_eq!(des.snapshots, reference, "{at} DES");
                        let (topo, procs) = build(slack);
                        let cfg =
                            ThreadedConfig::with_watchdog(Duration::from_secs(30)).with_workers(w);
                        let out = run_threaded_with(&topo, procs, cfg)
                            .unwrap_or_else(|e| panic!("{at} pool: {e}"));
                        assert_eq!(out.metrics.procs.len(), w, "{at} pool");
                        assert_eq!(out.snapshots, reference, "{at} pool");
                    }
                }
            }
        }
    }
}

/// The while loop really iterates, and stops on the reduced residual.
#[test]
fn the_while_plan_runs_several_sweeps() {
    let pg = ProcGrid3::choose(N, 5);
    let (name, plan) = plans(5, HostMode::GridRank0).pop().unwrap();
    assert_eq!(name, "reduce-driven while");
    let out = run_simpar(&plan, pg, SimParConfig::default(), |e| init()(e));
    let sweeps = out.locals[0].sweeps;
    assert!(sweeps > 2 && sweeps < 64, "{sweeps} sweeps");
    assert!(out.locals.iter().all(|l| l.sweeps == sweeps && l.resid <= 0.05));
}
