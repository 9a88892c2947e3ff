//! The §4.2 separate-host-process mode: "One possibility is to define a
//! separate host process responsible for file I/O."
//!
//! These tests run the same plan under both host placements and check that
//! (a) the *grid* results are identical, (b) the host's collected I/O data
//! is identical, (c) the message-passing execution matches the
//! simulated-parallel execution bitwise in separate-host mode too, and
//! (d) the separate host costs the expected extra messages.

use std::collections::BTreeMap;
use std::sync::Arc;

use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode, MeshLocal, SimParConfig};
use mesh_archetype::exchange::face_links;
use mesh_archetype::{
    run_simpar, Contribution, Env, ExchangeSpec, Plan, ReduceAlgo, ReduceOp, SumMethod,
};
use meshgrid::halo::FaceSet3;
use meshgrid::{Grid3, ProcGrid3};
use perf_sim::{run_des, SpanKind};
use ssp_runtime::{RandomPolicy, RoundRobin, RunOutcome, SchedulePolicy, Simulator};

struct Node {
    u: Grid3<f64>,
    total: f64,
    series: Vec<f64>,
    gathered: Option<Grid3<f64>>,
}

impl MeshLocal for Node {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = meshgrid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&self.total.to_bits().to_le_bytes());
        buf.extend_from_slice(&(self.series.len() as u64).to_le_bytes());
        for v in &self.series {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        if let Some(g) = &self.gathered {
            buf.extend_from_slice(&meshgrid::io::grid3_to_bytes(g));
        }
        buf
    }
}

const N: (usize, usize, usize) = (8, 6, 5);

fn init(env: &Env) -> Node {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    Node {
        u: Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
            let (gi, gj, gk) = block.to_global(i, j, k);
            ((gi * 31 + gj * 7 + gk) % 13) as f64 * 0.5 - 2.0
        }),
        total: 0.0,
        series: Vec::new(),
        gathered: None,
    }
}

fn smooth(_: &Env, n: &mut Node) {
    let (nx, ny, nz) = n.u.extent();
    let mut next = n.u.clone();
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                let v = 0.5 * n.u.get(i, j, k)
                    + 0.25 * n.u.get(i - 1, j, k)
                    + 0.25 * n.u.get(i + 1, j, k);
                next.set(i, j, k, v);
            }
        }
    }
    n.u = next;
}

fn sum(_: &Env, n: &Node) -> Vec<f64> {
    vec![n.u.interior_to_vec().iter().sum::<f64>()]
}

/// One contribution per owned cell, two bins by parity.
fn contributions(env: &Env, n: &Node) -> Vec<Contribution> {
    let block = env.block;
    let gn = env.pg.n;
    let (nx, ny, nz) = n.u.extent();
    let mut out = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let (gi, gj, gk) = block.to_global(i, j, k);
                let order = ((gi * gn.1 + gj) * gn.2 + gk) as u64;
                out.push(Contribution {
                    bin: (order % 2) as u32,
                    order,
                    value: n.u.get(i as isize, j as isize, k as isize),
                });
            }
        }
    }
    out
}

/// A plan touching every collective the host participates in: sweep +
/// exchange in a loop, a Sum reduction, an ordered reduction, a broadcast,
/// and a final gather.
fn full_plan() -> Plan<Node> {
    Plan::builder()
        .loop_n(3, |b| b.exchange("halo", |n: &mut Node| &mut n.u).local("smooth", smooth))
        .reduce("sum", ReduceOp::Sum, ReduceAlgo::AllToOne, sum, |_, n, v| n.total = v[0])
        .ordered_reduce("series", 2, SumMethod::Naive, contributions, |_, n, v| {
            n.series = v.to_vec()
        })
        .broadcast("sync", 0, |_, n: &Node| vec![n.total * 2.0], |_, n, v| n.total = v[0])
        .gather_grid(
            "collect",
            |n: &mut Node| &mut n.u,
            |n, g| n.gathered = Some(g.clone()),
        )
        .build()
}

fn cfg(mode: HostMode) -> SimParConfig {
    SimParConfig { host_mode: mode }
}

/// The per-rank program under `mode` on the simulator.
fn hosted(
    plan: &Plan<Node>,
    pg: ProcGrid3,
    init: &mesh_archetype::plan::InitFn<Node>,
    mode: HostMode,
    policy: &mut dyn SchedulePolicy,
) -> RunOutcome {
    let (topo, procs) = build_msg_processes_with_slack(plan, pg, init, mode, None);
    Simulator::new(topo, procs).run(policy).unwrap()
}

#[test]
fn grid_results_identical_under_both_host_placements() {
    let plan = full_plan();
    let pg = ProcGrid3::choose(N, 4);
    let a = run_simpar(&plan, pg, cfg(HostMode::GridRank0), init);
    let b = run_simpar(&plan, pg, cfg(HostMode::Separate), init);
    assert_eq!(a.locals.len(), 4);
    assert_eq!(b.locals.len(), 5, "separate mode adds the host process");

    // Grid ranks' fields and replicated globals agree bitwise (the host
    // placement cannot change grid arithmetic).
    for r in 0..4 {
        assert!(a.locals[r].u.interior_bitwise_eq(&b.locals[r].u), "rank {r} field");
        assert_eq!(a.locals[r].total.to_bits(), b.locals[r].total.to_bits());
        assert_eq!(
            a.locals[r].series.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.locals[r].series.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
    // The collected I/O grid is identical, just held by a different rank.
    let ga = a.locals[0].gathered.as_ref().expect("rank-0 host gathered");
    let gb = b.locals[4].gathered.as_ref().expect("separate host gathered");
    assert!(ga.interior_bitwise_eq(gb));
    assert!(b.locals[0].gathered.is_none(), "grid rank 0 no longer plays host");
    // The separate host received every replicated global too.
    assert_eq!(b.locals[4].total.to_bits(), b.locals[0].total.to_bits());
    assert_eq!(
        b.locals[4].series.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        b.locals[0].series.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn msg_matches_simpar_in_separate_host_mode() {
    let plan = full_plan();
    let pg = ProcGrid3::choose(N, 4);
    let simpar = run_simpar(&plan, pg, cfg(HostMode::Separate), init);
    let init_fn: mesh_archetype::plan::InitFn<Node> = Arc::new(init);
    for policy in [0u64, 1, 2] {
        let mut random = RandomPolicy::seeded(policy);
        let out = hosted(&plan, pg, &init_fn, HostMode::Separate, &mut random);
        assert_eq!(out.snapshots, simpar.snapshots, "seed {policy}");
    }
    let out = hosted(&plan, pg, &init_fn, HostMode::Separate, &mut RoundRobin::new());
    assert_eq!(out.snapshots, simpar.snapshots);
}

#[test]
fn separate_host_costs_the_expected_extra_messages() {
    let plan = full_plan();
    let pg = ProcGrid3::choose(N, 4);
    let init_fn: mesh_archetype::plan::InitFn<Node> = Arc::new(init);
    let messages = |mode| {
        let out = hosted(&plan, pg, &init_fn, mode, &mut RoundRobin::new());
        out.metrics.total_messages()
    };
    let (ma, mb) = (messages(HostMode::GridRank0), messages(HostMode::Separate));
    // Per collective, the separate host adds: reduce result forward (1),
    // ordered-reduce contributions from rank 0 + result to rank 0 (2),
    // broadcast to host (1), gather from rank 0 (1) = 5 extra here.
    assert_eq!(mb, ma + 5, "got {ma} vs {mb}");
}

#[test]
fn exchange_restrictions_still_hold_with_separate_host() {
    // The host is not a party to boundary exchanges: every halo message
    // runs between two grid processes, over a face they share: one per
    // link and exchange.
    let plan = Plan::builder()
        .loop_n(3, |b| b.exchange("halo", |n: &mut Node| &mut n.u).local("smooth", smooth))
        .build();
    let pg = ProcGrid3::choose(N, 6);
    let init_fn: mesh_archetype::plan::InitFn<Node> = Arc::new(init);
    let out = hosted(&plan, pg, &init_fn, HostMode::Separate, &mut RoundRobin::new());
    let links: usize = (0..6).map(|r| face_links(&pg, r).len()).sum();
    assert_eq!(out.metrics.total_messages(), 3 * links as u64);
    for c in out.metrics.channels.iter().filter(|c| c.messages > 0) {
        let linked = face_links(&pg, c.writer).iter().any(|l| l.neighbor == c.reader);
        assert!(c.writer < 6 && c.reader < 6 && linked, "{c:?}");
    }
}

/// Every phase kind that communicates: a scatter, an exchange, a split
/// exchange, a reduction under each algorithm, an ordered reduction, a
/// broadcast from the first and from the last rank, and a gather.
fn every_phase_kind(p: usize) -> Plan<Node> {
    let split = || ExchangeSpec::new("split").part(|n: &mut Node| &mut n.u, FaceSet3::ALL);
    let ramp = |_: &Node| Grid3::from_fn(N.0, N.1, N.2, 0, |i, j, k| (i * 100 + j * 10 + k) as f64);
    Plan::builder()
        .scatter_grid("load", ramp, |n: &mut Node| &mut n.u)
        .exchange("halo", |n: &mut Node| &mut n.u)
        .local("smooth", smooth)
        .exchange_send(split())
        .local("bump", |env, n: &mut Node| n.total += env.rank as f64)
        .exchange_recv(split())
        .local("smooth", smooth)
        .reduce("a2o", ReduceOp::Sum, ReduceAlgo::AllToOne, sum, |_, n, v| n.total = v[0])
        .reduce("rd", ReduceOp::Sum, ReduceAlgo::RecursiveDoubling, sum, |_, n, v| {
            n.total += v[0]
        })
        .ordered_reduce("series", 2, SumMethod::Naive, contributions, |_, n, v| {
            n.series = v.to_vec()
        })
        .broadcast("first", 0, |_, n: &Node| vec![n.total * 2.0], |_, n, v| n.total = v[0])
        .broadcast("last", p - 1, |env, _: &Node| vec![env.rank as f64], |_, n, v| {
            n.total += v[0]
        })
        .gather_grid("collect", |n: &mut Node| &mut n.u, |n, g| n.gathered = Some(g.clone()))
        .build()
}

/// The discrete-event run logs, as send spans, exactly the messages the
/// per-rank program sends, for every phase kind, both host placements and
/// P = 1..7: its `(src, dst)` tallies are the untimed run's channel
/// counters, and both runs end in the simulated-parallel program's state.
#[test]
fn logged_traffic_is_the_per_rank_programs_for_every_phase_kind() {
    let init_fn: mesh_archetype::plan::InitFn<Node> = Arc::new(init);
    let model = machine_model::network_of_suns();
    for mode in [HostMode::GridRank0, HostMode::Separate] {
        for p in 1..=7 {
            let (plan, pg) = (every_phase_kind(p), ProcGrid3::choose(N, p));
            let simpar = run_simpar(&plan, pg, cfg(mode), init);
            let mut policy = RoundRobin::new();
            let msg = hosted(&plan, pg, &init_fn, mode, &mut policy);
            assert_eq!(msg.snapshots, simpar.snapshots, "{mode:?} P={p}");
            let (topo, procs) = build_msg_processes_with_slack(&plan, pg, &init_fn, mode, None);
            let des = run_des(topo.clone(), procs, &model, &mut RoundRobin::new()).unwrap();
            assert_eq!(des.snapshots, simpar.snapshots, "{mode:?} P={p}");
            let mut logged = BTreeMap::new();
            for span in des.timelines.iter().flat_map(|t| &t.spans) {
                if let SpanKind::Send { chan, bytes } = span.kind {
                    let spec = &topo.specs()[chan.0];
                    let (count, total) = logged.entry((spec.writer, spec.reader)).or_insert((0, 0));
                    (*count, *total) = (*count + 1, *total + bytes);
                }
            }
            let channels = msg.metrics.channels.iter().filter(|c| c.messages > 0);
            let sent: BTreeMap<_, _> =
                channels.map(|c| ((c.writer, c.reader), (c.messages, c.bytes))).collect();
            assert_eq!(logged, sent, "{mode:?} P={p}");
        }
    }
}
