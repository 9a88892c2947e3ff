//! The §4.2 separate-host-process mode: "One possibility is to define a
//! separate host process responsible for file I/O."
//!
//! These tests run the same plan under both host placements and check that
//! (a) the *grid* results are identical, (b) the host's collected I/O data
//! is identical, (c) the message-passing execution matches the
//! simulated-parallel execution bitwise in separate-host mode too, and
//! (d) the separate host costs the expected extra messages.

use std::sync::Arc;

use mesh_archetype::driver::{
    run_msg_simulated_hosted, HostMode, MeshLocal, SimParConfig,
};
use mesh_archetype::exchange::face_links;
use mesh_archetype::{run_simpar, Contribution, Env, Plan, ReduceAlgo, ReduceOp, SumMethod};
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::{RandomPolicy, RoundRobin};

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

/// A plan touching every collective the host participates in: sweep +
/// exchange in a loop, a Sum reduction, an ordered reduction, a broadcast,
/// and a final gather.
fn full_plan() -> Plan<Node> {
    Plan::builder()
        .loop_n(3, |b| {
            b.exchange("halo", |n: &mut Node| &mut n.u).local("smooth", |env, n| {
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
                let _ = env;
            })
        })
        .reduce(
            "sum",
            ReduceOp::Sum,
            ReduceAlgo::AllToOne,
            |_, n: &Node| vec![n.u.interior_to_vec().iter().sum::<f64>()],
            |_, n, v| n.total = v[0],
        )
        .ordered_reduce(
            "series",
            2,
            SumMethod::Naive,
            |env, n: &Node| {
                // One contribution per owned cell, two bins by parity.
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
            },
            |_, n, v| n.series = v.to_vec(),
        )
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
        let out = run_msg_simulated_hosted(
            &plan,
            pg,
            &init_fn,
            HostMode::Separate,
            &mut RandomPolicy::seeded(policy),
        )
        .unwrap();
        assert_eq!(out.snapshots, simpar.snapshots, "seed {policy}");
    }
    let out = run_msg_simulated_hosted(
        &plan,
        pg,
        &init_fn,
        HostMode::Separate,
        &mut RoundRobin::new(),
    )
    .unwrap();
    assert_eq!(out.snapshots, simpar.snapshots);
}

#[test]
fn separate_host_costs_the_expected_extra_messages() {
    let plan = full_plan();
    let pg = ProcGrid3::choose(N, 4);
    let a = run_simpar(&plan, pg, cfg(HostMode::GridRank0), init);
    let b = run_simpar(&plan, pg, cfg(HostMode::Separate), init);
    let ma = a.trace.total_messages();
    let mb = b.trace.total_messages();
    // Per collective, the separate host adds: reduce result forward (1),
    // ordered-reduce contributions from rank 0 + result to rank 0 (2),
    // broadcast to host (1), gather from rank 0 (1) = 5 extra here.
    assert_eq!(mb, ma + 5, "got {ma} vs {mb}");
}

#[test]
fn exchange_restrictions_still_hold_with_separate_host() {
    // The host is not a party to boundary exchanges: every halo message
    // runs between two grid processes, over a face they share.
    let plan = full_plan();
    let pg = ProcGrid3::choose(N, 6);
    let out = run_simpar(&plan, pg, cfg(HostMode::Separate), init);
    let halos: Vec<_> = out.trace.phases.iter().filter(|p| p.name == "halo").collect();
    assert_eq!(halos.len(), 3);
    for m in halos.iter().flat_map(|p| &p.msgs) {
        let linked = face_links(&pg, m.src).iter().any(|l| l.neighbor == m.dst);
        assert!(m.src < 6 && m.dst < 6 && linked, "{m:?}");
    }
}
