//! Edge-case coverage of the mesh-archetype drivers: degenerate process
//! counts, non-zero broadcast roots, nested loops through the msg driver's
//! control-flow compiler, and empty-phase plans.

use std::sync::Arc;

use mesh_archetype::driver::{MeshLocal, SimParConfig};
use mesh_archetype::{run_msg_simulated, run_seq, run_simpar, Env, Plan, ReduceAlgo, ReduceOp};
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::{RandomPolicy, RoundRobin};

struct Cell {
    u: Grid3<f64>,
    tally: f64,
    word: Vec<f64>,
    io: Option<Grid3<f64>>,
}

impl MeshLocal for Cell {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = meshgrid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&self.tally.to_bits().to_le_bytes());
        buf.extend_from_slice(&(self.word.len() as u64).to_le_bytes());
        for v in &self.word {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        if let Some(g) = &self.io {
            buf.extend_from_slice(&meshgrid::io::grid3_to_bytes(g));
        }
        buf
    }
}

fn init(env: &Env) -> Cell {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    Cell {
        u: Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
            let (gi, gj, gk) = block.to_global(i, j, k);
            (gi * 100 + gj * 10 + gk) as f64
        }),
        tally: 0.0,
        word: Vec::new(),
        io: None,
    }
}

const N: (usize, usize, usize) = (6, 5, 4);

#[test]
fn every_phase_type_works_at_p1() {
    // At P = 1, exchanges vanish, reductions are identities, gathers and
    // scatters are local copies — and everything must still run.
    let plan: Plan<Cell> = Plan::builder()
        .exchange("halo", |c: &mut Cell| &mut c.u)
        .reduce(
            "sum",
            ReduceOp::Sum,
            ReduceAlgo::RecursiveDoubling,
            |_, c: &Cell| vec![c.u.get(0, 0, 0)],
            |_, c, v| c.tally = v[0],
        )
        .broadcast("word", 0, |_, c: &Cell| vec![c.tally * 2.0], |_, c, v| c.word = v.to_vec())
        .gather_grid("out", |c: &mut Cell| &mut c.u, |c, g| c.io = Some(g.clone()))
        .scatter_grid(
            "in",
            |c: &Cell| c.io.clone().expect("gathered first"),
            |c: &mut Cell| &mut c.u,
        )
        .build();
    let seq = run_seq(&plan, N, init);
    assert_eq!(seq.tally, 0.0); // cell (0,0,0) holds 0
    assert_eq!(seq.word, vec![0.0]);
    assert!(seq.io.is_some());

    // And the msg driver at P = 1 produces the same snapshot.
    let pg = ProcGrid3::new(N, (1, 1, 1));
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    let init_fn: mesh_archetype::plan::InitFn<Cell> = Arc::new(init);
    let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RoundRobin::new()).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}

#[test]
fn broadcast_from_nonzero_root() {
    let root = 3;
    let plan: Plan<Cell> = Plan::builder()
        .local("mark", move |env, c: &mut Cell| {
            if env.rank == root {
                c.tally = 42.5;
            }
        })
        .broadcast(
            "spread",
            root,
            |_, c: &Cell| vec![c.tally],
            |_, c, v| c.word = v.to_vec(),
        )
        .build();
    let pg = ProcGrid3::choose(N, 4);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    for l in &simpar.locals {
        assert_eq!(l.word, vec![42.5], "every rank got the root's value");
    }
    let init_fn: mesh_archetype::plan::InitFn<Cell> = Arc::new(init);
    let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RandomPolicy::seeded(1)).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}

#[test]
fn nested_loops_compile_and_run_in_the_msg_driver() {
    // loop 3 { loop 2 { exchange; local } ; reduce } — exercises the
    // compiled LoopStart/LoopEnd counter stack two deep.
    let plan: Plan<Cell> = Plan::builder()
        .loop_n(3, |b| {
            b.loop_n(2, |b| {
                b.exchange("halo", |c: &mut Cell| &mut c.u).local("bump", |_, c| {
                    c.tally += 1.0;
                })
            })
            .reduce(
                "sync",
                ReduceOp::Max,
                ReduceAlgo::AllToOne,
                |_, c: &Cell| vec![c.tally],
                |_, c, v| c.tally = v[0],
            )
        })
        .build();
    let pg = ProcGrid3::choose(N, 4);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    for l in &simpar.locals {
        assert_eq!(l.tally, 6.0, "3 × 2 iterations of the bump");
    }
    let init_fn: mesh_archetype::plan::InitFn<Cell> = Arc::new(init);
    let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RandomPolicy::seeded(2)).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}

#[test]
fn zero_iteration_loops_are_skipped_everywhere() {
    let plan: Plan<Cell> = Plan::builder()
        .loop_n(0, |b| b.local("never", |_, c: &mut Cell| c.tally = f64::NAN))
        .local("after", |_, c| c.tally += 1.0)
        .build();
    let pg = ProcGrid3::choose(N, 3);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    for l in &simpar.locals {
        assert_eq!(l.tally, 1.0);
    }
    let init_fn: mesh_archetype::plan::InitFn<Cell> = Arc::new(init);
    let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RoundRobin::new()).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}

#[test]
fn empty_plan_is_a_no_op() {
    let plan: Plan<Cell> = Plan::builder().build();
    let pg = ProcGrid3::choose(N, 2);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    let init_fn: mesh_archetype::plan::InitFn<Cell> = Arc::new(init);
    let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RoundRobin::new()).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
    assert_eq!(msg.metrics.total_messages(), 0);
    assert!(msg.metrics.procs.iter().all(|p| p.compute_units == 0));
}

#[test]
fn gather_scatter_roundtrip_multirank() {
    let plan: Plan<Cell> = Plan::builder()
        .gather_grid("out", |c: &mut Cell| &mut c.u, |c, g| c.io = Some(g.clone()))
        .local("perturb-host-copy", |env, c: &mut Cell| {
            if env.rank == 0 {
                if let Some(g) = &mut c.io {
                    g.set(0, 0, 0, -1.0);
                }
            }
        })
        .scatter_grid(
            "in",
            |c: &Cell| c.io.clone().expect("host holds the copy"),
            |c: &mut Cell| &mut c.u,
        )
        .build();
    let pg = ProcGrid3::choose(N, 4);
    // The scatter's source closure runs on the host only — other ranks'
    // `io` is None, which must not be touched.
    let mut simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    let global = simpar.assemble_global(&pg, |c| &mut c.u);
    assert_eq!(global.get(0, 0, 0), -1.0, "host's perturbation scattered");
    assert_eq!(global.get(1, 0, 0), 100.0, "rest untouched");

    let init_fn: mesh_archetype::plan::InitFn<Cell> = Arc::new(init);
    let msg = run_msg_simulated(&plan, pg, &init_fn, &mut RandomPolicy::seeded(9)).unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}
