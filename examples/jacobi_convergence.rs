//! Reduction-driven control flow: the paper's §4.2 "the computation may
//! include simple control structures based on these global variables (for
//! example, looping based on a variable whose value is the result of a
//! reduction)".
//!
//! ```sh
//! cargo run --release --example jacobi_convergence
//! ```
//!
//! A Jacobi solver iterates *until* the global residual (a Max reduction —
//! exact, hence bit-identical on every rank) drops below a tolerance. The
//! iteration count is data-dependent; every driver must take the same
//! number of sweeps and produce the same field bitwise.

use std::sync::Arc;

use archetypes::grid::{Grid3, ProcGrid3};
use archetypes::mesh::driver::{MeshLocal, SimParConfig};
use archetypes::mesh::{
    run_msg_threaded_slack, run_seq, run_simpar, Env, Plan, ReduceAlgo, ReduceOp,
};
use archetypes::runtime::ThreadedConfig;

const N: (usize, usize, usize) = (20, 20, 20);
const TOL: f64 = 1e-4;

struct Jacobi {
    u: Grid3<f64>,
    next: Grid3<f64>,
    /// Replicated global: the latest Max-reduced residual.
    residual: f64,
    /// Replicated sweep counter (for reporting).
    sweeps: u64,
}

impl MeshLocal for Jacobi {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = archetypes::grid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&self.residual.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.sweeps.to_le_bytes());
        buf
    }
}

fn init(env: &Env) -> Jacobi {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    // Boundary condition: u = 1 on the x = 0 face, 0 elsewhere; solve the
    // interior Laplace problem.
    let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
        let (gi, _, _) = block.to_global(i, j, k);
        if gi == 0 {
            1.0
        } else {
            0.0
        }
    });
    Jacobi { next: u.clone(), u, residual: f64::INFINITY, sweeps: 0 }
}

fn sweep(env: &Env, s: &mut Jacobi) {
    let (nx, ny, nz) = s.u.extent();
    let g = env.pg.n;
    let mut local_res: f64 = 0.0;
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                let (gi, gj, gk) = env.block.to_global(i as usize, j as usize, k as usize);
                let boundary = gi == 0
                    || gj == 0
                    || gk == 0
                    || gi == g.0 - 1
                    || gj == g.1 - 1
                    || gk == g.2 - 1;
                let v = if boundary {
                    s.u.get(i, j, k)
                } else {
                    (s.u.get(i - 1, j, k)
                        + s.u.get(i + 1, j, k)
                        + s.u.get(i, j - 1, k)
                        + s.u.get(i, j + 1, k)
                        + s.u.get(i, j, k - 1)
                        + s.u.get(i, j, k + 1))
                        / 6.0
                };
                local_res = local_res.max((v - s.u.get(i, j, k)).abs());
                s.next.set(i, j, k, v);
            }
        }
    }
    std::mem::swap(&mut s.u, &mut s.next);
    s.sweeps += 1;
    // Stash the local residual in `residual` until the reduction replaces
    // it with the global maximum.
    s.residual = local_res;
}

fn plan() -> Plan<Jacobi> {
    Plan::builder()
        .while_loop(
            "until-converged",
            |s: &Jacobi| s.residual > TOL,
            10_000,
            |b| {
                b.exchange("halo", |s: &mut Jacobi| &mut s.u)
                    .local_with_flops("sweep", sweep, |env, _| 8 * env.block.len() as u64)
                    .reduce(
                        "residual-max",
                        ReduceOp::Max,
                        ReduceAlgo::RecursiveDoubling,
                        |_, s: &Jacobi| vec![s.residual],
                        |_, s, v| s.residual = v[0],
                    )
            },
        )
        .build()
}

fn main() {
    let plan = plan();

    let seq = run_seq(&plan, N, init);
    println!(
        "sequential: converged to residual {:.3e} in {} sweeps",
        seq.residual, seq.sweeps
    );

    let pg = ProcGrid3::choose(N, 8);
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    println!("simulated-parallel (P=8): {} sweeps", simpar.locals[0].sweeps);
    assert_eq!(simpar.locals[0].sweeps, seq.sweeps, "same data-dependent trip count");

    let init_fn: archetypes::mesh::plan::InitFn<Jacobi> = Arc::new(init);
    let threaded = run_msg_threaded_slack(&plan, pg, &init_fn, None, ThreadedConfig::default())
        .expect("threads run")
        .snapshots;
    println!(
        "message-passing (8 threads): bitwise identical to simulated-parallel = {}",
        threaded == simpar.snapshots
    );
}
