//! Quickstart: parallelize a 3-D heat-diffusion sweep with the mesh
//! archetype in ~60 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The same [`Plan`] runs three ways — sequentially, as the paper's
//! *sequential simulated-parallel version*, and as a real message-passing
//! program — and the results are bitwise identical.

use std::sync::Arc;

use archetypes::mesh::driver::MeshLocal;
use archetypes::mesh::{run_msg_threaded_slack, run_seq, run_simpar, Env, Plan};
use archetypes::runtime::ThreadedConfig;
use archetypes::mesh::driver::SimParConfig;
use archetypes::grid::{Grid3, ProcGrid3};

/// Each process's local state: its section of the temperature field.
struct Heat {
    u: Grid3<f64>,
    next: Grid3<f64>,
}

impl MeshLocal for Heat {
    fn snapshot_bytes(&self) -> Vec<u8> {
        archetypes::grid::io::grid3_to_bytes(&self.u)
    }
}

const N: (usize, usize, usize) = (24, 24, 24);

fn init(env: &Env) -> Heat {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    // A hot blob, described in *global* coordinates so every partitioning
    // sees the same initial field.
    let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
        let (gi, gj, gk) = block.to_global(i, j, k);
        let d2 = (gi as f64 - 12.0).powi(2) + (gj as f64 - 12.0).powi(2) + (gk as f64 - 12.0).powi(2);
        (-d2 / 18.0).exp()
    });
    Heat { next: Grid3::new(nx, ny, nz, 1), u }
}

fn sweep(env: &Env, h: &mut Heat) {
    let (nx, ny, nz) = h.u.extent();
    let g = env.pg.n;
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                let (gi, gj, gk) = env.block.to_global(i as usize, j as usize, k as usize);
                let edge = gi == 0 || gj == 0 || gk == 0
                    || gi == g.0 - 1 || gj == g.1 - 1 || gk == g.2 - 1;
                let v = if edge {
                    h.u.get(i, j, k)
                } else {
                    h.u.get(i, j, k)
                        + 0.1 * (h.u.get(i - 1, j, k) + h.u.get(i + 1, j, k)
                            + h.u.get(i, j - 1, k) + h.u.get(i, j + 1, k)
                            + h.u.get(i, j, k - 1) + h.u.get(i, j, k + 1)
                            - 6.0 * h.u.get(i, j, k))
                };
                h.next.set(i, j, k, v);
            }
        }
    }
    std::mem::swap(&mut h.u, &mut h.next);
}

fn main() {
    // The whole parallel program: exchange ghosts, sweep; repeat.
    let plan: Plan<Heat> = Plan::builder()
        .loop_n(50, |b| {
            b.exchange("halo", |h: &mut Heat| &mut h.u)
                .local("sweep", sweep)
        })
        .build();

    // 1. Sequential reference.
    let seq = run_seq(&plan, N, init);

    // 2. Sequential simulated-parallel version at P = 8.
    let pg = ProcGrid3::choose(N, 8);
    let mut simpar = run_simpar(&plan, pg, SimParConfig::default(), init);
    let global = simpar.assemble_global(&pg, |h| &mut h.u);
    let seq_flat = seq.u.interior_to_vec();
    let par_flat = global.interior_to_vec();
    let identical = seq_flat
        .iter()
        .zip(&par_flat)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!("simulated-parallel (P=8) vs sequential: bitwise identical = {identical}");

    // 3. The real message-passing program on 8 OS threads.
    let init_fn: archetypes::mesh::plan::InitFn<Heat> = Arc::new(init);
    let snaps = run_msg_threaded_slack(&plan, pg, &init_fn, None, ThreadedConfig::default())
        .expect("threads run")
        .snapshots;
    println!(
        "message-passing (8 threads) vs simulated-parallel: bitwise identical = {}",
        snaps == simpar.snapshots
    );
    println!(
        "messages per exchange at P=8: {}",
        archetypes::mesh::exchange::exchange_message_count(&pg)
    );
}
