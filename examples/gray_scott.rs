//! Gray–Scott reaction–diffusion on a 2-D grid — a second domain
//! application of the mesh archetype (two coupled fields, 2-D embedding
//! via [`ProcGrid3::for_2d`]), showing the library is not FDTD-specific.
//!
//! ```sh
//! cargo run --release --example gray_scott
//! ```

use std::sync::Arc;

use archetypes::grid::{Grid3, ProcGrid3};
use archetypes::mesh::driver::{MeshLocal, SimParConfig};
use archetypes::mesh::{run_msg_threaded, run_seq, run_simpar, Env, Plan};

const N: (usize, usize) = (48, 48);
const STEPS: usize = 200;
const DU: f64 = 0.16;
const DV: f64 = 0.08;
const FEED: f64 = 0.035;
const KILL: f64 = 0.065;

struct GrayScott {
    u: Grid3<f64>,
    v: Grid3<f64>,
    un: Grid3<f64>,
    vn: Grid3<f64>,
}

impl MeshLocal for GrayScott {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut b = archetypes::grid::io::grid3_to_bytes(&self.u);
        b.extend_from_slice(&archetypes::grid::io::grid3_to_bytes(&self.v));
        b
    }
}

fn init(env: &Env) -> GrayScott {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    // u = 1 everywhere, v = 0, except a seeded square in the middle.
    let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, _| {
        let (gi, gj, _) = block.to_global(i, j, 0);
        if (20..28).contains(&gi) && (20..28).contains(&gj) {
            0.5
        } else {
            1.0
        }
    });
    let v = Grid3::from_fn(nx, ny, nz, 1, |i, j, _| {
        let (gi, gj, _) = block.to_global(i, j, 0);
        if (20..28).contains(&gi) && (20..28).contains(&gj) {
            0.25
        } else {
            0.0
        }
    });
    GrayScott { un: u.clone(), vn: v.clone(), u, v }
}

fn react(env: &Env, s: &mut GrayScott) {
    let (nx, ny, _) = s.u.extent();
    let g = env.pg.n;
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            let (gi, gj, _) = env.block.to_global(i as usize, j as usize, 0);
            // Zero-flux boundary: edge cells copy themselves (their ghost
            // neighbours outside the domain read 0, so freeze them).
            if gi == 0 || gj == 0 || gi == g.0 - 1 || gj == g.1 - 1 {
                s.un.set(i, j, 0, s.u.get(i, j, 0));
                s.vn.set(i, j, 0, s.v.get(i, j, 0));
                continue;
            }
            let u = s.u.get(i, j, 0);
            let v = s.v.get(i, j, 0);
            let lap_u = s.u.get(i - 1, j, 0) + s.u.get(i + 1, j, 0) + s.u.get(i, j - 1, 0)
                + s.u.get(i, j + 1, 0)
                - 4.0 * u;
            let lap_v = s.v.get(i - 1, j, 0) + s.v.get(i + 1, j, 0) + s.v.get(i, j - 1, 0)
                + s.v.get(i, j + 1, 0)
                - 4.0 * v;
            let uvv = u * v * v;
            s.un.set(i, j, 0, u + DU * lap_u - uvv + FEED * (1.0 - u));
            s.vn.set(i, j, 0, v + DV * lap_v + uvv - (FEED + KILL) * v);
        }
    }
    std::mem::swap(&mut s.u, &mut s.un);
    std::mem::swap(&mut s.v, &mut s.vn);
}

fn plan() -> Plan<GrayScott> {
    Plan::builder()
        .loop_n(STEPS, |b| {
            b.exchange("halo-u", |s: &mut GrayScott| &mut s.u)
                .exchange("halo-v", |s: &mut GrayScott| &mut s.v)
                .local_with_flops("react", react, |env, _| 22 * env.block.len() as u64)
        })
        .build()
}

fn ascii_render(v: &Grid3<f64>) -> String {
    let (nx, ny, _) = v.extent();
    let ramp = [' ', '.', ':', '+', '*', '#', '@'];
    let mut out = String::new();
    for i in (0..nx as isize).step_by(2) {
        for j in (0..ny as isize).step_by(2) {
            let x = v.get(i, j, 0).clamp(0.0, 0.35) / 0.35;
            out.push(ramp[(x * (ramp.len() - 1) as f64) as usize]);
        }
        out.push('\n');
    }
    out
}

fn main() {
    let plan = plan();

    let seq = run_seq(&plan, (N.0, N.1, 1), init);
    let pg = ProcGrid3::for_2d(N, 4);
    let mut simpar = run_simpar(&plan, pg, SimParConfig::default(), init);

    let v_par = simpar.assemble_global(&pg, |s| &mut s.v);
    let v_seq = {
        let mut g = Grid3::new(N.0, N.1, 1, 0);
        g.interior_from_slice(&seq.v.interior_to_vec());
        g
    };
    println!(
        "Gray–Scott {}x{}, {STEPS} steps: P=4 bitwise identical to sequential = {}",
        N.0,
        N.1,
        v_par.interior_bitwise_eq(&v_seq)
    );

    let init_fn: archetypes::mesh::plan::InitFn<GrayScott> = Arc::new(init);
    let threaded = run_msg_threaded(&plan, pg, &init_fn).expect("threads run");
    println!(
        "message-passing (4 threads) identical to simulated-parallel = {}",
        threaded == simpar.snapshots
    );

    println!("\nv concentration (spots emerging):\n{}", ascii_render(&v_par));
}
