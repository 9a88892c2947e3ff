//! End-to-end file I/O (§4.2, "File input/output operations"): gather to
//! the host, write to a real file, read it back in a second run, scatter,
//! and continue computing — the checkpoint/restart workflow the
//! archetype's redistribution operations exist for.

use std::sync::Arc;

use mesh_archetype::driver::{HostMode, MeshLocal, SimParConfig};
use mesh_archetype::{run_simpar, Env, Plan};
use meshgrid::{Grid3, ProcGrid3};
use ssp_runtime::RoundRobin;

struct Ckpt {
    u: Grid3<f64>,
    /// Host-side: bytes "written to the file" this run.
    file: Vec<u8>,
    /// Host-side: the grid to restore from (pre-loaded before the run).
    restore: Option<Grid3<f64>>,
}

impl MeshLocal for Ckpt {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = meshgrid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&(self.file.len() as u64).to_le_bytes());
        buf.extend_from_slice(&self.file);
        buf
    }
}

const N: (usize, usize, usize) = (9, 7, 5);

fn diffuse(env: &Env, c: &mut Ckpt) {
    let (nx, ny, nz) = c.u.extent();
    let mut next = c.u.clone();
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz as isize {
                let v = 0.4 * c.u.get(i, j, k)
                    + 0.1
                        * (c.u.get(i - 1, j, k)
                            + c.u.get(i + 1, j, k)
                            + c.u.get(i, j - 1, k)
                            + c.u.get(i, j + 1, k)
                            + c.u.get(i, j, k - 1)
                            + c.u.get(i, j, k + 1));
                next.set(i, j, k, v);
            }
        }
    }
    c.u = next;
    let _ = env;
}

/// Phase 1: compute, then checkpoint (gather + serialize at the host).
fn plan_phase1(steps: usize) -> Plan<Ckpt> {
    Plan::builder()
        .loop_n(steps, |b| {
            b.exchange("halo", |c: &mut Ckpt| &mut c.u).local("diffuse", diffuse)
        })
        .gather_grid(
            "checkpoint",
            |c: &mut Ckpt| &mut c.u,
            |c, g| {
                let mut buf = Vec::new();
                meshgrid::io::write_grid3(&mut buf, g).expect("serialize");
                c.file = buf;
            },
        )
        .build()
}

/// Phase 2: restore (scatter from the host's deserialized grid), then
/// continue computing.
fn plan_phase2(steps: usize) -> Plan<Ckpt> {
    Plan::builder()
        .scatter_grid(
            "restore",
            |c: &Ckpt| c.restore.clone().expect("host pre-loaded the checkpoint"),
            |c: &mut Ckpt| &mut c.u,
        )
        .loop_n(steps, |b| {
            b.exchange("halo", |c: &mut Ckpt| &mut c.u).local("diffuse", diffuse)
        })
        .build()
}

fn init_fresh(env: &Env) -> Ckpt {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    Ckpt {
        u: Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
            let (gi, gj, gk) = block.to_global(i, j, k);
            ((gi * 5 + gj * 3 + gk) % 11) as f64 - 5.0
        }),
        file: Vec::new(),
        restore: None,
    }
}

#[test]
fn checkpoint_restart_through_a_real_file_matches_uninterrupted_run() {
    let total_steps = 8;
    let split = 3;
    let pg = ProcGrid3::choose(N, 4);

    // Uninterrupted reference run.
    let reference = {
        let plan = plan_phase1(total_steps);
        let mut out = run_simpar(&plan, pg, SimParConfig::default(), init_fresh);
        out.assemble_global(&pg, |c| &mut c.u)
    };

    // Interrupted run: phase 1, write checkpoint to a real file on disk.
    let path = std::env::temp_dir().join(format!("mesh_ckpt_{}.grid", std::process::id()));
    {
        let plan = plan_phase1(split);
        let out = run_simpar(&plan, pg, SimParConfig::default(), init_fresh);
        std::fs::write(&path, &out.locals[0].file).expect("write checkpoint");
    }

    // Restart: read the file, scatter, continue for the remaining steps.
    let restored = {
        let bytes = std::fs::read(&path).expect("read checkpoint");
        let grid = meshgrid::io::read_grid3(&mut bytes.as_slice(), 0).expect("parse");
        let plan = plan_phase2(total_steps - split);
        let grid = Arc::new(grid);
        let mut out = run_simpar(&plan, pg, SimParConfig::default(), move |env| {
            let mut c = init_fresh(env);
            // Only the host needs the restore grid; giving it to everyone
            // is harmless (scatter reads it on the host only) but giving it
            // only to rank 0 exercises the intended path.
            if env.rank == 0 {
                c.restore = Some((*grid).clone());
            }
            c
        });
        out.assemble_global(&pg, |c| &mut c.u)
    };
    std::fs::remove_file(&path).ok();

    assert!(
        reference.interior_bitwise_eq(&restored),
        "restart must continue bit-for-bit where the checkpoint left off"
    );
}

#[test]
fn checkpoint_restart_works_with_a_separate_host_and_msg_driver() {
    let pg = ProcGrid3::for_2d((10, 8), 4);
    let cfg = SimParConfig { host_mode: HostMode::Separate };
    let plan = plan_phase1(2);
    let simpar = run_simpar(&plan, pg, cfg, init_fresh);
    // The checkpoint bytes live on the dedicated host (last rank).
    let host = simpar.locals.len() - 1;
    assert!(!simpar.locals[host].file.is_empty());
    assert!(simpar.locals[0].file.is_empty());
    // Deserialize and spot-check.
    let g =
        meshgrid::io::read_grid3(&mut simpar.locals[host].file.as_slice(), 0).unwrap();
    assert_eq!(g.extent(), (10, 8, 1));

    // And the message-passing execution of the same hosted plan agrees.
    let init_fn: mesh_archetype::plan::InitFn<Ckpt> = Arc::new(init_fresh);
    let msg = mesh_archetype::driver::run_msg_simulated_hosted(
        &plan,
        pg,
        &init_fn,
        HostMode::Separate,
        &mut RoundRobin::new(),
    )
    .unwrap();
    assert_eq!(msg.snapshots, simpar.snapshots);
}
