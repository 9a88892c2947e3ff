//! Version A end-to-end: the paper's near-field electromagnetics code,
//! parallelized with the mesh archetype and priced on the IBM SP model.
//!
//! ```sh
//! cargo run --release --example fdtd_scattering
//! ```

use std::sync::Arc;

use archetypes::fdtd::par::{init_a, plan_a};
use archetypes::fdtd::{run_seq_version_a, Params};
use archetypes::machine::{ibm_sp, ideal_time};
use archetypes::mesh::driver::{run_simpar, SimParConfig};
use archetypes::grid::ProcGrid3;

fn main() {
    // A mid-size scattering problem: dielectric sphere in a PEC box,
    // Gaussian pulse excitation.
    let mut params = Params::table1();
    params.steps = 64;
    let params = Arc::new(params);

    println!(
        "FDTD version A: {}x{}x{} cells, {} steps, lossy dielectric sphere",
        params.n.0, params.n.1, params.n.2, params.steps
    );

    // Original sequential program.
    let seq = run_seq_version_a(&params);
    println!("sequential: final field energy = {:.6e}", seq.fields.energy());

    // Archetype-parallelized at several process counts, with modeled times.
    let machine = ibm_sp();
    let plan = plan_a(&params);
    let mut t_seq = None;
    for p in [1usize, 2, 4, 8] {
        let pg = ProcGrid3::choose(params.n, p);
        let init = init_a(params.clone());
        let cfg = SimParConfig::default();
        let mut out = run_simpar(&plan, pg, cfg, |e| init(e));
        let modeled = machine.price_trace(&out.trace);
        let t_seq = *t_seq.get_or_insert(modeled);

        // Verify against the sequential run, bitwise.
        let ez = out.assemble_global(&pg, |l| &mut l.fields.ez);
        let seq_ez = seq.fields.ez.interior_to_vec();
        let par_ez = ez.interior_to_vec();
        let identical =
            seq_ez.iter().zip(&par_ez).all(|(a, b)| a.to_bits() == b.to_bits());

        println!(
            "P = {p}: arrangement {:?}, modeled {:.3}s (ideal {:.3}s), speedup {:.2}, \
             Ez bitwise-identical to sequential: {identical}",
            pg.p,
            modeled,
            ideal_time(t_seq, p),
            t_seq / modeled,
        );
    }
}
