//! The one-sided, coalesced halo exchange carries *exactly* what the Yee
//! kernels read (DESIGN.md, "What an exchange carries").
//!
//! * **Sufficiency by poisoning.** Every ghost slab that faces a neighbour
//!   starts as NaN. A NaN that any kernel reads reaches an interior cell
//!   (`0 · NaN` is NaN, so not even a PEC cell masks it), so interiors
//!   bitwise equal to the sequential program's prove every ghost cell a
//!   kernel reads was refreshed first. The negative control drops one face
//!   from one part at a time and must fail every time — the test has the
//!   power to see a missing face, and no face of [`HaloFaces::YEE`] is
//!   spare.
//! * **Exact traffic.** Per time step one E and one H message per adjacent
//!   rank pair, of a closed-form size, on every driver; on the threaded
//!   runner's grouped placement, one per adjacent *group* pair, carrying
//!   the faces between groups.

use std::sync::Arc;

use fdtd::par::{
    init_a, init_c, plan_a, plan_a_overlap, plan_a_with_halo, plan_c, HaloFaces, LocalA, LocalC,
};
use fdtd::{
    run_seq_version_a, run_seq_version_c, BoundaryCondition, FarFieldSpec, FarFieldStrategy,
    Fields, Params,
};
use mesh_archetype::driver::{run_simpar, SimParConfig};
use mesh_archetype::plan::InitFn;
use mesh_archetype::exchange::face_links;
use mesh_archetype::{
    run_msg_simulated, run_msg_threaded_slack, Env, Plan, SimParOutcome, SumMethod,
};
use meshgrid::halo::{insert_ghost3, slab_len3, Face3};
use meshgrid::ProcGrid3;
use ssp_runtime::{RoundRobin, ThreadedConfig};

const PROCESS_COUNTS: [usize; 4] = [2, 4, 8, 27];

fn tiny_with(bc: BoundaryCondition) -> Arc<Params> {
    let mut p = Params::tiny();
    p.bc = bc;
    Arc::new(p)
}

/// Fill with NaN every ghost slab of all six components that faces a
/// neighbouring rank. Ghosts on the physical boundary stay zero, as in the
/// sequential program. Reads only the block, so a fused box's state is
/// poisoned as its ranks' are.
fn poison(fields: &mut Fields, env: &Env) {
    for face in Face3::ALL {
        let (axis, dir) = face.axis_dir();
        let outer = if dir < 0 { env.at_global_lo(axis) } else { env.at_global_hi(axis) };
        if outer.unwrap() {
            continue;
        }
        let nan = vec![f64::NAN; slab_len3(fields.extent(), 1, face)];
        let Fields { ex, ey, ez, hx, hy, hz } = fields;
        for g in [ex, ey, ez, hx, hy, hz] {
            insert_ghost3(g, face, &nan);
        }
    }
}

fn poisoned_a(params: &Arc<Params>) -> InitFn<LocalA> {
    let base = init_a(params.clone());
    Arc::new(move |env: &Env| {
        let mut l = base(env);
        poison(&mut l.fields, env);
        l
    })
}

fn poisoned_c(params: &Arc<Params>, spec: &FarFieldSpec, s: FarFieldStrategy) -> InitFn<LocalC> {
    let base = init_c(params.clone(), spec.clone(), s);
    Arc::new(move |env: &Env| {
        let mut l = base(env);
        poison(&mut l.a.fields, env);
        l
    })
}

/// True if the six assembled interiors equal the sequential fields bitwise.
fn interiors_match<L>(
    out: &mut SimParOutcome<L>,
    pg: &ProcGrid3,
    fields_of: impl Fn(&mut L) -> &mut Fields + Copy,
    seq: &Fields,
) -> bool {
    let parts = [
        (out.assemble_global(pg, |l| &mut fields_of(l).ex), &seq.ex),
        (out.assemble_global(pg, |l| &mut fields_of(l).ey), &seq.ey),
        (out.assemble_global(pg, |l| &mut fields_of(l).ez), &seq.ez),
        (out.assemble_global(pg, |l| &mut fields_of(l).hx), &seq.hx),
        (out.assemble_global(pg, |l| &mut fields_of(l).hy), &seq.hy),
        (out.assemble_global(pg, |l| &mut fields_of(l).hz), &seq.hz),
    ];
    parts.iter().all(|(par, seq)| par.interior_bitwise_eq(seq))
}


/// Run `plan` from a poisoned start on all three drivers; the simulated-
/// parallel interiors must equal `seq`, the message-passing snapshots the
/// simulated-parallel ones.
fn check_poisoned_a(plan: &Plan<LocalA>, params: &Arc<Params>, seq: &Fields, what: &str) {
    let init = poisoned_a(params);
    for p in PROCESS_COUNTS {
        let pg = ProcGrid3::choose(params.n, p);
        let mut out = run_simpar(plan, pg, SimParConfig::default(), |e| init(e));
        assert!(
            interiors_match(&mut out, &pg, |l| &mut l.fields, seq),
            "{what} P={p}: a kernel read a ghost cell no exchange refreshed"
        );
        let msg = run_msg_simulated(plan, pg, &init, &mut RoundRobin::new()).unwrap();
        assert_eq!(msg.snapshots, out.snapshots, "{what} P={p}: simulated message passing");
        let cfg = ThreadedConfig::with_watchdog(std::time::Duration::from_secs(30));
        let thr = run_msg_threaded_slack(plan, pg, &init, None, cfg).unwrap();
        assert_eq!(thr.snapshots, out.snapshots, "{what} P={p}: threaded");
    }
}

#[test]
fn poisoned_ghosts_never_reach_an_interior_under_plan_a_and_overlap() {
    for bc in [BoundaryCondition::Mur1, BoundaryCondition::Pec] {
        let params = tiny_with(bc);
        let seq = run_seq_version_a(&params).fields;
        check_poisoned_a(&plan_a(&params), &params, &seq, &format!("plan_a {bc:?}"));
        check_poisoned_a(&plan_a_overlap(&params), &params, &seq, &format!("overlap {bc:?}"));
    }
}

#[test]
fn poisoned_ghosts_never_reach_an_interior_under_plan_c() {
    let spec = FarFieldSpec::standard(2);
    let strategy = FarFieldStrategy::Ordered(SumMethod::Naive);
    for bc in [BoundaryCondition::Mur1, BoundaryCondition::Pec] {
        let params = tiny_with(bc);
        let seq = run_seq_version_c(&params, &spec);
        let plan = plan_c(&params, &spec, strategy);
        let init = poisoned_c(&params, &spec, strategy);
        for p in PROCESS_COUNTS {
            let pg = ProcGrid3::choose(params.n, p);
            let mut out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
            assert!(
                interiors_match(&mut out, &pg, |l| &mut l.a.fields, &seq.fields),
                "plan_c {bc:?} P={p}: a kernel read a ghost cell no exchange refreshed"
            );
            let pots = &out.locals[0].potentials;
            assert!(
                pots.iter().zip(&seq.potentials).all(|(a, b)| a.to_bits() == b.to_bits()),
                "plan_c {bc:?} P={p}: far field"
            );
            let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
            assert_eq!(msg.snapshots, out.snapshots, "plan_c {bc:?} P={p}: message passing");
        }
    }
}

/// Negative control: with any single face dropped from any single part the
/// poison reaches the interior. 2×2×2 ranks use every face kind.
#[test]
fn dropping_any_one_face_of_any_part_lets_the_poison_through() {
    let params = tiny_with(BoundaryCondition::Mur1);
    let seq = run_seq_version_a(&params).fields;
    let pg = ProcGrid3::choose(params.n, 8);
    assert_eq!(pg.p, (2, 2, 2));
    let init = poisoned_a(&params);
    let run = |faces: &HaloFaces| {
        let plan = plan_a_with_halo(&params, faces);
        let cfg = SimParConfig::default();
        let mut out = run_simpar(&plan, pg, cfg, |e| init(e));
        interiors_match(&mut out, &pg, |l| &mut l.fields, &seq)
    };
    assert!(run(&HaloFaces::YEE), "the control itself must pass");
    let mut dropped = 0;
    for part in 0..6 {
        let set_of = |f: &HaloFaces| if part < 3 { f.e[part] } else { f.h[part - 3] };
        for face in set_of(&HaloFaces::YEE).iter() {
            let mut faces = HaloFaces::YEE;
            let slot = if part < 3 { &mut faces.e[part] } else { &mut faces.h[part - 3] };
            *slot = slot.without(face);
            assert!(!run(&faces), "part {part} without {face:?} still matched: the face is spare");
            dropped += 1;
        }
    }
    assert_eq!(dropped, 12, "two transverse faces for each of six components");
}

/// `Σ` over the cut planes of the partition of their areas, in cells.
fn cut_area(pg: &ProcGrid3) -> u64 {
    let (nx, ny, nz) = (pg.n.0 as u64, pg.n.1 as u64, pg.n.2 as u64);
    let (px, py, pz) = (pg.p.0 as u64, pg.p.1 as u64, pg.p.2 as u64);
    (px - 1) * ny * nz + (py - 1) * nx * nz + (pz - 1) * nx * ny
}

/// Number of adjacent rank pairs.
fn adjacent_pairs(pg: &ProcGrid3) -> u64 {
    let (px, py, pz) = (pg.p.0 as u64, pg.p.1 as u64, pg.p.2 as u64);
    (px - 1) * py * pz + px * (py - 1) * pz + px * py * (pz - 1)
}

/// Exact traffic: each half-step moves one message per adjacent rank pair
/// (E toward −axis, H toward +axis) carrying the two components transverse
/// to the pair's axis, so a step is `2 · pairs` messages and
/// `2 · 2 · 8 · cut_area` bytes — and the simulated scheduler and the
/// threaded runner with a worker per rank count the same, channel by
/// channel.
#[test]
fn traffic_per_step_is_two_messages_per_adjacent_pair_of_closed_form_size() {
    let params = tiny_with(BoundaryCondition::Mur1);
    let steps = params.steps as u64;
    let init = init_a(params.clone());
    for p in PROCESS_COUNTS {
        let pg = ProcGrid3::choose(params.n, p);
        let (pairs, area) = (adjacent_pairs(&pg), cut_area(&pg));
        // The overlapped plan's prologue is one more E half-exchange.
        for (plan, halves) in [(plan_a(&params), 2 * steps), (plan_a_overlap(&params), 2 * steps + 1)]
        {
            let (msgs, bytes) = (halves * pairs, halves * 16 * area);
            let sim = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
            assert_eq!(sim.metrics.total_messages(), msgs, "P={p} simulated messages");
            assert_eq!(sim.metrics.total_bytes(), bytes, "P={p} simulated bytes");
            let cfg = ThreadedConfig::with_watchdog(std::time::Duration::from_secs(30));
            let thr = run_msg_threaded_slack(&plan, pg, &init, None, cfg.with_workers(p)).unwrap();
            assert_eq!(thr.metrics.procs.len(), p, "P={p}: a worker per rank runs per rank");
            assert_eq!(thr.metrics.total_messages(), msgs, "P={p} threaded messages");
            assert_eq!(thr.metrics.total_bytes(), bytes, "P={p} threaded bytes");
            // Per channel too: the threaded run's channel counters are the
            // simulated run's.
            let counters = |m: &ssp_runtime::RunMetrics| {
                let channels = m.channels.iter();
                channels.map(|c| (c.writer, c.reader, c.messages, c.bytes)).collect::<Vec<_>>()
            };
            assert_eq!(counters(&thr.metrics), counters(&sim.metrics), "P={p}");
        }
    }
}

/// Adjacent group pairs, and the area in cells of the faces between
/// different groups, when `w` groups of contiguous ranks (sizes differing
/// by at most one) share `pg`.
fn group_cut(pg: &ProcGrid3, w: usize) -> (u64, u64) {
    let n = pg.nprocs();
    let group = |r: usize| (0..w).find(|&g| r < (g + 1) * n / w).unwrap();
    let mut pairs = std::collections::BTreeSet::new();
    let mut area = 0;
    for r in 0..n {
        let (bx, by, bz) = pg.block(r).extent();
        // Each rank pair once: through the low rank's high faces.
        for link in face_links(pg, r).into_iter().filter(|l| l.neighbor > r) {
            let (g, h) = (group(r), group(link.neighbor));
            if g != h {
                pairs.insert((g, h));
                area += [by * bz, bx * bz, bx * by][link.face.axis_dir().0] as u64;
            }
        }
    }
    (pairs.len() as u64, area)
}

/// The grouped closed form: with W < P pool workers each half-step moves
/// one message per adjacent *group* pair, carrying the two transverse
/// components of every face between the two groups — `2 · steps · group
/// pairs` messages and `2 · steps · 16 · inter-group cut area` bytes for
/// `plan_a` — and the result is unchanged.
#[test]
fn grouped_traffic_is_two_messages_per_adjacent_group_pair_of_closed_form_size() {
    let params = tiny_with(BoundaryCondition::Mur1);
    let steps = params.steps as u64;
    let init = init_a(params.clone());
    for p in PROCESS_COUNTS {
        let pg = ProcGrid3::choose(params.n, p);
        for w in (1..=3).filter(|&w| w < p) {
            let (pairs, area) = group_cut(&pg, w);
            let plans = [(plan_a(&params), 2 * steps), (plan_a_overlap(&params), 2 * steps + 1)];
            for (plan, halves) in plans {
                let sim = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
                let cfg = ThreadedConfig::with_watchdog(std::time::Duration::from_secs(30))
                    .with_workers(w);
                let thr = run_msg_threaded_slack(&plan, pg, &init, None, cfg).unwrap();
                assert_eq!(thr.snapshots, sim.snapshots, "P={p} W={w}");
                assert_eq!(thr.metrics.procs.len(), w, "P={p} W={w}: one process per group");
                assert_eq!(thr.metrics.total_messages(), halves * pairs, "P={p} W={w} messages");
                assert_eq!(thr.metrics.total_bytes(), halves * 16 * area, "P={p} W={w} bytes");
            }
        }
    }
}
