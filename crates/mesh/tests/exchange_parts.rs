//! A boundary exchange that carries a *set of (field, ghost-faces)* parts:
//! one coalesced message per link, only toward the ghosts some part
//! refreshes.
//!
//! The program is a two-field upwind update whose stencil reads `u`'s
//! low-x and low-z ghosts and `v`'s high-y ghost and nothing else, so its
//! exchange carries exactly those three (field, face) pairs.

use std::sync::Arc;

use mesh_archetype::driver::{
    build_msg_processes, MeshLocal, MeshMsg, SimParConfig,
};
use mesh_archetype::plan::InitFn;
use mesh_archetype::{
    run_msg_simulated, run_msg_threaded, run_seq, run_simpar, Env, ExchangeSpec, Plan,
};
use meshgrid::halo::Face3::{self, XLo, YHi, ZLo};
use meshgrid::{FaceSet3, Grid3, ProcGrid3};
use ssp_runtime::rng::SplitMix64;
use ssp_runtime::{
    Adversary, AdversarialPolicy, Effect, Process, RandomPolicy, RoundRobin, RunError,
    SchedulePolicy,
};

struct Wind {
    u: Grid3<f64>,
    v: Grid3<f64>,
    next_u: Grid3<f64>,
    next_v: Grid3<f64>,
}

impl MeshLocal for Wind {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = meshgrid::io::grid3_to_bytes(&self.u);
        buf.extend_from_slice(&meshgrid::io::grid3_to_bytes(&self.v));
        buf
    }
}

fn init_wind(env: &Env) -> Wind {
    let (nx, ny, nz) = env.block.extent();
    let b = env.block;
    let of_global = |scale: f64| {
        Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
            let (gi, gj, gk) = b.to_global(i, j, k);
            ((gi * 5 + gj * 3 + gk * 7) % 13) as f64 * scale - 1.0
        })
    };
    Wind {
        u: of_global(0.25),
        v: of_global(0.125),
        next_u: Grid3::new(nx, ny, nz, 1),
        next_v: Grid3::new(nx, ny, nz, 1),
    }
}

fn halo() -> ExchangeSpec<Wind> {
    ExchangeSpec::new("halo")
        .part(|w: &mut Wind| &mut w.u, FaceSet3::of(&[XLo, ZLo]))
        .part(|w: &mut Wind| &mut w.v, FaceSet3::of(&[YHi]))
}

fn wind_plan(steps: usize) -> Plan<Wind> {
    Plan::builder()
        .loop_n(steps, |b| {
            b.exchange_parts(halo()).local("upwind", |_, w: &mut Wind| {
                let (nx, ny, nz) = w.u.extent();
                for i in 0..nx as isize {
                    for j in 0..ny as isize {
                        for k in 0..nz as isize {
                            let (u, v) = (w.u.get(i, j, k), w.v.get(i, j, k));
                            let nu = u
                                + 0.25 * (w.u.get(i - 1, j, k) - u)
                                + 0.125 * (w.v.get(i, j + 1, k) - v);
                            let nv = v + 0.5 * (w.u.get(i, j, k - 1) - u);
                            w.next_u.set(i, j, k, nu);
                            w.next_v.set(i, j, k, nv);
                        }
                    }
                }
                std::mem::swap(&mut w.u, &mut w.next_u);
                std::mem::swap(&mut w.v, &mut w.next_v);
            })
        })
        .build()
}

const N: (usize, usize, usize) = (7, 6, 5);

#[test]
fn one_sided_parts_reproduce_the_sequential_program_on_every_driver() {
    let plan = wind_plan(6);
    let seq = run_seq(&plan, N, init_wind);
    let init: InitFn<Wind> = Arc::new(init_wind);
    for p in [2usize, 3, 4, 8, 12] {
        let pg = ProcGrid3::choose(N, p);
        let cfg = SimParConfig::default();
        let mut simpar = run_simpar(&plan, pg, cfg, init_wind);
        let u = simpar.assemble_global(&pg, |w| &mut w.u);
        let v = simpar.assemble_global(&pg, |w| &mut w.v);
        assert!(u.interior_bitwise_eq(&seq.u), "P={p}: u diverged from the sequential run");
        assert!(v.interior_bitwise_eq(&seq.v), "P={p}: v diverged from the sequential run");

        let mut policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomPolicy::seeded(41 + p as u64)),
            Box::new(AdversarialPolicy::new(Adversary::LowestFirst)),
            Box::new(AdversarialPolicy::new(Adversary::HighestFirst)),
            Box::new(AdversarialPolicy::new(Adversary::PingPong)),
        ];
        for policy in policies.iter_mut() {
            let out = run_msg_simulated(&plan, pg, &init, policy.as_mut()).unwrap();
            assert_eq!(out.snapshots, simpar.snapshots, "P={p} under {}", policy.name());
        }
        assert_eq!(run_msg_threaded(&plan, pg, &init).unwrap(), simpar.snapshots, "P={p}");
    }
}

/// One message per link and direction some part crosses, sized as the sum
/// of the crossing slabs — and the simulated-parallel trace records, pair
/// by pair, what the message-passing program's channels count.
#[test]
fn coalesced_traffic_is_the_same_in_the_trace_and_on_the_channels() {
    let steps = 3;
    let plan = wind_plan(steps);
    let init: InitFn<Wind> = Arc::new(init_wind);
    let pg = ProcGrid3::new(N, (2, 2, 2));
    let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_wind);
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();

    // 2×2×2: four adjacent pairs per axis, each crossed one way only.
    assert_eq!(msg.metrics.total_messages(), (steps * 12) as u64);
    assert_eq!(simpar.trace.total_messages(), msg.metrics.total_messages());
    assert_eq!(simpar.trace.total_bytes(), msg.metrics.total_bytes());
    for c in &msg.metrics.channels {
        let of_pair = simpar
            .trace
            .phases
            .iter()
            .flat_map(|ph| &ph.msgs)
            .filter(|m| m.src == c.writer && m.dst == c.reader);
        let (n, b) = of_pair.fold((0, 0), |(n, b), m| (n + 1, b + m.bytes));
        assert_eq!((c.messages, c.bytes), (n, b), "channel {}→{}", c.writer, c.reader);
    }
    // u travels toward +x and +z, v toward −y: rank 0 (the low corner)
    // sends u twice and v never.
    let sent_by_0: u64 = msg.metrics.channels.iter().filter(|c| c.writer == 0).map(|c| c.messages).sum();
    assert_eq!(sent_by_0, (steps * 2) as u64);
}

/// Restriction (iii) on a one-sided exchange: with `u` flowing toward +x
/// only, rank 0 of a line has no inbound link and is send-only. Theorem 1
/// never uses (iii) (DESIGN.md §17): the program runs, sends only the
/// downwind messages, and the message-passing run matches it.
#[test]
fn a_rank_without_an_inbound_link_is_not_a_violation() {
    let plan: Plan<Wind> = Plan::builder()
        .loop_n(2, |b| {
            b.exchange_parts(
                ExchangeSpec::new("downwind").part(|w: &mut Wind| &mut w.u, FaceSet3::of(&[XLo])),
            )
        })
        .build();
    let pg = ProcGrid3::new(N, (3, 1, 1));
    let out = run_simpar(&plan, pg, SimParConfig::default(), init_wind);
    assert_eq!(out.trace.total_messages(), 4, "0→1 and 1→2, twice");
    let init: InitFn<Wind> = Arc::new(init_wind);
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
    assert_eq!(msg.snapshots, out.snapshots);
}

/// Drive `p` until it asks to receive.
fn drive_to_recv<P: Process<Msg = MeshMsg>>(p: &mut P) {
    loop {
        match p.resume(None) {
            Effect::Recv { .. } => return,
            Effect::Send { .. } | Effect::Compute { .. } => continue,
            other => panic!("expected a receive, got {other:?}"),
        }
    }
}

/// A coalesced payload of the wrong length arrived over a channel: a typed
/// protocol fault naming the sender and the part, never a panic.
#[test]
fn hostile_coalesced_payloads_fault_typed_naming_sender_and_part() {
    // Two ranks along z: rank 1 receives `u` (part 0) through its ZLo from
    // rank 0, 7·6 = 42 values. Two parts cross when v also flows that way.
    let spec = || {
        ExchangeSpec::new("halo")
            .part(|w: &mut Wind| &mut w.u, FaceSet3::of(&[ZLo]))
            .part(|w: &mut Wind| &mut w.v, FaceSet3::of(&[ZLo]))
    };
    let plan: Plan<Wind> = Plan::builder().exchange_parts(spec()).build();
    let pg = ProcGrid3::new(N, (1, 1, 2));
    let init: InitFn<Wind> = Arc::new(init_wind);
    let slab = N.0 * N.1;
    for (len, needle) in [
        (2 * slab - 1, "part 1"),                         // short by one value
        (slab, "part 1"),                                 // short by one part
        (2 * slab + 1, "1 past the end of part 1"),       // one value long
        (0, "part 0"),
    ] {
        let (_, mut procs) = build_msg_processes(&plan, pg, &init);
        let receiver = &mut procs[1];
        drive_to_recv(receiver);
        match receiver.resume(Some(MeshMsg::Halo(vec![0.5; len]))) {
            Effect::Fault { error: RunError::Protocol { proc, detail } } => {
                assert_eq!(proc, 1);
                assert!(detail.contains("from rank 0"), "{detail}");
                assert!(detail.contains(needle), "len {len}: {detail}");
            }
            other => panic!("len {len}: expected a protocol fault, got {other:?}"),
        }
    }
    // The right length is accepted and the program runs on to its end.
    let (_, mut procs) = build_msg_processes(&plan, pg, &init);
    drive_to_recv(&mut procs[1]);
    assert!(matches!(procs[1].resume(Some(MeshMsg::Halo(vec![0.5; 2 * slab]))), Effect::Halt));
}

/// A halo sized for another block is the receiver's typed protocol fault
/// naming the sender, on either driver — never a panic.
#[test]
fn mis_sized_halo_is_the_same_typed_error_on_every_driver() {
    let plan: Plan<Wind> = Plan::builder()
        .exchange_parts(ExchangeSpec::new("up").part(|w: &mut Wind| &mut w.u, FaceSet3::of(&[ZLo])))
        .build();
    let pg = ProcGrid3::new(N, (1, 1, 2));
    // Rank 1's `u` is one row short along y, so rank 0's slab does not fit.
    let init: InitFn<Wind> = Arc::new(|e: &Env| {
        let mut w = init_wind(e);
        if e.rank == 1 {
            let (nx, ny, nz) = e.block.extent();
            w.u = Grid3::new(nx, ny - 1, nz, 1);
        }
        w
    });
    let err = mesh_archetype::try_run_simpar(&plan, pg, SimParConfig::default(), |e| init(e))
        .err()
        .expect("a mis-sized halo must not succeed");
    let from_rank_0 = |d: &str| d.starts_with("halo from rank 0: ");
    let typed = matches!(&err, RunError::Protocol { proc: 1, detail } if from_rank_0(detail));
    assert!(typed, "{err:?}");
    let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).err();
    assert_eq!(msg, Some(err));
}

/// Two fields with NaN-poisoned ghosts and, per rank, interior values that
/// name their global cell and field.
struct Pair {
    f: [Grid3<f64>; 2],
}

impl MeshLocal for Pair {
    /// Every stored cell, ghosts included: the drivers must agree on the
    /// poison left behind as much as on the values installed.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let cells = self.f.iter().flat_map(|g| g.raw());
        cells.flat_map(|v| v.to_bits().to_le_bytes()).collect()
    }
}

const POISON: f64 = f64::NAN;

/// The value field `f` holds at global cell `g`.
fn named(f: usize, g: (usize, usize, usize)) -> f64 {
    (f * 1_000_000 + g.0 * 10_000 + g.1 * 100 + g.2) as f64
}

fn init_pair(env: &Env) -> Pair {
    let (nx, ny, nz) = env.block.extent();
    let field = |f| {
        let mut g = Grid3::new(nx, ny, nz, 1);
        g.fill(POISON);
        let b = env.block;
        g.for_each_interior(|i, j, k, v| *v = named(f, b.to_global(i, j, k)));
        g
    };
    Pair { f: [field(0), field(1)] }
}

/// The value ghost cell `(i, j, k)` of field `f` on `rank` must hold after
/// one exchange by `parts`: the neighbour's interior value when the cell
/// lies in the ghost slab behind a face some part of `f` names and a
/// neighbour sits across it, the poison otherwise (edges and corners
/// included).
fn expected_ghost(
    pg: &ProcGrid3,
    rank: usize,
    parts: &[(usize, FaceSet3)],
    f: usize,
    (i, j, k): (isize, isize, isize),
) -> f64 {
    let b = pg.block(rank);
    let (nx, ny, nz) = b.extent();
    let outside = |c: isize, n: usize| match c {
        c if c < 0 => Some(-1),
        c if c >= n as isize => Some(1),
        _ => None,
    };
    let dirs = [outside(i, nx), outside(j, ny), outside(k, nz)];
    let mut out = dirs.iter().enumerate().filter_map(|(axis, d)| d.map(|d| (axis, d)));
    let (Some((axis, dir)), None) = (out.next(), out.next()) else {
        return POISON;
    };
    let face = Face3::from_axis_dir(axis, dir);
    let named_by_a_part = parts.iter().any(|&(pf, ghosts)| pf == f && ghosts.contains(face));
    if !named_by_a_part || pg.neighbor(rank, axis, dir).is_none() {
        return POISON;
    }
    let g = |c: isize, lo: usize| (lo as isize + c) as usize;
    named(f, (g(i, b.lo.0), g(j, b.lo.1), g(k, b.lo.2)))
}

/// What the §2.2 checker claimed, checked on the cells themselves: for
/// random exchange specs — one to four parts over two fields, random face
/// sets, some naming one field twice — on random grids and process counts,
/// one exchange fills exactly the ghost cells a part names from the
/// neighbour's interior, leaves every other ghost poisoned, and the
/// simulated-parallel and message-passing runs agree bit for bit.
#[test]
fn random_exchanges_fill_exactly_the_named_ghosts_on_both_drivers() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0022);
    let (mut runs, mut field_named_twice) = (0, 0);
    while runs < 150 {
        let n = (1 + rng.gen_range(6), 1 + rng.gen_range(6), 1 + rng.gen_range(6));
        let Ok(pg) = ProcGrid3::try_choose(n, 1 + rng.gen_range(12)) else {
            continue;
        };
        let parts: Vec<(usize, FaceSet3)> = (0..1 + rng.gen_range(4))
            .map(|_| {
                let faces: Vec<Face3> =
                    Face3::ALL.into_iter().filter(|_| rng.gen_range(2) == 1).collect();
                (rng.gen_range(2), FaceSet3::of(&faces))
            })
            .collect();
        field_named_twice += usize::from(parts.iter().filter(|p| p.0 == 0).count() > 1);
        let spec = parts.iter().fold(ExchangeSpec::new("random"), |spec, &(f, ghosts)| {
            spec.part(move |l: &mut Pair| &mut l.f[f], ghosts)
        });
        let plan: Plan<Pair> = Plan::builder().exchange_parts(spec).build();
        let simpar = run_simpar(&plan, pg, SimParConfig::default(), init_pair);
        for (rank, local) in simpar.locals.iter().enumerate() {
            for (f, grid) in local.f.iter().enumerate() {
                let (nx, ny, nz) = grid.extent();
                for i in -1..=nx as isize {
                    for j in -1..=ny as isize {
                        for k in -1..=nz as isize {
                            let inside = (0..nx as isize).contains(&i)
                                && (0..ny as isize).contains(&j)
                                && (0..nz as isize).contains(&k);
                            let b = pg.block(rank);
                            let want = if inside {
                                named(f, b.to_global(i as usize, j as usize, k as usize))
                            } else {
                                expected_ghost(&pg, rank, &parts, f, (i, j, k))
                            };
                            assert_eq!(
                                grid.get(i, j, k).to_bits(),
                                want.to_bits(),
                                "{n:?} P={} parts {parts:?}: rank {rank} field {f} cell {:?}",
                                pg.nprocs(),
                                (i, j, k)
                            );
                        }
                    }
                }
            }
        }
        let init: InitFn<Pair> = Arc::new(init_pair);
        let msg = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
        assert_eq!(msg.snapshots, simpar.snapshots, "{n:?} P={} parts {parts:?}", pg.nprocs());
        runs += 1;
    }
    assert!(field_named_twice > 10, "only {field_named_twice} specs named a field twice");
}
