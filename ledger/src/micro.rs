//! Micro-benchmarks of single layers, each timing calls into a crate's
//! public functions from outside. They run only in the traced run, as
//! spans of their own, and never while an end-to-end repetition is timed.
//! At most two threads are busy at a time.

use std::hint::black_box;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fdtd::par::{init_a, plan_a};
use fdtd::update::{
    update_e, update_e_boundary, update_e_interior, update_h, update_h_boundary, update_h_interior,
};
use fdtd::{Fields, Material, MaterialSpec, Params};
use machine_model::ibm_sp;
use mesh_archetype::driver::{decode_mesh_msg, encode_mesh_msg, MeshMsg};
use mesh_archetype::run_msg_predicted;
use meshgrid::halo::{extract_face3_into, try_insert_ghost3, Face3};
use meshgrid::{Block3, Grid3, ProcGrid3};
use ssp_dist::frame::{decode_data, encode_data, read_frame, write_frame, Frame, FrameType};
use ssp_dist::shm::{ShmReceiver, ShmSender, SHM_CAPACITY};
use ssp_dist::{ring_args, run_distributed, DistConfig};
use ssp_runtime::rng::SplitMix64;
use ssp_runtime::{
    fnv1a_64, run_simulated, run_threaded_with, ChannelId, Effect, ParkSlot, Process, RoundRobin,
    SpscRing, ThreadedConfig, Topology,
};

use crate::measure::median;
use crate::spans::Tracer;

/// One x-face of a 33×33×66 section: 33×66 doubles, the ≈ 17 KB halo
/// payload of `fdtd_compute` and `fdtd_dist`.
const FACE_F64S: usize = 33 * 66;
const FACE_BYTES: usize = 8 * FACE_F64S;
const KIB: f64 = 1024.0;

/// Median nanoseconds per call of `f`: batches sized to ≈ 4 ms, nine
/// timed batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_millis(4) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Median of `reps` wall-clock timings of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

// -- fdtd -------------------------------------------------------------------

/// Nanoseconds per cell of one full time step (H pass + E pass) on an
/// `n` grid holding seeded, normal-range field values. `split` runs the
/// boundary-shell and interior halves the overlap plan uses instead of
/// the whole-grid kernels.
fn kernel_ns_per_cell(n: (usize, usize, usize), split: bool, seed: u64) -> f64 {
    let spec = MaterialSpec::dielectric_sphere(
        (n.0 as f64 * 0.6, n.1 as f64 * 0.4, n.2 as f64 * 0.5),
        n.0 as f64 * 0.2,
        4.0,
        0.02,
    );
    let m = Material::build(&spec, Block3 { lo: (0, 0, 0), hi: n }, 0.5);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut init = Fields::zeros(n.0, n.1, n.2);
    for g in [&mut init.ex, &mut init.ey, &mut init.ez, &mut init.hx, &mut init.hy, &mut init.hz] {
        for i in 0..n.0 as isize {
            for j in 0..n.1 as isize {
                for k in 0..n.2 as isize {
                    g.set(i, j, k, rng.next_u64() as f64 / u64::MAX as f64 - 0.5);
                }
            }
        }
    }
    let mut f = init.clone();
    let mut steps = 0u32;
    let ns = ns_per_call(|| {
        // Restart from the seeded state now and then: a lossy medium
        // decays, and subnormal values would time a different kernel.
        if steps.is_multiple_of(64) {
            f.clone_from(&init);
        }
        steps += 1;
        if split {
            update_h_boundary(&mut f, &m);
            update_h_interior(&mut f, &m);
            update_e_boundary(&mut f, &m);
            update_e_interior(&mut f, &m);
        } else {
            update_h(&mut f, &m);
            update_e(&mut f, &m);
        }
    });
    black_box(&f);
    ns / (n.0 * n.1 * n.2) as f64
}

// -- meshgrid ---------------------------------------------------------------

/// `[pack_x, pack_z, unpack_x, unpack_z]` in ns per payload byte on an
/// 11³ section with one ghost layer (the `fdtd_surface` section). An
/// x-face is 11 contiguous rows of 11; a z-face is 121 strided cells.
fn halo_ns_per_byte() -> [f64; 4] {
    let mut g = Grid3::from_fn(11, 11, 11, 1, |i, j, k| (i + 11 * j + 121 * k) as f64);
    let mut out = [0.0; 4];
    for (slot, face) in [(0, Face3::XLo), (1, Face3::ZLo)] {
        let mut buf = Vec::new();
        out[slot] = ns_per_call(|| {
            buf.clear();
            extract_face3_into(&g, face, &mut buf);
            black_box(&buf);
        }) / (8 * buf.len()) as f64;
        out[slot + 2] = ns_per_call(|| {
            try_insert_ghost3(&mut g, face, &buf).expect("payload came from the same face");
        }) / (8 * buf.len()) as f64;
    }
    black_box(&g);
    out
}

// -- mesh -------------------------------------------------------------------

fn mesh_codec_ns_per_kib() -> f64 {
    let msg = MeshMsg::Halo((0..FACE_F64S).map(|i| i as f64 * 0.5).collect());
    ns_per_call(|| {
        let bytes = encode_mesh_msg(black_box(&msg));
        black_box(decode_mesh_msg(&bytes).expect("round trip"));
    }) / (FACE_BYTES as f64 / KIB)
}

// -- ssp-runtime ------------------------------------------------------------

/// The threaded runner's blocking protocol over the lock-free ring (the
/// logic of `crates/bench/benches/channels.rs`).
struct RingChan {
    ring: SpscRing<u64>,
    reader: ParkSlot,
    writer: ParkSlot,
}

/// How long a parked endpoint sleeps between re-checks (the runner's own
/// slice; an eager unpark arrives long before it).
const WAIT_SLICE: Duration = Duration::from_millis(50);

impl RingChan {
    fn new(cap: usize) -> RingChan {
        RingChan {
            ring: SpscRing::new(Some(cap)),
            reader: ParkSlot::new(),
            writer: ParkSlot::new(),
        }
    }

    fn send(&self, mut v: u64) {
        loop {
            match self.ring.try_push(v) {
                Ok(_) => return self.reader.wake(),
                Err(back) => v = back,
            }
            self.writer.prepare_park();
            match self.ring.try_push(v) {
                Ok(_) => {
                    self.writer.cancel_park();
                    return self.reader.wake();
                }
                Err(back) => v = back,
            }
            self.writer.park(WAIT_SLICE);
        }
    }

    fn recv(&self) -> u64 {
        loop {
            if let Some(v) = self.ring.try_pop() {
                self.writer.wake();
                return v;
            }
            self.reader.prepare_park();
            if let Some(v) = self.ring.try_pop() {
                self.reader.cancel_park();
                self.writer.wake();
                return v;
            }
            self.reader.park(WAIT_SLICE);
        }
    }
}

/// Nanoseconds per message streamed through one slack-1024 channel,
/// producer racing consumer on two threads.
fn spsc_stream_ns_per_msg() -> f64 {
    const COUNT: u64 = 200_000;
    median_secs(5, || {
        let chan = RingChan::new(1024);
        thread::scope(|s| {
            s.spawn(|| {
                chan.writer.register();
                for i in 0..COUNT {
                    chan.send(i);
                }
            });
            chan.reader.register();
            let mut sum = 0u64;
            for _ in 0..COUNT {
                sum = sum.wrapping_add(chan.recv());
            }
            black_box(sum);
        });
    }) * 1e9
        / COUNT as f64
}

/// Nanoseconds per round trip of one message bouncing across a pair of
/// slack-1 channels: the hand-off cost when the peer is parked.
fn spsc_pingpong_ns_per_rtt() -> f64 {
    const BOUNCES: u64 = 10_000;
    median_secs(5, || {
        let (there, back) = (RingChan::new(1), RingChan::new(1));
        thread::scope(|s| {
            s.spawn(|| {
                there.reader.register();
                back.writer.register();
                for _ in 0..BOUNCES {
                    back.send(there.recv() + 1);
                }
            });
            there.writer.register();
            back.reader.register();
            let mut v = 0;
            for _ in 0..BOUNCES {
                there.send(v);
                v = back.recv();
            }
            black_box(v);
        });
    }) * 1e9
        / BOUNCES as f64
}

/// One node of a token ring: rank 0 injects a token each lap and waits
/// for it to come round, every other rank receives and forwards it. A
/// bench-defined `Process`, so the scheduler's park → wake → resume path
/// is timed with no kernel in it.
struct TokenNode {
    rank: usize,
    n: usize,
    laps: u64,
    lap: u64,
    /// Rank 0 only: this lap's token is out and has not returned.
    token_out: bool,
    sum: u64,
}

impl Process for TokenNode {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        let inbound = ChannelId((self.rank + self.n - 1) % self.n);
        let outbound = ChannelId(self.rank);
        if let Some(tok) = delivery {
            self.sum = self.sum.wrapping_mul(31).wrapping_add(tok);
            if self.rank != 0 {
                self.lap += 1;
                return Effect::Send { chan: outbound, msg: tok + 1 };
            }
            self.token_out = false;
        }
        if self.rank == 0 && !self.token_out && self.lap < self.laps {
            self.lap += 1;
            self.token_out = true;
            return Effect::Send { chan: outbound, msg: self.lap };
        }
        if self.lap == self.laps && !self.token_out {
            return Effect::Halt;
        }
        Effect::Recv { chan: inbound }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.sum.to_le_bytes().to_vec()
    }
}

const TOKEN_RANKS: usize = 8;

fn token_ring(laps: u64) -> (Topology, Vec<TokenNode>) {
    let procs = (0..TOKEN_RANKS)
        .map(|rank| TokenNode { rank, n: TOKEN_RANKS, laps, lap: 0, token_out: false, sum: 0 })
        .collect();
    (Topology::ring(TOKEN_RANKS), procs)
}

/// Microseconds per hop of the token ring on `workers` scheduler threads.
fn sched_hop_us(workers: usize) -> f64 {
    const LAPS: u64 = 4_000;
    median_secs(3, || {
        let (topo, procs) = token_ring(LAPS);
        let cfg = ThreadedConfig::with_watchdog(Duration::from_secs(30)).with_workers(workers);
        black_box(run_threaded_with(&topo, procs, cfg).expect("a token ring cannot deadlock"));
    }) * 1e6
        / (LAPS * TOKEN_RANKS as u64) as f64
}

/// Atomic steps per second of the deterministic simulator on the token
/// ring: what the oracle and the tier-1 suites run on.
fn sim_steps_per_s() -> f64 {
    let mut steps = 0;
    let wall = median_secs(3, || {
        let (topo, procs) = token_ring(4_000);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).expect("no deadlock");
        steps = out.steps;
    });
    steps as f64 / wall
}

// -- ssp-dist ---------------------------------------------------------------

fn face_payload() -> Vec<u8> {
    (0..FACE_BYTES).map(|i| (i * 31 % 251) as u8).collect()
}

fn frame_codec_ns_per_kib() -> f64 {
    let msg = face_payload();
    let mut wire = Vec::new();
    ns_per_call(|| {
        wire.clear();
        let frame = Frame::new(FrameType::Data, encode_data(3, 7, black_box(&msg)));
        write_frame(&mut wire, &frame).expect("write to a Vec");
        let back = read_frame(&mut wire.as_slice()).expect("whole frame");
        black_box(decode_data(&back.payload).expect("DATA payload"));
    }) / (FACE_BYTES as f64 / KIB)
}

/// `(rtt_us_8b, us_per_frame_17kb)` over a Unix socket pair on two
/// threads: the syscall floor under every data plane.
fn socket_floor() -> (f64, f64) {
    const PINGS: usize = 5_000;
    const FRAMES: usize = 2_000;
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    let big = Frame::new(FrameType::Data, encode_data(0, 0, &face_payload()));
    let small = Frame::new(FrameType::Data, encode_data(0, 0, &[0u8; 8]));
    let mut rtt = Vec::new();
    let mut stream = Vec::new();
    thread::scope(|s| {
        let echo_small = small.clone();
        s.spawn(move || {
            // Echo small frames; count big ones and ack each batch with one.
            let mut bigs = 0;
            while let Ok(f) = read_frame(&mut b) {
                if f.payload.len() > 64 {
                    bigs += 1;
                    if bigs % FRAMES != 0 {
                        continue;
                    }
                }
                write_frame(&mut b, &echo_small).expect("echo");
            }
        });
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..PINGS {
                write_frame(&mut a, &small).expect("ping");
                read_frame(&mut a).expect("pong");
            }
            rtt.push(t0.elapsed().as_secs_f64() * 1e6 / PINGS as f64);
            let t0 = Instant::now();
            for _ in 0..FRAMES {
                write_frame(&mut a, &big).expect("stream");
            }
            read_frame(&mut a).expect("batch ack");
            stream.push(t0.elapsed().as_secs_f64() * 1e6 / FRAMES as f64);
        }
        a.flush().ok();
        a.shutdown(std::net::Shutdown::Both).ok();
    });
    (median(&rtt), median(&stream))
}

/// Microseconds to move one 17 KB payload through the file-backed ring:
/// checksum + `pwrite` on the sender, `pread` + checksum on the receiver.
fn shm_us_per_payload(dir: &Path) -> f64 {
    let path = dir.join(format!("ledger-shm-{}.ring", std::process::id()));
    let mut tx = ShmSender::create(&path, SHM_CAPACITY).expect("create ring file");
    let acked = tx.acked_handle();
    let mut rx = ShmReceiver::open(&path).expect("open ring file");
    let payload = face_payload();
    let ns = ns_per_call(|| {
        let sum = fnv1a_64(&payload);
        let off = tx.push(&payload).expect("pwrite").expect("ring has room: every push is acked");
        let (back, ack) = rx.read(off, payload.len() as u32, sum).expect("pread + checksum");
        acked.store(ack, Ordering::Release);
        black_box(back);
    });
    let _ = std::fs::remove_file(&path);
    ns / 1e3
}

/// Seconds for a distributed run that does next to nothing (`ring`, one
/// lap, two workers): spawn + HELLO/ASSIGN/PEERS + teardown.
fn dist_spawn_wall_s(worker: &Path) -> f64 {
    let mut cfg = DistConfig::new(2, worker);
    cfg.timeout = Duration::from_secs(30);
    let args = ring_args(8, 1);
    median_secs(5, || {
        black_box(run_distributed("ring", &args, &cfg).expect("minimum-size distributed run"));
    })
}

// -- perf-sim ---------------------------------------------------------------

/// Atomic steps per second of the discrete-event engine on the Table 1
/// grid at P = 27, priced on the IBM SP model.
fn des_steps_per_s(smoke: bool) -> f64 {
    let mut params = Params::table1();
    params.steps = if smoke { 4 } else { 64 };
    let params = Arc::new(params);
    let (plan, init) = (plan_a(&params), init_a(params.clone()));
    let pg = ProcGrid3::choose(params.n, 27);
    let machine = ibm_sp();
    let mut steps = 0;
    let wall = median_secs(3, || {
        let out = run_msg_predicted(&plan, pg, &init, &machine).expect("no deadlock");
        steps = out.steps;
    });
    steps as f64 / wall
}

/// What the micro-benchmarks need from the traced run.
pub struct Ctx<'a> {
    pub seed: u64,
    pub smoke: bool,
    /// The `ssp-worker` executable.
    pub worker: &'a Path,
    /// A directory inside the checkout for the ring file.
    pub tmp: &'a Path,
}

/// `(layer, span name, benchmark)`; a benchmark returns `(metric, value)` pairs.
type Micro = (&'static str, &'static str, fn(&Ctx) -> Vec<(&'static str, f64)>);

const MICROS: [Micro; 15] = [
    ("fdtd", "update.cube", |c| {
        vec![("fdtd.update.cube_ns_per_cell", kernel_ns_per_cell((66, 66, 66), false, c.seed))]
    }),
    ("fdtd", "update.section", |c| {
        vec![("fdtd.update.section_ns_per_cell", kernel_ns_per_cell((11, 11, 11), false, c.seed))]
    }),
    ("fdtd", "update.split", |c| {
        vec![("fdtd.update.split_ns_per_cell", kernel_ns_per_cell((33, 33, 66), true, c.seed))]
    }),
    ("meshgrid", "halo", |_| {
        let [px, pz, ux, uz] = halo_ns_per_byte();
        vec![
            ("meshgrid.halo.pack_x_ns_per_byte", px),
            ("meshgrid.halo.pack_z_ns_per_byte", pz),
            ("meshgrid.halo.unpack_x_ns_per_byte", ux),
            ("meshgrid.halo.unpack_z_ns_per_byte", uz),
        ]
    }),
    ("mesh", "wire.codec", |_| vec![("mesh.wire.codec_ns_per_kb", mesh_codec_ns_per_kib())]),
    ("ssp-runtime", "spsc.stream", |_| {
        vec![("ssp-runtime.spsc.stream_ns_per_msg", spsc_stream_ns_per_msg())]
    }),
    ("ssp-runtime", "spsc.pingpong", |_| {
        vec![("ssp-runtime.spsc.pingpong_ns_per_rtt", spsc_pingpong_ns_per_rtt())]
    }),
    ("ssp-runtime", "sched.hop.w1", |_| vec![("ssp-runtime.sched.hop_us.w1", sched_hop_us(1))]),
    ("ssp-runtime", "sched.hop.w2", |_| {
        let w2 = thread::available_parallelism().map_or(1, |n| n.get()).min(2);
        vec![("ssp-runtime.sched.hop_us.w2", sched_hop_us(w2))]
    }),
    ("ssp-runtime", "sim", |_| vec![("ssp-runtime.sim.steps_per_s", sim_steps_per_s())]),
    ("ssp-dist", "frame.codec", |_| {
        vec![("ssp-dist.frame.codec_ns_per_kb", frame_codec_ns_per_kib())]
    }),
    ("ssp-dist", "socket", |_| {
        let (rtt, stream) = socket_floor();
        vec![("ssp-dist.socket.rtt_us_8b", rtt), ("ssp-dist.socket.us_per_frame_17kb", stream)]
    }),
    ("ssp-dist", "shm", |c| vec![("ssp-dist.shm.us_per_payload_17kb", shm_us_per_payload(c.tmp))]),
    ("ssp-dist", "spawn", |c| vec![("ssp-dist.spawn.wall_s", dist_spawn_wall_s(c.worker))]),
    ("perf-sim", "des", |c| vec![("perf-sim.des.steps_per_s", des_steps_per_s(c.smoke))]),
];

/// Run every micro-benchmark, each in a span of its own, in an order
/// drawn from the seed. Returns `(metric, value)` pairs.
pub fn run_all(t: &mut Tracer, ctx: &Ctx) -> Vec<(&'static str, f64)> {
    // Seeded Fisher–Yates: no micro-benchmark always runs on the caches
    // and clock state another one left behind.
    let mut order = MICROS;
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x6d69_6372);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(i + 1));
    }
    let mut out = Vec::new();
    for (layer, name, bench) in order {
        out.extend(t.span(layer, format!("micro:{name}"), |_| bench(ctx)).0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_ring_passes_the_token_laps_times_round() {
        let (topo, procs) = token_ring(3);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let msgs: u64 = out.metrics.channels.iter().map(|c| c.messages).sum();
        assert_eq!(msgs, 3 * TOKEN_RANKS as u64);
    }
}
