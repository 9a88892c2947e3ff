//! The four workloads: what one repetition runs, what its oracle is, and
//! what "set-up alone" means for it.
//!
//! Two run in this process on the M:N scheduler (`run_msg_threaded_slack`)
//! and two across worker processes (`run_distributed`). Sizes, rank counts
//! and step counts are fixed, so work counts do not depend on the seed;
//! the seed moves the in-process workloads' source cell and scatterer.
//! The registry workloads take only preset names, so the distributed
//! program receives nothing the benchmark did not generate from them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdtd::par::{init_a, plan_a, plan_a_overlap};
use fdtd::{MaterialSpec, Params, Source};
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode};
use mesh_archetype::{run_msg_simulated, run_msg_threaded_slack};
use meshgrid::ProcGrid3;
use ssp_dist::{
    build_workload, fdtd_a_args, ring_args, run_distributed, DistConfig, DistStats, TransportMode,
};
use ssp_runtime::rng::SplitMix64;
use ssp_runtime::{FlightLog, JsonValue, RoundRobin, RunError, RunMetrics, ThreadedConfig};

use crate::spans::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fdtd_compute", "fdtd_surface", "fdtd_dist", "ring_dist"];

/// Smoke runs divide step and lap counts by this.
const SMOKE_DIV: usize = 32;
/// Worker processes of the distributed workloads.
const DIST_WORKERS: usize = 2;
/// A hung run is a counted failure, not a stall: far below the
/// supervisor's own 120 s backstop.
const RUN_TIMEOUT: Duration = Duration::from_secs(30);
/// Shadow-checkpoint interval of the `ssp-dist.ckpt.overhead_ratio` runs.
const CHECKPOINT_EVERY: u64 = 64;
/// `ssp-dist.frame_cost_growth` compares the ring at its full lap count
/// with the ring at this fraction of it.
pub const GROWTH_DIV: u64 = 8;

/// A data plane of `ssp-dist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Star,
    Direct,
    Shm,
    /// The direct plane over loopback TCP instead of Unix sockets.
    Tcp,
}

impl Plane {
    /// The plane `DistConfig::new` resolves to in this environment.
    pub fn program_default() -> Plane {
        match TransportMode::from_env() {
            TransportMode::Star => Plane::Star,
            TransportMode::Direct { shm: false } => Plane::Direct,
            TransportMode::Direct { shm: true } => Plane::Shm,
        }
    }

    /// The plane's name as `SSP_DIST_TRANSPORT` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Plane::Star => "star",
            Plane::Direct => "direct",
            Plane::Shm => "direct+shm",
            Plane::Tcp => "direct/tcp",
        }
    }
}

/// How one repetition departs from what a user gets by default. The
/// end-to-end runs always use `Variant::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// In-process: `plan_a_overlap` instead of `plan_a`.
    pub overlap: bool,
    /// In-process: flight recorder on.
    pub flight: bool,
    /// Distributed: pin the data plane (`None` = `DistConfig::new`'s).
    pub plane: Option<Plane>,
    /// Distributed: shadow checkpoints every [`CHECKPOINT_EVERY`] steps.
    pub checkpoint: bool,
    /// `ring_dist` only: laps ÷ [`GROWTH_DIV`].
    pub short: bool,
}

/// What one repetition produced.
pub struct RepOut {
    pub snapshots: Vec<Vec<u8>>,
    pub metrics: RunMetrics,
    pub stats: Option<DistStats>,
    pub flight: Option<FlightLog>,
}

impl RepOut {
    /// The exact counts of the run under their per-layer metric names:
    /// totals of the communication profile and, for a distributed run,
    /// where the supervisor and the workers say the traffic went.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let m = &self.metrics;
        let mut out = vec![
            ("mesh.msgs", m.channels.iter().map(|c| c.messages).sum::<u64>()),
            ("mesh.bytes", m.channels.iter().map(|c| c.bytes).sum()),
            ("mesh.resumes", m.procs.iter().map(|p| p.steps).sum()),
        ];
        if let Some(s) = &self.stats {
            out.extend([
                ("ssp-dist.frames_logged", s.frames_logged),
                ("ssp-dist.star_frames", s.star_frames),
                ("ssp-dist.direct_frames", s.direct_frames),
                ("ssp-dist.shm_frames", s.shm_frames),
                ("ssp-dist.direct_bytes", s.direct_bytes),
            ]);
        }
        out.into_iter().map(|(k, v)| (k, v as f64)).collect()
    }
}

enum Kind {
    InProc { params: Arc<Params>, p: usize },
    Dist { program: &'static str, args: JsonValue, short: JsonValue, min: JsonValue },
}

pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    worker: PathBuf,
}

/// The FDTD problem a registry preset names.
fn preset_params(preset: &str) -> Params {
    match preset {
        "tiny" => Params::tiny(),
        _ => Params::figure2(),
    }
}

/// Run `f`, inside a span when tracing.
fn call<R>(
    t: &mut Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match t {
        Some(t) => t.span(layer, name, |_| f()).0,
        None => f(),
    }
}

/// Move the source cell and the scatterer centre to seeded positions in
/// the middle third of the grid. Extents, step count and material
/// constants stay the preset's, so every seed does the same work.
fn seeded(mut params: Params, seed: u64) -> Params {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut mid = |n: usize| n / 3 + rng.gen_range(n - 2 * (n / 3));
    let (nx, ny, nz) = params.n;
    params.source = Source { pos: (mid(nx), mid(ny), mid(nz)), ..params.source };
    if let MaterialSpec::DielectricSphere { center, .. } = &mut params.material {
        *center = (mid(nx) as f64, mid(ny) as f64, mid(nz) as f64);
    }
    params
}

impl Workload {
    /// Build workload `name` from `seed`. `worker` is the `ssp-worker`
    /// executable the distributed workloads spawn.
    pub fn new(name: &str, seed: u64, smoke: bool, worker: &Path) -> Result<Workload, String> {
        let div = if smoke { SMOKE_DIV } else { 1 };
        let (name, kind) = match name {
            "fdtd_compute" => {
                let mut p = Params::figure2();
                p.steps /= div;
                ("fdtd_compute", Kind::InProc { params: Arc::new(seeded(p, seed)), p: 4 })
            }
            "fdtd_surface" => {
                let mut p = Params::table1();
                p.steps = 2048 / div;
                ("fdtd_surface", Kind::InProc { params: Arc::new(seeded(p, seed)), p: 27 })
            }
            "fdtd_dist" => {
                // The registry has two presets; the smoke run takes the small one.
                let preset = if smoke { "tiny" } else { "figure2" };
                let args = fdtd_a_args(preset, 4);
                let kind = Kind::Dist {
                    program: "fdtd-a",
                    short: args.clone(),
                    args,
                    min: fdtd_a_args("tiny", 4),
                };
                ("fdtd_dist", kind)
            }
            "ring_dist" => {
                let laps = 16_000 / div as u64;
                let kind = Kind::Dist {
                    program: "ring",
                    args: ring_args(8, laps),
                    short: ring_args(8, laps / GROWTH_DIV),
                    min: ring_args(8, 1),
                };
                ("ring_dist", kind)
            }
            other => return Err(format!("unknown workload '{other}' (want one of {NAMES:?})")),
        };
        Ok(Workload { name, kind, worker: worker.to_path_buf() })
    }

    /// The in-process workloads' parameters and rank count.
    pub fn in_process(&self) -> Option<(&Arc<Params>, usize)> {
        match &self.kind {
            Kind::InProc { params, p } => Some((params, *p)),
            Kind::Dist { .. } => None,
        }
    }

    /// The FDTD problem this workload solves, if it is one (`ring_dist`
    /// has no sequential ancestor).
    pub fn fdtd_params(&self) -> Option<Params> {
        match &self.kind {
            Kind::InProc { params, .. } => Some((**params).clone()),
            Kind::Dist { program: "fdtd-a", args, .. } => match args.get("preset") {
                Some(JsonValue::Str(preset)) => Some(preset_params(preset)),
                _ => None,
            },
            Kind::Dist { .. } => None,
        }
    }

    fn dist_config(&self, v: Variant) -> DistConfig {
        let mut cfg = DistConfig::new(DIST_WORKERS, &self.worker);
        cfg.timeout = RUN_TIMEOUT;
        match v.plane {
            None => {}
            Some(Plane::Star) => cfg.transport = TransportMode::Star,
            Some(Plane::Direct) => cfg.transport = TransportMode::Direct { shm: false },
            Some(Plane::Shm) => cfg.transport = TransportMode::Direct { shm: true },
            Some(Plane::Tcp) => {
                cfg.transport = TransportMode::Direct { shm: false };
                cfg.peer_tcp = true;
            }
        }
        if v.checkpoint {
            cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
        }
        cfg
    }

    /// One full run as a user's run pays it, set-up included.
    pub fn run(&self, v: Variant, mut t: Option<&mut Tracer>) -> Result<RepOut, RunError> {
        let t = &mut t;
        match &self.kind {
            Kind::InProc { params, p } => {
                let plan = call(t, "fdtd", "plan_a", || {
                    if v.overlap {
                        plan_a_overlap(params)
                    } else {
                        plan_a(params)
                    }
                });
                let init = call(t, "fdtd", "init_a", || init_a(params.clone()));
                let pg =
                    call(t, "meshgrid", "ProcGrid3::choose", || ProcGrid3::choose(params.n, *p));
                let mut cfg = ThreadedConfig::with_watchdog(RUN_TIMEOUT);
                if v.flight {
                    cfg = cfg.with_flight_default();
                }
                let out = call(t, "mesh", "run_msg_threaded_slack", || {
                    run_msg_threaded_slack(&plan, pg, &init, None, cfg)
                })?;
                Ok(RepOut {
                    snapshots: out.snapshots,
                    metrics: out.metrics,
                    stats: None,
                    flight: out.flight,
                })
            }
            Kind::Dist { program, args, short, .. } => {
                let args = if v.short { short } else { args };
                let cfg = self.dist_config(v);
                let out = call(t, "ssp-dist", "run_distributed", || {
                    run_distributed(program, args, &cfg)
                })?;
                Ok(RepOut {
                    snapshots: out.snapshots,
                    metrics: out.metrics,
                    stats: Some(out.stats),
                    flight: None,
                })
            }
        }
    }

    /// The oracle: the same program under the deterministic simulator.
    /// Theorem 1 makes every backend bitwise-comparable to it. `short`
    /// selects the oracle of [`Variant::short`] runs.
    pub fn oracle(&self, short: bool) -> Result<Vec<Vec<u8>>, RunError> {
        match &self.kind {
            Kind::InProc { params, p } => {
                let pg = ProcGrid3::choose(params.n, *p);
                let out = run_msg_simulated(
                    &plan_a(params),
                    pg,
                    &init_a(params.clone()),
                    &mut RoundRobin::new(),
                )?;
                Ok(out.snapshots)
            }
            Kind::Dist { program, args, short: short_args, .. } => {
                build_workload(program, if short { short_args } else { args })?.run_reference()
            }
        }
    }

    /// Set-up alone, in seconds. In-process: everything before the first
    /// scheduler step (`Params` → plan, initial states, partition,
    /// compiled processes and topology). Distributed: a whole run of the
    /// same registry program at its minimum size, which is spawn +
    /// HELLO/ASSIGN/PEERS + teardown and next to no work.
    pub fn setup_once(&self) -> Result<f64, RunError> {
        let t0 = Instant::now();
        match &self.kind {
            Kind::InProc { params, p } => {
                let params = Arc::new((**params).clone());
                let plan = plan_a(&params);
                let init = init_a(params.clone());
                let pg = ProcGrid3::choose(params.n, *p);
                std::hint::black_box(build_msg_processes_with_slack(
                    &plan,
                    pg,
                    &init,
                    HostMode::GridRank0,
                    None,
                ));
            }
            Kind::Dist { program, min, .. } => {
                run_distributed(program, min, &self.dist_config(Variant::default()))?;
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Seconds to compile the workload into processes and a topology, as
    /// the backend does before it runs anything (`mesh.build.ms`).
    pub fn build_once(&self) -> Result<f64, RunError> {
        match &self.kind {
            Kind::InProc { params, p } => {
                let (plan, init) = (plan_a(params), init_a(params.clone()));
                let pg = ProcGrid3::choose(params.n, *p);
                let t0 = Instant::now();
                std::hint::black_box(build_msg_processes_with_slack(
                    &plan,
                    pg,
                    &init,
                    HostMode::GridRank0,
                    None,
                ));
                Ok(t0.elapsed().as_secs_f64())
            }
            Kind::Dist { program, args, .. } => {
                let t0 = Instant::now();
                std::hint::black_box(build_workload(program, args)?.topology());
                Ok(t0.elapsed().as_secs_f64())
            }
        }
    }
}
