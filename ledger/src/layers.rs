//! The traced run of one workload: every per-layer metric, measured from
//! outside with spans around each call into a layer.
//!
//! A metric that does not apply to the workload (a data-plane ratio on an
//! in-process workload, a flight share on a distributed one) reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

use fdtd::par::{init_a, plan_a};
use fdtd::run_seq_version_a;
use machine_model::ibm_sp;
use mesh_archetype::run_msg_predicted;
use meshgrid::ProcGrid3;
use perf_sim::timeline::SpanKind;
use perf_sim::{drift_report, measured_timelines};
use ssp_runtime::FlightKind;

use crate::host::Host;
use crate::measure::median;
use crate::micro;
use crate::spans::Tracer;
use crate::workloads::{Plane, RepOut, Variant, Workload, GROWTH_DIV};

/// Every per-layer metric as `(name, unit, better)`, the list
/// `BENCHMARK.json` carries.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("fdtd.update.cube_ns_per_cell", "ns", "lower"),
    ("fdtd.update.section_ns_per_cell", "ns", "lower"),
    ("fdtd.update.split_ns_per_cell", "ns", "lower"),
    ("fdtd.plan.overlap_ratio", "ratio", "lower"),
    ("scaling.speedup_vs_seq", "ratio", "higher"),
    ("meshgrid.halo.pack_x_ns_per_byte", "ns", "lower"),
    ("meshgrid.halo.pack_z_ns_per_byte", "ns", "lower"),
    ("meshgrid.halo.unpack_x_ns_per_byte", "ns", "lower"),
    ("meshgrid.halo.unpack_z_ns_per_byte", "ns", "lower"),
    ("oracle.simulated.wall_s", "s", "lower"),
    ("mesh.build.ms", "ms", "lower"),
    ("mesh.wire.codec_ns_per_kb", "ns", "lower"),
    ("mesh.msgs", "count", "lower"),
    ("mesh.bytes", "bytes", "lower"),
    ("mesh.resumes", "count", "lower"),
    ("ssp-runtime.spsc.stream_ns_per_msg", "ns", "lower"),
    ("ssp-runtime.spsc.pingpong_ns_per_rtt", "ns", "lower"),
    ("ssp-runtime.sched.hop_us.w1", "us", "lower"),
    ("ssp-runtime.sched.hop_us.w2", "us", "lower"),
    ("ssp-runtime.sched.parks", "count", "lower"),
    ("ssp-runtime.sched.steals", "count", "lower"),
    ("ssp-runtime.sched.yields", "count", "lower"),
    ("ssp-runtime.sim.steps_per_s", "1/s", "higher"),
    ("ssp-runtime.flight.compute_share", "ratio", "higher"),
    ("ssp-runtime.flight.blocked_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("ssp-dist.frame.codec_ns_per_kb", "ns", "lower"),
    ("ssp-dist.socket.rtt_us_8b", "us", "lower"),
    ("ssp-dist.socket.us_per_frame_17kb", "us", "lower"),
    ("ssp-dist.shm.us_per_payload_17kb", "us", "lower"),
    ("ssp-dist.plane.direct.vs_star", "ratio", "lower"),
    ("ssp-dist.plane.shm.vs_star", "ratio", "lower"),
    ("ssp-dist.plane.tcp.vs_star", "ratio", "lower"),
    ("ssp-dist.frame_cost_growth.star", "ratio", "lower"),
    ("ssp-dist.frame_cost_growth.direct", "ratio", "lower"),
    ("ssp-dist.frame_cost_growth.shm", "ratio", "lower"),
    ("ssp-dist.ckpt.overhead_ratio", "ratio", "lower"),
    ("ssp-dist.spawn.wall_s", "s", "lower"),
    ("ssp-dist.frames_logged", "count", "lower"),
    ("ssp-dist.star_frames", "count", "lower"),
    ("ssp-dist.direct_frames", "count", "higher"),
    ("ssp-dist.shm_frames", "count", "higher"),
    ("ssp-dist.direct_bytes", "bytes", "higher"),
    ("perf-sim.des.steps_per_s", "1/s", "higher"),
    ("perf-sim.makespan_ratio", "ratio", "lower"),
    ("perf-sim.drift", "ratio", "lower"),
];

/// What a traced run found.
pub struct Layered {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// The traced run's bookkeeping: repetitions checked against the oracle,
/// walls per variant.
struct Session<'a> {
    w: &'a Workload,
    oracle: Vec<Vec<u8>>,
    /// The oracle of `Variant::short` repetitions (`ring_dist` only).
    oracle_short: Vec<Vec<u8>>,
    out: Layered,
    /// The default variant's traced walls, and its scheduler counters
    /// (parks, steals, yields), which depend on the schedule.
    traced: Vec<f64>,
    sched: [Vec<f64>; 3],
    last: Option<RepOut>,
}

impl Session<'_> {
    /// One repetition of variant `v` as a root span; its wall if it ran
    /// and matched the oracle bitwise.
    fn traced(&mut self, t: &mut Tracer, label: &str, v: Variant) -> Option<(f64, RepOut)> {
        let w = self.w;
        let (res, wall) = t.span("ledger", format!("rep:{label}"), |t| {
            let res = w.run(v, Some(&mut *t));
            for (key, value) in res.iter().flat_map(RepOut::counts) {
                t.count(key, value);
            }
            res
        });
        self.judge(label, v.short, res).map(|out| (wall, out))
    }

    /// A traced repetition of what the end-to-end run runs: keep its wall,
    /// scheduler counters and outcome.
    fn keep(&mut self, wall: f64, out: RepOut) {
        self.traced.push(wall);
        let m = out.metrics.sched;
        for (series, x) in self.sched.iter_mut().zip([m.task_parks, m.steals, m.yields]) {
            series.push(x as f64);
        }
        self.last = Some(out);
    }

    /// One repetition with no span and no recorder: the untraced baseline.
    fn plain(&mut self) -> Option<f64> {
        let t0 = Instant::now();
        let res = self.w.run(Variant::default(), None);
        let wall = t0.elapsed().as_secs_f64();
        self.judge("plain", false, res).map(|_| wall)
    }

    fn judge(
        &mut self,
        label: &str,
        short: bool,
        res: Result<RepOut, ssp_runtime::RunError>,
    ) -> Option<RepOut> {
        self.out.attempted += 1;
        let oracle = if short { &self.oracle_short } else { &self.oracle };
        match res {
            Ok(out) if out.snapshots == *oracle => Some(out),
            Ok(_) => {
                self.out.failed += 1;
                self.out.errors.push(format!("{label}: snapshots differ from the oracle"));
                None
            }
            Err(e) => {
                self.out.failed += 1;
                self.out.errors.push(format!("{label}: {e}"));
                None
            }
        }
    }
}

/// `a / b`, or 0 when either side could not be measured.
fn ratio(a: f64, b: f64) -> f64 {
    if a > 0.0 && b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Run the traced run of `w`. `Err` only if nothing could be measured.
pub fn trace_workload(
    w: &Workload,
    host: &Host,
    seed: u64,
    smoke: bool,
    t: &mut Tracer,
) -> Result<Layered, String> {
    let mut values: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect();
    let reps = if smoke { 1 } else { 3 };

    let (oracle, oracle_s) = t.span("ledger", "oracle", |_| w.oracle(false));
    let oracle = oracle.map_err(|e| format!("oracle failed: {e}"))?;
    values.insert("oracle.simulated.wall_s", oracle_s);
    let grows = w.name == "ring_dist";
    let oracle_short =
        if grows { w.oracle(true).map_err(|e| format!("oracle failed: {e}"))? } else { Vec::new() };

    let seq_s = w.fdtd_params().map(|p| {
        t.span("fdtd", "run_seq_version_a", |_| std::hint::black_box(run_seq_version_a(&p))).1
    });

    let (builds, _) = t.span("ledger", "build", |t| {
        (0..5)
            .filter_map(|_| t.span("mesh", "build_once", |_| w.build_once().ok()).0)
            .collect::<Vec<f64>>()
    });
    values.insert("mesh.build.ms", median(&builds) * 1e3);

    let layered = Layered { values: BTreeMap::new(), attempted: 0, failed: 0, errors: Vec::new() };
    let mut s = Session {
        w,
        oracle,
        oracle_short,
        out: layered,
        traced: Vec::new(),
        sched: Default::default(),
        last: None,
    };
    let mut plain = Vec::new();

    if let Some((params, p)) = w.in_process() {
        let mut overlap = Vec::new();
        for _ in 0..reps {
            plain.extend(s.plain());
            let flight = Variant { flight: true, ..Variant::default() };
            if let Some((wall, out)) = s.traced(t, "flight", flight) {
                s.keep(wall, out);
            }
            let v = Variant { overlap: true, ..Variant::default() };
            overlap.extend(s.traced(t, "overlap", v).map(|(wall, _)| wall));
        }
        values.insert("fdtd.plan.overlap_ratio", ratio(median(&overlap), median(&plain)));

        // The model's prediction of the same program, next to what the
        // flight recorder measured.
        let pg = ProcGrid3::choose(params.n, p);
        let (des, _) = t.span("perf-sim", "run_msg_predicted", |_| {
            run_msg_predicted(&plan_a(params), pg, &init_a(params.clone()), &ibm_sp())
        });
        if let (Ok(des), Some(log)) = (des, s.last.as_ref().and_then(|o| o.flight.as_ref())) {
            // `measured_timelines` closes a blocked interval only when a
            // rank's Run event directly follows its Park; the waker's
            // Wake (and a thief's Steal) carry the same rank and sit in
            // between, so without this filter no Blocked span ever appears.
            let mut log = log.clone();
            for lane in &mut log.lanes {
                lane.events.retain(|e| !matches!(e.kind, FlightKind::Wake | FlightKind::Steal));
            }
            let measured = measured_timelines(&log, des.timelines.len());
            let time_in =
                |f: fn(&SpanKind) -> bool| -> f64 { measured.iter().map(|tl| tl.time_in(f)).sum() };
            let total = time_in(|_| true);
            values.insert(
                "ssp-runtime.flight.compute_share",
                ratio(time_in(|k| matches!(k, SpanKind::Compute { .. })), total),
            );
            values.insert(
                "ssp-runtime.flight.blocked_share",
                ratio(time_in(|k| matches!(k, SpanKind::Blocked { .. })), total),
            );
            values.insert("perf-sim.makespan_ratio", ratio(des.makespan, median(&plain)));
            values.insert("perf-sim.drift", drift_report(&des.timelines, &measured).mean_drift);
        }
    } else {
        let default_plane = Plane::program_default();
        let planes = [Plane::Star, Plane::Direct, Plane::Shm, Plane::Tcp];
        let mut full: [Vec<f64>; 4] = Default::default();
        let mut short: [Vec<f64>; 4] = Default::default();
        let mut ckpt = Vec::new();
        let reps = reps.min(2);
        for rep in 0..reps {
            plain.extend(s.plain());
            for (i, plane) in planes.into_iter().enumerate() {
                // Loopback TCP is several times slower than any other
                // plane on 17 KB faces; one repetition is enough to say so.
                if plane == Plane::Tcp && rep > 0 {
                    continue;
                }
                let v = Variant { plane: Some(plane), ..Variant::default() };
                if let Some((wall, out)) = s.traced(t, &format!("{plane:?}"), v) {
                    full[i].push(wall);
                    if plane == default_plane {
                        s.keep(wall, out);
                    }
                }
                if grows && plane != Plane::Tcp {
                    let v = Variant { short: true, ..v };
                    short[i].extend(s.traced(t, &format!("{plane:?}:short"), v).map(|r| r.0));
                }
            }
            let v = Variant { checkpoint: true, ..Variant::default() };
            ckpt.extend(s.traced(t, "checkpoint", v).map(|r| r.0));
        }
        let star = median(&full[0]);
        values.insert("ssp-dist.plane.direct.vs_star", ratio(median(&full[1]), star));
        values.insert("ssp-dist.plane.shm.vs_star", ratio(median(&full[2]), star));
        values.insert("ssp-dist.plane.tcp.vs_star", ratio(median(&full[3]), star));
        // Cost per frame at full length over cost per frame at 1/8 of it;
        // 1.0 is linear.
        let growth = |i: usize| ratio(median(&full[i]), median(&short[i]) * GROWTH_DIV as f64);
        values.insert("ssp-dist.frame_cost_growth.star", growth(0));
        values.insert("ssp-dist.frame_cost_growth.direct", growth(1));
        values.insert("ssp-dist.frame_cost_growth.shm", growth(2));
        values.insert("ssp-dist.ckpt.overhead_ratio", ratio(median(&ckpt), median(&s.traced)));
    }

    values.extend(s.last.iter().flat_map(RepOut::counts));
    values.insert("ssp-runtime.sched.parks", median(&s.sched[0]));
    values.insert("ssp-runtime.sched.steals", median(&s.sched[1]));
    values.insert("ssp-runtime.sched.yields", median(&s.sched[2]));
    values.insert("trace.overhead_ratio", ratio(median(&s.traced), median(&plain)));
    if let Some(seq_s) = seq_s {
        values.insert("scaling.speedup_vs_seq", ratio(seq_s, median(&plain)));
    }
    if plain.is_empty() {
        return Err(format!("no repetition of {} succeeded: {:?}", w.name, s.out.errors));
    }

    let ctx = micro::Ctx { seed, smoke, worker: &host.worker, tmp: &host.tmp_dir };
    let (micros, _) = t.span("ledger", "micro", |t| micro::run_all(t, &ctx));
    values.extend(micros);

    s.out.values = values;
    Ok(s.out)
}
