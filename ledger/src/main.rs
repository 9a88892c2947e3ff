//! `ledger` — the repo's benchmark: four full-scale workloads, four
//! end-to-end metrics with failure accounting, and a traced run that
//! reports every layer. `ledger/README.md` has the tables.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! ledger run   [--seed N] [--seconds S] [--smoke] [--record]
//! ledger trace [--seed N] [--smoke]
//! ledger check [--seed N] [--seconds S]
//! ```

mod host;
mod layers;
mod measure;
mod micro;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ssp_runtime::JsonValue;

use host::Host;
use measure::Summary;
use workloads::{Plane, Variant, Workload};

/// Every end-to-end metric as `(name, unit)`, the list `BENCHMARK.json`
/// carries with a bound each.
const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Counts that must repeat bit-for-bit between two runs of the same code.
const EXACT_COUNTS: [&str; 3] = ["mesh.msgs", "mesh.bytes", "ssp-dist.frames_logged"];

/// `--seconds` when not given. `BENCHMARK.json`'s `run_seconds` is longer
/// (the driver always passes it); this keeps `ledger run` under 120 s.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    One,
    Run,
    Trace,
    Check,
}

struct Args {
    cmd: Cmd,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cmd: Cmd::One,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "run" => args.cmd = Cmd::Run,
            "trace" => args.cmd = Cmd::Trace,
            "check" => args.cmd = Cmd::Check,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--smoke" => args.smoke = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.cmd == Cmd::One && args.workload.is_none() {
        return Err(format!(
            "usage: ledger --workload <{}> --seed N --seconds S --trace 0|1 \
             | ledger run|trace|check [--seed N] [--seconds S] [--smoke] [--record]",
            workloads::NAMES.join("|")
        ));
    }
    Ok(args)
}

fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(x: f64) -> JsonValue {
    JsonValue::Num(x)
}

/// The result line of the benchmark contract.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics.iter().map(|(name, unit, value)| {
        (*name, obj([("value", num(*value)), ("unit", JsonValue::Str(unit.to_string()))]))
    });
    obj([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .to_json()
}

fn write_json(path: &Path, doc: &JsonValue) -> Result<(), String> {
    std::fs::write(path, doc.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The end-to-end run of one workload: a closed loop with one client, one
/// discarded warm-up, then timed repetitions until `seconds` have passed,
/// set-up alone timed three times before each.
/// No span, flight recorder or micro-benchmark is active. Prints the
/// result line and writes the detail to `run.<workload>.json`.
fn end_to_end(w: &Workload, host: &Host, args: &Args) -> Result<(), String> {
    let mut errors = Vec::new();
    // Set-up is timed a few times before every repetition, not in one
    // burst: a burst of 31 set-ups lasts 50 ms and reads whatever the host
    // was doing in those 50 ms (medians of two runs came out 40 % apart).
    let mut setup = Vec::new();
    let mut time_setups = |n: usize, errors: &mut Vec<String>| {
        for _ in 0..n {
            match w.setup_once() {
                Ok(s) => setup.push(s),
                Err(e) => errors.push(format!("setup: {e}")),
            }
        }
    };
    let setups_per_rep = if args.smoke { 1 } else { 3 };

    if let Err(e) = w.run(Variant::default(), None) {
        errors.push(format!("warm-up: {e}"));
    }

    // The first good repetition is kept whole and checked against the
    // oracle after the loop; the others are compared with it at once and
    // dropped. So the oracle's own memory never counts towards VmHWM.
    let mut first = None;
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let min_reps = 3;
    let begun = Instant::now();
    while attempted < min_reps || begun.elapsed().as_secs_f64() < args.seconds {
        if args.smoke && attempted == min_reps {
            break;
        }
        attempted += 1;
        time_setups(setups_per_rep, &mut errors);
        let per_rep_peak = measure::reset_peak_rss();
        let (c0, t0) = (measure::cpu_seconds(), Instant::now());
        let res = w.run(Variant::default(), None);
        let (w_s, c_s) = (t0.elapsed().as_secs_f64(), measure::cpu_seconds() - c0);
        if per_rep_peak {
            rss.push(measure::peak_rss_mb());
        }
        match res {
            Ok(out) => {
                match &first {
                    None => first = Some(out),
                    Some(f) if f.snapshots != out.snapshots => {
                        failed += 1;
                        errors.push(format!("rep {attempted}: snapshots differ from rep 1's"));
                        continue;
                    }
                    Some(_) => {}
                }
                wall.push(w_s);
                cpu.push(c_s);
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("rep {attempted}: {e}"));
            }
        }
    }
    // The peak of one repetition (median over repetitions) where the
    // kernel lets the mark be reset, else the peak of the whole loop.
    let peak_rss_mb = Summary::of(&rss).map_or_else(measure::peak_rss_mb, |s| s.median);

    let first = first.ok_or(format!("no repetition of {} succeeded: {errors:?}", w.name))?;
    match w.oracle(false) {
        Ok(oracle) if oracle == first.snapshots => {}
        Ok(_) => {
            failed = attempted;
            errors.push("snapshots differ from the oracle's".to_string());
        }
        Err(e) => return Err(format!("oracle failed: {e}")),
    }

    for e in &errors {
        eprintln!("ledger: {}: {e}", w.name);
    }
    let summary = |name: &str, v: &[f64]| {
        Summary::of(v).ok_or(format!("{name} of {}: nothing measured ({errors:?})", w.name))
    };
    let (wall_s, cpu_s, setup_s) =
        (summary("wall_s", &wall)?, summary("cpu_s", &cpu)?, summary("setup_s", &setup)?);

    // An in-process run logs no frames; `check` still wants the key.
    let counts: BTreeMap<_, _> = first.counts().into_iter().collect();
    let exact = EXACT_COUNTS.map(|k| (k, num(counts.get(k).copied().unwrap_or(0.0))));
    let detail = obj([
        ("workload", JsonValue::Str(w.name.to_string())),
        ("seed", num(args.seed as f64)),
        ("smoke", JsonValue::Bool(args.smoke)),
        ("nproc", num(host.nproc as f64)),
        ("transport", JsonValue::Str(Plane::program_default().name().to_string())),
        ("pool_workers", num(first.metrics.sched.workers as f64)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("errors", JsonValue::Arr(errors.into_iter().map(JsonValue::Str).collect())),
        ("wall_s", wall_s.to_json(&wall)),
        ("cpu_s", cpu_s.to_json(&cpu)),
        ("setup_s", setup_s.to_json(&setup)),
        ("peak_rss_mb", num(peak_rss_mb)),
    ]
    .into_iter()
    .chain(exact));
    write_json(&host.out_dir.join(format!("run.{}.json", w.name)), &detail)?;

    let values = [wall_s.median, cpu_s.median, peak_rss_mb, setup_s.median];
    let metrics: Vec<_> = END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, *u, v)).collect();
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(())
}

/// The traced run of one workload. Prints the result line with every
/// per-layer metric and writes the spans to `trace.<workload>.json`.
fn traced(w: &Workload, host: &Host, args: &Args) -> Result<(), String> {
    let mut t = spans::Tracer::new();
    let found = layers::trace_workload(w, host, args.seed, args.smoke, &mut t)?;
    for e in &found.errors {
        eprintln!("ledger: {}: {e}", w.name);
    }
    let mut doc = match t.to_chrome_json() {
        JsonValue::Obj(m) => m,
        _ => unreachable!("a trace document is an object"),
    };
    let self_s = t.self_seconds_by_layer();
    doc.insert("selfSecondsByLayer".to_string(), obj(self_s.into_iter().map(|(k, v)| (k, num(v)))));
    doc.insert("metrics".to_string(), obj(found.values.iter().map(|(k, v)| (*k, num(*v)))));
    write_json(&host.out_dir.join(format!("trace.{}.json", w.name)), &JsonValue::Obj(doc))?;
    let metrics: Vec<_> =
        layers::PER_LAYER.iter().map(|(n, u, _)| (*n, *u, found.values[n])).collect();
    println!("{}", result_line(found.attempted, found.failed, &metrics));
    Ok(())
}

// -- the suite: every workload, each in a fresh child process ---------------

/// One child's result line, parsed.
struct ChildResult {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`, sorted by name.
    metrics: Vec<(String, f64, String)>,
}

/// Run `ledger --workload name` as a child and parse its result line.
fn child(name: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn ledger for {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or(format!("{name}: child printed nothing"))?;
    let doc = ssp_runtime::json::parse(line).map_err(|e| format!("{name}: {}", e.msg))?;
    let field = |k: &str| doc.get(k).and_then(JsonValue::as_u64).ok_or(format!("{name}: no {k}"));
    let metrics = match doc.get("metrics") {
        Some(JsonValue::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                let unit = match v.get("unit") {
                    Some(JsonValue::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                (k.clone(), value, unit)
            })
            .collect(),
        _ => return Err(format!("{name}: no metrics")),
    };
    Ok(ChildResult { attempted: field("attempted")?, failed: field("failed")?, metrics })
}

/// Workload names in an order drawn from the seed.
fn seeded_order(seed: u64) -> Vec<&'static str> {
    let mut names = workloads::NAMES.to_vec();
    let mut rng = ssp_runtime::rng::SplitMix64::seed_from_u64(seed);
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(i + 1));
    }
    names
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ssp_runtime::json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.msg))
}

/// workload → (metric → value, the child's detail file).
type Suite = BTreeMap<String, (BTreeMap<String, f64>, JsonValue)>;

/// One set of runs (`run`) or traced runs (`trace`): every workload in a
/// fresh child. Prints `name workload value unit` lines unless `quiet`
/// and writes `run.json` / `trace.json`.
fn suite(host: &Host, args: &Args, trace: bool, quiet: bool) -> Result<Suite, String> {
    let kind = if trace { "trace" } else { "run" };
    let mut out = Suite::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in seeded_order(args.seed) {
        let r = child(name, args, trace)?;
        attempted += r.attempted;
        failed += r.failed;
        if !quiet {
            for (metric, value, unit) in &r.metrics {
                println!("{metric} {name} {value} {unit}");
            }
        }
        let detail = read_json(&host.out_dir.join(format!("{kind}.{name}.json")))?;
        let values = r.metrics.into_iter().map(|(k, v, _)| (k, v)).collect();
        out.insert(name.to_string(), (values, detail));
    }
    if !quiet {
        println!("failed_share all {} fraction", failed as f64 / attempted.max(1) as f64);
    }
    let host_doc = host.describe();
    if host.nproc != host::SIZED_FOR_NPROC {
        eprintln!(
            "ledger: warning: this host has {} cores; the workloads were sized and the \
             recorded numbers taken on {} (result marked nproc_matches: false)",
            host.nproc,
            host::SIZED_FOR_NPROC
        );
    }
    // A traced run's detail is its span document; the suite's file keeps
    // the metrics and points at the per-workload traces.
    let workloads = out.iter().map(|(name, (values, detail))| {
        let body = if trace {
            obj(values.iter().map(|(k, v)| (k.clone(), num(*v))))
        } else {
            detail.clone()
        };
        (name.clone(), body)
    });
    let doc = obj([
        ("host", host_doc),
        ("seed", num(args.seed as f64)),
        ("smoke", JsonValue::Bool(args.smoke)),
        ("ops_attempted", num(attempted as f64)),
        ("ops_failed", num(failed as f64)),
        ("workloads", obj(workloads)),
    ]);
    write_json(&host.out_dir.join(format!("{kind}.json")), &doc)?;
    Ok(out)
}

/// Append one line — commit, core count, seed, every median — to
/// `ledger/history.jsonl`, the trajectory of the end-to-end numbers.
fn record(host: &Host, args: &Args, runs: &Suite) -> Result<(), String> {
    use std::io::Write;
    let medians = runs
        .iter()
        .map(|(w, (values, _))| (w.clone(), obj(values.iter().map(|(k, v)| (k.clone(), num(*v))))));
    let line = obj([
        ("commit", JsonValue::Str(host::git_commit())),
        ("nproc", num(host.nproc as f64)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("medians", obj(medians)),
    ]);
    let path = Path::new("ledger/history.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("{} (run from the repo root): {e}", path.display()))?;
    writeln!(f, "{}", line.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = read_json(Path::new("BENCHMARK.json"))?;
    let list = doc.get("end_to_end").and_then(JsonValue::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| match (m.get("name"), m.get("bound").and_then(JsonValue::as_f64)) {
            (Some(JsonValue::Str(name)), Some(bound)) => Ok((name.clone(), bound)),
            _ => Err("end_to_end entry without name or bound".to_string()),
        })
        .collect()
}

/// The repeatability gate: two back-to-back sets of runs of the same
/// binary must agree within each metric's bound, with no failed
/// repetition and identical exact counts.
fn check(host: &Host, args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let first = suite(host, args, false, true)?;
    let second = suite(host, args, false, true)?;
    let mut ok = true;
    println!("workload metric first second rel_diff bound verdict");
    for (name, (a, a_detail)) in &first {
        let (b, b_detail) = &second[name];
        for (metric, _) in END_TO_END {
            let (x, y, bound) = (a[metric], b[metric], bounds[metric]);
            let diff = (y - x).abs() / x;
            let pass = diff <= bound;
            ok &= pass;
            let verdict = if pass { "ok" } else { "EXCEEDS" };
            println!("{name} {metric} {x:.6} {y:.6} {diff:.4} {bound} {verdict}");
        }
        for count in EXACT_COUNTS {
            let get = |d: &JsonValue| d.get(count).and_then(JsonValue::as_f64);
            let (x, y) = (get(a_detail), get(b_detail));
            let pass = x.is_some() && x == y;
            ok &= pass;
            println!("{name} {count} {x:?} {y:?} exact {}", if pass { "ok" } else { "DIFFERS" });
        }
        for d in [a_detail, b_detail] {
            let failed = d.get("failed").and_then(JsonValue::as_u64);
            if failed != Some(0) {
                ok = false;
                println!("{name} failed {failed:?} repetitions (want 0)");
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        let host = host::prepare()?;
        match args.cmd {
            Cmd::One => {
                let name = args.workload.as_deref().expect("checked by parse_args");
                let w = Workload::new(name, args.seed, args.smoke, &host.worker)?;
                if args.trace {
                    traced(&w, &host, &args)?;
                } else {
                    end_to_end(&w, &host, &args)?;
                }
                Ok(true)
            }
            Cmd::Run => {
                let runs = suite(&host, &args, false, false)?;
                if args.record {
                    record(&host, &args, &runs)?;
                }
                Ok(true)
            }
            Cmd::Trace => suite(&host, &args, true, false).map(|_| true),
            Cmd::Check => check(&host, &args),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
