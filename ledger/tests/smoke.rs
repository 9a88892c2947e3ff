//! `ledger run --smoke` and `ledger trace --smoke` end to end: every
//! workload × metric is reported under the names `BENCHMARK.json` lists,
//! and the trace is a well-formed span tree.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ssp_runtime::json::parse;
use ssp_runtime::JsonValue;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("ledger/ lies in the repo").to_path_buf()
}

/// Run `ledger` from the repo root; its standard output.
fn ledger(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn ledger");
    assert!(
        out.status.success(),
        "ledger {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `name workload value unit` lines as `(name, workload)` pairs.
fn reported(stdout: &str) -> BTreeSet<(String, String)> {
    stdout
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "want `name workload value unit`, got {l:?}");
            let ok = |s: &str| {
                !s.is_empty()
                    && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            };
            assert!(ok(f[0]) && ok(f[1]), "bad name in {l:?}");
            assert!(f[2].parse::<f64>().is_ok_and(f64::is_finite), "bad value in {l:?}");
            (f[0].to_string(), f[1].to_string())
        })
        .collect()
}

fn names(doc: &JsonValue, list: &str) -> BTreeSet<String> {
    doc.get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|e| match e.get("name") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => panic!("{list} entry without a name"),
        })
        .collect()
}

fn pairs(metrics: &BTreeSet<String>, workloads: &BTreeSet<String>) -> BTreeSet<(String, String)> {
    metrics.iter().flat_map(|m| workloads.iter().map(move |w| (m.clone(), w.clone()))).collect()
}

#[test]
fn smoke_run_and_trace_report_what_benchmark_json_lists() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let workloads = names(&bench, "workloads");

    // The failure share is one line for the whole run, not a per-workload metric.
    let mut run = reported(&ledger(&["run", "--smoke"]));
    assert!(run.remove(&("failed_share".to_string(), "all".to_string())));
    assert_eq!(run, pairs(&names(&bench, "end_to_end"), &workloads));

    let trace = reported(&ledger(&["trace", "--smoke"]));
    let mut want = pairs(&names(&bench, "per_layer"), &workloads);
    want.insert(("failed_share".to_string(), "all".to_string()));
    assert_eq!(trace, want);

    // target/<profile>/ledger → target/ledger/trace.<workload>.json
    let out_dir =
        Path::new(env!("CARGO_BIN_EXE_ledger")).ancestors().nth(2).unwrap().join("ledger");
    for w in &workloads {
        let path = out_dir.join(format!("trace.{w}.json"));
        let doc =
            parse(&std::fs::read_to_string(&path).expect("trace file")).expect("trace parses");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).expect("traceEvents");
        assert!(events.len() > 20, "{w}: only {} spans", events.len());
        let arg = |e: &JsonValue, k: &str| e.get("args").and_then(|a| a.get(k)).cloned();
        let ids: BTreeSet<u64> = events
            .iter()
            .map(|e| arg(e, "id").and_then(|v| v.as_u64()).expect("span id"))
            .collect();
        for e in events {
            let (id, root) = (arg(e, "id").unwrap(), arg(e, "root").unwrap());
            match arg(e, "parent").expect("parent key") {
                JsonValue::Null => assert_eq!(id, root, "{w}: a parentless span is its own root"),
                p => assert!(ids.contains(&p.as_u64().expect("parent id")), "{w}: dangling parent"),
            }
        }
    }
}
