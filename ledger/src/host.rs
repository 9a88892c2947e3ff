//! Host hygiene: a known environment, the worker executable, and a place
//! inside the checkout for everything a run writes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use ssp_runtime::JsonValue;

use crate::workloads::Plane;

/// Environment knobs that change what the program does. Cleared, so every
/// run measures the defaults a user gets.
const ENV_KNOBS: [&str; 5] =
    ["SSP_WORKERS", "SSP_DIST_TRANSPORT", "SSP_DIST_PEER_TCP", "SSP_FLIGHT_DUMP", "REPRO_SCALE"];

/// Core count of the host the workloads were sized on and the numbers in
/// `ledger/history.jsonl` and the README were taken on.
pub const SIZED_FOR_NPROC: usize = 2;

pub struct Host {
    /// The `ssp-worker` executable, next to `ledger`'s own.
    pub worker: PathBuf,
    /// Where `run.json`, `trace.json` and their per-workload parts go.
    pub out_dir: PathBuf,
    /// `TMPDIR` of this process and its workers: `run_distributed` puts
    /// its sockets and ring files under `std::env::temp_dir()`.
    pub tmp_dir: PathBuf,
    pub nproc: usize,
}

/// `path` relative to the working directory when it lies inside it.
/// Unix socket paths are capped near 100 bytes; a checkout may be deep.
fn shorten(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// Clear the knobs, find the worker, create the output directories and
/// point `TMPDIR` into them. Call before any thread is started.
pub fn prepare() -> Result<Host, String> {
    for knob in ENV_KNOBS {
        std::env::remove_var(knob);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no parent directory")?;
    let worker = bin_dir.join("ssp-worker");
    if !worker.is_file() {
        return Err(format!(
            "ssp-worker is missing next to {}: build both with `cargo build --release \
             --manifest-path ledger/Cargo.toml` (ledger/run.sh does)",
            exe.display()
        ));
    }
    // target/<profile>/ledger → target/ledger
    let out_dir = shorten(&bin_dir.parent().unwrap_or(bin_dir).join("ledger"));
    let tmp_dir = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("create {}: {e}", tmp_dir.display()))?;
    std::env::set_var("TMPDIR", &tmp_dir);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Host { worker, out_dir, tmp_dir, nproc })
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The repo's commit (`-dirty` when the tree has uncommitted changes), or
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    first_line_of("git", &["describe", "--always", "--dirty"])
}

impl Host {
    /// Everything about the host a reader needs to interpret the numbers.
    pub fn describe(&self) -> JsonValue {
        let mut m = BTreeMap::new();
        m.insert("nproc".to_string(), JsonValue::Num(self.nproc as f64));
        m.insert("sized_for_nproc".to_string(), JsonValue::Num(SIZED_FOR_NPROC as f64));
        m.insert("nproc_matches".to_string(), JsonValue::Bool(self.nproc == SIZED_FOR_NPROC));
        m.insert("rustc".to_string(), JsonValue::Str(first_line_of("rustc", &["-V"])));
        m.insert("commit".to_string(), JsonValue::Str(git_commit()));
        m.insert(
            "transport".to_string(),
            JsonValue::Str(Plane::program_default().name().to_string()),
        );
        JsonValue::Obj(m)
    }
}
