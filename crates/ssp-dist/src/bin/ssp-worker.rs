//! The worker executable: `ssp-worker <run dir> <worker index>
//! [threads per group] [peer transport]`. The supervisor spawns it with
//! its end of a Unix-domain socket pair as stdin and the run directory,
//! which holds the peer sockets and shm rings, as the first argument;
//! never run by hand.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (dir, idx) = match (args.get(1), args.get(2).and_then(|s| s.parse().ok())) {
        (Some(d), Some(i)) => (Path::new(d), i),
        _ => {
            eprintln!(
                "usage: ssp-worker <run dir> <worker index> [threads per group] \
                 [peer transport: unix|tcp] (stdin: the supervisor's socket)"
            );
            return ExitCode::FAILURE;
        }
    };
    // 0 (or absent) means "auto": let the scheduler size its pool.
    let group_workers = match args.get(3).map(|s| s.parse::<usize>()) {
        None | Some(Ok(0)) => None,
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => {
            eprintln!("ssp-worker: threads per group must be an integer");
            return ExitCode::FAILURE;
        }
    };
    let peer_tcp = match args.get(4).map(String::as_str) {
        None | Some("unix") => false,
        Some("tcp") => true,
        Some(other) => {
            eprintln!("ssp-worker: unknown peer transport {other:?} (want unix|tcp)");
            return ExitCode::FAILURE;
        }
    };
    match ssp_dist::worker_main(dir, idx, group_workers, peer_tcp) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
