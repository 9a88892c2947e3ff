//! End-to-end tests of the distributed backend: real worker processes,
//! real sockets, real SIGKILL.
//!
//! The acceptance standard throughout is the paper's (§4.5): final
//! snapshots **bitwise identical** to the deterministic simulator's, with
//! or without workers dying mid-run.

use ssp_dist::{
    build_workload, fdtd_a_args, ring_args, run_distributed, ChaosKill, DistConfig,
    MigrationPolicy, TransportMode,
};
use ssp_runtime::RunError;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_ssp-worker")
}

#[test]
fn ring_across_two_workers_matches_the_simulator_bitwise() {
    let args = ring_args(6, 4);
    let reference = build_workload("ring", &args).unwrap().run_reference().unwrap();
    let cfg = DistConfig::new(2, worker_bin());
    let out = run_distributed("ring", &args, &cfg).expect("distributed ring");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.stats.migrations, 0);
    // The ring has cross-worker edges. Each send is logged once, by its
    // sender's worker; the supervisor reads DATA only on the star.
    let st = &out.stats;
    assert!(st.frames_logged > 0, "stats: {st:?}");
    match cfg.transport {
        TransportMode::Star => assert_eq!(st.star_frames, st.frames_logged, "stats: {st:?}"),
        TransportMode::Direct { .. } => {
            assert_eq!(st.star_frames, 0, "stats: {st:?}");
            assert_eq!(st.frames_logged, st.direct_frames + st.shm_frames, "stats: {st:?}");
        }
    }
    // Aggregated metrics cover the whole program.
    assert_eq!(out.metrics.procs.len(), 6);
    let sends: u64 = out.metrics.procs.iter().map(|p| p.sends).sum();
    assert_eq!(sends, 6 * 4, "every rank sends once per lap");
    // Each group of three ranks gets its worker's share of the host (or
    // `SSP_WORKERS`); an explicit `group_workers` wins over both.
    let share = ssp_runtime::sched::pool_share(None, 2);
    assert_eq!(out.metrics.sched.workers, 2 * share.min(3), "share {share}");
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.group_workers = Some(2);
    let out = run_distributed("ring", &args, &cfg).expect("distributed ring");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.metrics.sched.workers, 4);
}

#[test]
fn fdtd_version_a_across_workers_matches_the_simulator_bitwise() {
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    for workers in [2, 3] {
        let cfg = DistConfig::new(workers, worker_bin());
        let out = run_distributed("fdtd-a", &args, &cfg)
            .unwrap_or_else(|e| panic!("distributed fdtd-a at {workers} workers: {e}"));
        assert_eq!(
            out.snapshots, reference,
            "distributed FDTD at {workers} workers diverged from the simulator"
        );
        assert_eq!(out.stats.migrations, 0);
        assert!(out.stats.frames_logged > 0);
    }
}

#[test]
fn sigkilled_worker_mid_run_migrates_to_survivor_with_identical_results() {
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    let mut cfg = DistConfig::new(2, worker_bin());
    // SIGKILL worker 1 once real traffic is flowing: a non-graceful,
    // mid-computation death with messages in flight.
    cfg.chaos_kill = vec![ChaosKill { worker: 1, after_sends: 12 }];
    cfg.policy = MigrationPolicy::Survivor;
    let out = run_distributed("fdtd-a", &args, &cfg).expect("run must survive the kill");
    assert_eq!(
        out.snapshots, reference,
        "post-migration FDTD state diverged from the simulator"
    );
    assert_eq!(out.stats.migrations, 1, "stats: {:?}", out.stats);
    assert_eq!(out.stats.workers_spawned, 0, "Survivor policy must not spawn");
    // The survivor replayed its send log into the migrated group, and its
    // gates checked the regenerated sends against the originals' digests.
    assert!(out.stats.frames_replayed > 0, "stats: {:?}", out.stats);
    assert!(out.stats.duplicates_dropped > 0, "stats: {:?}", out.stats);
}

#[test]
fn spawn_policy_replaces_the_dead_worker_with_a_fresh_process() {
    let args = ring_args(6, 8);
    let reference = build_workload("ring", &args).unwrap().run_reference().unwrap();
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.chaos_kill = vec![ChaosKill { worker: 0, after_sends: 5 }];
    cfg.policy = MigrationPolicy::Spawn;
    let out = run_distributed("ring", &args, &cfg).expect("run must survive the kill");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.stats.migrations, 1, "stats: {:?}", out.stats);
    assert_eq!(out.stats.workers_spawned, 1, "Spawn policy must grow the fleet");
}

#[test]
fn migration_budget_zero_surfaces_worker_lost() {
    let args = ring_args(6, 8);
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.chaos_kill = vec![ChaosKill { worker: 0, after_sends: 3 }];
    cfg.max_migrations = 0;
    let err = run_distributed("ring", &args, &cfg).expect_err("budget 0 cannot recover");
    assert!(matches!(err, RunError::WorkerLost { .. }), "got {err:?}");
}

#[test]
fn unknown_workload_fails_before_spawning_anything() {
    let cfg = DistConfig::new(1, worker_bin());
    let err = run_distributed("no-such-workload", &ssp_runtime::JsonValue::Null, &cfg)
        .expect_err("unknown workload");
    assert!(matches!(err, RunError::Protocol { .. }), "got {err:?}");
}

#[test]
fn a_worker_that_dies_before_hello_is_a_typed_loss_not_a_timeout() {
    // `true` exits at once without a word: its socket's EOF, not the
    // 10 s HELLO timeout, must end the run, naming the worker and its
    // exit status.
    let cfg = DistConfig::new(2, "/bin/true");
    let t0 = std::time::Instant::now();
    let err = run_distributed("ring", &ring_args(4, 1), &cfg).expect_err("no worker can start");
    let took = t0.elapsed();
    match &err {
        RunError::WorkerLost { worker: 0, detail } => {
            assert!(detail.contains("before HELLO") && detail.contains("exit status"), "{err}")
        }
        other => panic!("got {other:?}"),
    }
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
}

#[test]
fn flight_enabled_distributed_run_merges_worker_traces() {
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.flight = Some(4096);
    let out = run_distributed("fdtd-a", &args, &cfg).expect("flight-enabled distributed run");
    assert_eq!(out.snapshots, reference, "recording changes no result byte over sockets");

    // Every worker shipped its group's trace; lanes arrive namespaced
    // w{worker}/g{group}/... so cross-process origins stay readable.
    let log = out.flight.expect("flight-enabled run must return the merged log");
    assert!(!log.lanes.is_empty(), "merged log has lanes");
    for lane in &log.lanes {
        assert!(
            lane.label.starts_with('w') && lane.label.contains("/g"),
            "lane label {:?} is not namespaced",
            lane.label
        );
    }
    let origins: std::collections::HashSet<&str> =
        log.lanes.iter().filter_map(|l| l.label.split('/').next()).collect();
    assert!(origins.len() >= 2, "both workers must contribute lanes: {origins:?}");
    // Each rank's final Halt crossed a process inside its GROUP_DONE, and
    // every lane kept its recorder's time order.
    let halts = log.merged().iter().filter(|e| e.kind == ssp_runtime::FlightKind::Halt).count();
    assert_eq!(halts, 4, "one Halt per rank in the merged log");
    for lane in &log.lanes {
        assert!(
            lane.events.windows(2).all(|w| w[0].nanos <= w[1].nanos),
            "lane {} out of order",
            lane.label
        );
    }

    // And with the recorder off, the same run returns no log at all.
    let cfg_off = DistConfig::new(2, worker_bin());
    let out_off = run_distributed("fdtd-a", &args, &cfg_off).unwrap();
    assert!(out_off.flight.is_none(), "disabled runs must not collect traces");
    assert_eq!(out_off.snapshots, reference);
}

#[test]
fn direct_mode_keeps_steady_state_traffic_off_the_star() {
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();

    // Full direct+shm plane: payloads ride rings and peer sockets, the
    // senders log them, and the supervisor reads and forwards nothing.
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.transport = TransportMode::Direct { shm: true };
    let out = run_distributed("fdtd-a", &args, &cfg).expect("direct+shm run");
    assert_eq!(out.snapshots, reference);
    assert_eq!(
        out.stats.star_frames, 0,
        "steady state must not route through the supervisor: {:?}",
        out.stats
    );
    assert!(
        out.stats.shm_frames > 0,
        "co-located workers should use the shared ring: {:?}",
        out.stats
    );
    assert_eq!(
        out.stats.frames_logged,
        out.stats.shm_frames + out.stats.direct_frames,
        "every send is logged exactly once in a healthy run"
    );

    // Sockets-only direct plane: same invariants, no shm traffic.
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.transport = TransportMode::Direct { shm: false };
    let out = run_distributed("fdtd-a", &args, &cfg).expect("direct run");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.stats.star_frames, 0, "stats: {:?}", out.stats);
    assert_eq!(out.stats.shm_frames, 0, "shm is off in plain direct mode");
    assert!(out.stats.direct_frames > 0, "stats: {:?}", out.stats);

    // Star mode: the PR 7 plane — the supervisor forwards everything and
    // no worker ever opens a peer connection.
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.transport = TransportMode::Star;
    let out = run_distributed("fdtd-a", &args, &cfg).expect("star run");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.stats.direct_frames + out.stats.shm_frames, 0, "stats: {:?}", out.stats);
    assert_eq!(out.stats.star_frames, out.stats.frames_logged, "star mode forwards every frame");
}

#[test]
fn tcp_peer_plane_matches_bitwise_too() {
    // The cross-host wire flavor, on loopback: same bytes, same results.
    let args = ring_args(6, 4);
    let reference = build_workload("ring", &args).unwrap().run_reference().unwrap();
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.transport = TransportMode::Direct { shm: false };
    cfg.peer_tcp = true;
    let out = run_distributed("ring", &args, &cfg).expect("tcp-peer run");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.stats.star_frames, 0, "stats: {:?}", out.stats);
    assert!(out.stats.direct_frames > 0, "stats: {:?}", out.stats);
}

#[test]
fn healthy_checkpointed_run_truncates_logs_and_changes_no_byte() {
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.checkpoint_every = Some(4);
    let out = run_distributed("fdtd-a", &args, &cfg).expect("checkpointed run");
    assert_eq!(out.snapshots, reference, "checkpointing must not change results");
    assert_eq!(out.stats.migrations, 0);
    assert!(out.stats.checkpoints_taken > 0, "stats: {:?}", out.stats);
    assert!(
        out.stats.log_bytes_truncated > 0,
        "advancing cuts must shed log bytes: {:?}",
        out.stats
    );
    assert!(out.stats.migration_replay_steps.is_empty(), "no migration, no replay cost");
}

/// The most cross-process sends a restarted group makes again. A group
/// seals every `k` of its sends; after the `k`-th, each other thread of its
/// pool finishes at most the send it is in before the pool pauses; and a
/// pause requested while the previous checkpoint is still being written
/// waits for it, so a death loses at most that one checkpoint.
fn replay_bound(k: u64, workers: usize) -> u64 {
    2 * k + ssp_runtime::sched::pool_share(None, workers) as u64
}

#[test]
fn checkpoint_resumed_migration_is_bitwise_identical_across_intervals() {
    // The tentpole acceptance sweep: SIGKILL mid-run at checkpoint
    // intervals 1, 8 and 64 — results stay bitwise identical to the
    // simulator, and the sends the restarted group makes again stay
    // within two intervals and its pool (the whole point of resuming from
    // a checkpoint instead of zero).
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    for k in [1u64, 8, 64] {
        let mut cfg = DistConfig::new(2, worker_bin());
        cfg.chaos_kill = vec![ChaosKill { worker: 1, after_sends: 12 }];
        cfg.policy = MigrationPolicy::Survivor;
        cfg.checkpoint_every = Some(k);
        let out = run_distributed("fdtd-a", &args, &cfg)
            .unwrap_or_else(|e| panic!("checkpointed (every {k}) run must survive: {e}"));
        assert_eq!(out.snapshots, reference, "interval {k} diverged from the simulator");
        assert_eq!(out.stats.migrations, 1, "interval {k} stats: {:?}", out.stats);
        assert_eq!(out.stats.migration_replay_steps.len(), 1);
        assert!(
            out.stats.migration_replay_steps[0] <= replay_bound(k, 2),
            "interval {k}: {} sends made again, more than two intervals and a pool",
            out.stats.migration_replay_steps[0]
        );
        if k == 1 {
            assert!(
                out.stats.log_bytes_truncated > 0,
                "tight cuts must truncate logs: {:?}",
                out.stats
            );
            assert!(out.stats.checkpoints_taken > 0, "stats: {:?}", out.stats);
        }
    }
}

#[test]
fn checkpointed_ring_survives_sigkill_at_every_interval() {
    let args = ring_args(6, 8);
    let reference = build_workload("ring", &args).unwrap().run_reference().unwrap();
    for k in [1u64, 8, 64] {
        let mut cfg = DistConfig::new(2, worker_bin());
        cfg.chaos_kill = vec![ChaosKill { worker: 0, after_sends: 5 }];
        cfg.policy = MigrationPolicy::Survivor;
        cfg.checkpoint_every = Some(k);
        let out = run_distributed("ring", &args, &cfg)
            .unwrap_or_else(|e| panic!("ring (every {k}) must survive: {e}"));
        assert_eq!(out.snapshots, reference, "interval {k} diverged");
        assert_eq!(out.stats.migrations, 1, "interval {k} stats: {:?}", out.stats);
        assert!(
            out.stats.migration_replay_steps[0] <= replay_bound(k, 2),
            "stats: {:?}",
            out.stats
        );
    }
}

#[test]
fn flight_marks_record_which_plane_carried_each_message() {
    use std::collections::HashSet;
    let args = fdtd_a_args("tiny", 4);

    // Direct+shm: the merged trace must attribute messages to the fast
    // planes, and a healthy run never marks a star route.
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.transport = TransportMode::Direct { shm: true };
    cfg.flight = Some(4096);
    let out = run_distributed("fdtd-a", &args, &cfg).expect("flight direct run");
    let kinds: HashSet<ssp_runtime::FlightKind> =
        out.flight.expect("log").merged().into_iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&ssp_runtime::FlightKind::DataShm)
            || kinds.contains(&ssp_runtime::FlightKind::DataDirect),
        "direct-plane routes must appear in the trace: {kinds:?}"
    );
    assert!(
        !kinds.contains(&ssp_runtime::FlightKind::DataStar),
        "no message should ride the star in a healthy direct run: {kinds:?}"
    );

    // Star mode: every route mark is a star mark.
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.transport = TransportMode::Star;
    cfg.flight = Some(4096);
    let out = run_distributed("fdtd-a", &args, &cfg).expect("flight star run");
    let kinds: HashSet<ssp_runtime::FlightKind> =
        out.flight.expect("log").merged().into_iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&ssp_runtime::FlightKind::DataStar), "kinds: {kinds:?}");
    assert!(
        !kinds.contains(&ssp_runtime::FlightKind::DataDirect)
            && !kinds.contains(&ssp_runtime::FlightKind::DataShm),
        "star mode must not mark direct routes: {kinds:?}"
    );
}

#[test]
fn route_marks_name_a_rank_the_recording_process_hosts() {
    use ssp_runtime::FlightKind::{DataDirect, DataShm, DataStar, Send};
    let args = fdtd_a_args("tiny", 4);
    let topo = build_workload("fdtd-a", &args).unwrap().topology();
    for transport in [TransportMode::Star, TransportMode::Direct { shm: false }] {
        let mut cfg = DistConfig::new(2, worker_bin());
        cfg.transport = transport;
        cfg.flight = Some(4096);
        let out = run_distributed("fdtd-a", &args, &cfg).expect("flight run");
        // A sender marks its route in the lane of the thread that ran it —
        // a pool worker's, or the helper's when the thread that read a
        // frame ran the rank it woke; an arrival is marked in the gateway
        // lane of the reader's group.
        let mut routes = 0;
        for lane in &out.flight.expect("log").lanes {
            let gateway = lane.label.ends_with("/gateway");
            for e in &lane.events {
                assert!(!(gateway && e.kind == Send), "{transport:?}: {} holds {e:?}", lane.label);
                if ![DataStar, DataDirect, DataShm].contains(&e.kind) {
                    continue;
                }
                let spec = topo.spec(ssp_runtime::ChannelId(e.chan as usize));
                let want = if gateway {
                    spec.reader
                } else {
                    let sender = lane.label.contains("/worker-") || lane.label.ends_with("/helper");
                    assert!(sender, "{transport:?}: {} holds {e:?}", lane.label);
                    spec.writer
                };
                assert_eq!(e.rank as usize, want, "{transport:?}: {} holds {e:?}", lane.label);
                routes += 1;
            }
        }
        assert!(routes > 0, "{transport:?}: no route marks");
    }
}

#[test]
fn flight_enabled_migration_marks_the_move_in_the_lifecycle_lane() {
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    let mut cfg = DistConfig::new(2, worker_bin());
    cfg.flight = Some(4096);
    cfg.chaos_kill = vec![ChaosKill { worker: 1, after_sends: 12 }];
    cfg.policy = MigrationPolicy::Survivor;
    let out = run_distributed("fdtd-a", &args, &cfg).expect("run must survive the kill");
    assert_eq!(out.snapshots, reference);
    assert_eq!(out.stats.migrations, 1, "stats: {:?}", out.stats);

    let log = out.flight.expect("flight-enabled run must return the merged log");
    let migrate_marks: Vec<_> = log
        .merged()
        .into_iter()
        .filter(|e| e.kind == ssp_runtime::FlightKind::Migrate)
        .collect();
    assert_eq!(migrate_marks.len(), 1, "one migration, one Migrate mark");
    // Convention: chan = source worker, bytes = destination worker.
    assert_eq!(migrate_marks[0].chan, 1, "source was the killed worker");
    assert_eq!(migrate_marks[0].bytes, 0, "Survivor policy moved ranks to worker 0");
}

#[test]
fn overlapping_deaths_of_a_writers_host_and_its_readers_host_recover() {
    // DESIGN §16's first pattern. Worker 1 (rank 2) stops at its 12th
    // send, and worker 2 (rank 3, which reads rank 2 and writes to it)
    // stops at once: both die before either restart has run. Each group
    // restarts alone from its own checkpoint; the messages rank 3's
    // checkpoint had not consumed come from the log entries in rank 2's
    // checkpoint and from rank 2 re-executing.
    let args = fdtd_a_args("tiny", 4);
    let reference = build_workload("fdtd-a", &args).unwrap().run_reference().unwrap();
    for transport in [TransportMode::Star, TransportMode::Direct { shm: false }] {
        for k in [1u64, 8] {
            let mut cfg = DistConfig::new(3, worker_bin());
            cfg.transport = transport;
            cfg.checkpoint_every = Some(k);
            cfg.chaos_kill = vec![
                ChaosKill { worker: 1, after_sends: 12 },
                ChaosKill { worker: 2, after_sends: 0 },
            ];
            let out = run_distributed("fdtd-a", &args, &cfg)
                .unwrap_or_else(|e| panic!("{transport:?}, every {k}: {e}"));
            assert_eq!(out.snapshots, reference, "{transport:?}, every {k}");
            assert_eq!(out.stats.migrations, 2, "{transport:?}, every {k}: {:?}", out.stats);
            assert_eq!(out.stats.migration_replay_steps.len(), 2, "{:?}", out.stats);
            assert!(out.stats.checkpoints_taken > 0, "{:?}", out.stats);
        }
    }
}

#[test]
fn a_later_death_beside_a_finished_group_recovers() {
    // DESIGN §16's second pattern, on a ring of 7 over 3 workers: ranks
    // {0, 1, 2}, {3, 4} and {5, 6}. Worker 2 stops before the last lap's
    // 6 → 0 send; by then group {3, 4} has made its last send and halted.
    // Its group restarts beside that finished group, on worker 1, the
    // least loaded. Worker 1 then stops at its next send and dies with
    // both. The finished group restarts too, from its checkpoint: its
    // sends to {5, 6} went by loopback, and only its checkpoint's log
    // entries and its re-execution still hold them.
    const LAPS: u64 = 6;
    let args = ring_args(7, LAPS);
    let reference = build_workload("ring", &args).unwrap().run_reference().unwrap();
    for transport in [TransportMode::Star, TransportMode::Direct { shm: false }] {
        for k in [1u64, 3] {
            let mut cfg = DistConfig::new(3, worker_bin());
            cfg.transport = transport;
            cfg.checkpoint_every = Some(k);
            cfg.chaos_kill = vec![
                ChaosKill { worker: 2, after_sends: LAPS },
                ChaosKill { worker: 1, after_sends: 1 },
            ];
            let out = run_distributed("ring", &args, &cfg)
                .unwrap_or_else(|e| panic!("{transport:?}, every {k}: {e}"));
            assert_eq!(out.snapshots, reference, "{transport:?}, every {k}");
            assert_eq!(out.stats.migrations, 2, "{transport:?}, every {k}: {:?}", out.stats);
            assert_eq!(out.stats.migration_replay_steps.len(), 2, "{:?}", out.stats);
        }
    }
}
