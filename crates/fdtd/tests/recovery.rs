//! FDTD Version A with an injected crash recovers **bitwise identical** to
//! the uninjected run, under all six scheduling policies × slack 1 / 4 /
//! unbounded; and a mid-run cut survives the migration codec.
//!
//! Theorem 1 (§3.2) is what makes this possible: a crashed-and-restarted
//! (or migrated) execution is just another maximal interleaving of the same
//! process collection, so the recovered run must land on exactly the
//! snapshots of the clean run — not approximately, byte for byte.

use std::sync::Arc;

use fdtd::par::{init_a, plan_a};
use fdtd::Params;
use mesh_archetype::driver::{build_msg_processes_with_slack, HostMode, MsgProcess};
use mesh_archetype::run_msg_simulated;
use meshgrid::ProcGrid3;
use ssp_runtime::proc::{push_bytes, push_u64, Reader};
use ssp_runtime::{
    crashing, launch_partial, run_recovering, Adversary, AdversarialPolicy, Crash, RandomPolicy,
    RecoveryConfig, RoundRobin, RunError, SchedulePolicy, Simulator,
};

/// The six-policy battery of the slack tests, freshly constructed per call
/// (policies are stateful).
fn battery() -> Vec<(&'static str, Box<dyn SchedulePolicy>)> {
    vec![
        ("round-robin", Box::new(RoundRobin::new())),
        ("seeded-random", Box::new(RandomPolicy::seeded(0xf0f0_5eed))),
        ("lowest-first", Box::new(AdversarialPolicy::new(Adversary::LowestFirst))),
        ("highest-first", Box::new(AdversarialPolicy::new(Adversary::HighestFirst))),
        ("ping-pong", Box::new(AdversarialPolicy::new(Adversary::PingPong))),
        ("starve-0", Box::new(AdversarialPolicy::new(Adversary::Starve(0)))),
    ]
}

#[test]
fn injected_crash_recovers_bitwise_under_six_policies_and_three_slacks() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let init = init_a(params.clone());
    let pg = ProcGrid3::choose(params.n, 4);
    let build =
        |slack| build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, slack);

    // One arbitrary crash point per policy, spread across the run. At
    // slack 1 a crash point may follow a blocked send; it is keyed to the
    // process's own resumes, so it names the same action there too.
    let crash_steps = [3u64, 7, 11, 17, 23, 31];

    for slack in [Some(1), Some(4), None] {
        for (i, ((name, mut clean), (_, mut injected))) in
            battery().into_iter().zip(battery()).enumerate()
        {
            let (topo, procs) = build(slack);
            let reference = Simulator::new(topo, procs).run(clean.as_mut()).unwrap();

            let at_step = crash_steps[i];
            let (topo, procs) = build(slack);
            let procs = crashing(procs, &[Crash { proc: 1, at_step }]);
            let every = RecoveryConfig::every(16);
            let out = run_recovering(topo, procs, injected.as_mut(), every)
                .unwrap_or_else(|e| panic!("{name}, slack {slack:?}: {e}"));

            assert_eq!(
                out.snapshots, reference.snapshots,
                "recovered state diverged under {name}, slack {slack:?}, crash at {at_step}"
            );
            assert_eq!(out.stats.restarts, 1, "{name}, slack {slack:?}");
            assert!(
                matches!(
                    out.stats.faults_fired[..],
                    [RunError::Injected { proc: 1, step }] if step == at_step
                ),
                "{name}, slack {slack:?}: {:?}",
                out.stats.faults_fired
            );
        }
    }
}

/// The migration payload in tier 1: a real mid-exchange cut of Version A at
/// P = 2, each rank's state through its byte codec. Every truncation, and a
/// state whose local section is one byte short, is a typed error naming the
/// rank; the intact bytes resume, on the threaded scheduler seeded from the
/// cut, to the simulator's snapshots.
#[test]
fn mid_exchange_cut_survives_the_state_codec() {
    let params = Arc::new(Params::tiny());
    let plan = plan_a(&params);
    let init = init_a(params.clone());
    let pg = ProcGrid3::choose(params.n, 2);
    let reference = run_msg_simulated(&plan, pg, &init, &mut RoundRobin::new()).unwrap();
    let build = || build_msg_processes_with_slack(&plan, pg, &init, HostMode::GridRank0, None);

    // Rank 0 runs until it waits for its first halo; rank 1 then sends it.
    let (topo, procs) = build();
    let mut sim = Simulator::new(topo.clone(), procs);
    while sim.is_runnable(0) {
        sim.step_process_with(0, &mut |_| {}).unwrap();
    }
    sim.step_process_with(1, &mut |_| {}).unwrap();
    let mut seed = sim.into_seed();
    assert!(seed.queues.iter().any(|(_, q)| !q.is_empty()), "a halo is in flight at the cut");

    let (_, templates) = build();
    let named = |rank: usize, bytes: &[u8], what: &str| {
        match MsgProcess::decode_state(&templates[rank], bytes) {
            Err(RunError::Protocol { proc, .. }) => assert_eq!(proc, rank, "{what}"),
            other => panic!("rank {rank}, {what}: {:?}", other.err()),
        }
    };
    for (rank, proc, _, _) in &mut seed.procs {
        let bytes = proc.encode_state();
        for cut in 0..bytes.len() {
            named(*rank, &bytes[..cut], &format!("cut at {cut}"));
        }
        // `[pc][local state][rest]`, the local state re-framed one byte short.
        let mut r = Reader::new("test", &bytes);
        let pc = r.u64("pc").unwrap();
        let local = r.bytes("local").unwrap();
        let mut short = Vec::new();
        push_u64(&mut short, pc);
        push_bytes(&mut short, &local[..local.len() - 1]);
        short.extend_from_slice(r.rest());
        named(*rank, &short, "short local state");
        *proc = MsgProcess::decode_state(&templates[*rank], &bytes).unwrap();
    }
    let out = launch_partial(&topo, seed, Some(2), None, None, None);
    let snapshots: Vec<Vec<u8>> = out.join().unwrap().snapshots.into_iter().map(|s| s.1).collect();
    assert_eq!(snapshots, reference.snapshots);
}
