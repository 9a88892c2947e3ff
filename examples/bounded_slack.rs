//! Bounded-slack channels, deadlock detection, and execution tracing.
//!
//! ```sh
//! cargo run --release --example bounded_slack
//! ```
//!
//! The paper's Theorem 1 model gives every channel *infinite* slack, so a
//! send never blocks. This example shows what the runtime adds on top:
//!
//! 1. a §3.3-disciplined mesh plan runs to the **bitwise-identical** final
//!    state at slack 1 and unbounded, and reports its communication
//!    profile (per-channel messages/bytes/queue depths) as JSON;
//! 2. an intentionally *undisciplined* exchange — both processes receive
//!    before sending — fails with a typed `RunError::Deadlock` naming the
//!    wait-for cycle, instead of hanging;
//! 3. the same undisciplined program on real OS threads is caught by the
//!    watchdog and returns the same typed error.

use std::sync::Arc;
use std::time::Duration;

use archetypes::grid::{Grid3, ProcGrid3};
use archetypes::mesh::driver::{build_msg_processes_with_slack, HostMode, MeshLocal};
use archetypes::mesh::{Env, Plan};
use archetypes::runtime::{
    run_threaded_with, ChannelId, Effect, Process, RoundRobin, RunError, Simulator,
    ThreadedConfig, Topology,
};

struct Heat {
    u: Grid3<f64>,
    next: Grid3<f64>,
}

impl MeshLocal for Heat {
    fn snapshot_bytes(&self) -> Vec<u8> {
        archetypes::grid::io::grid3_to_bytes(&self.u)
    }
}

fn init(env: &Env) -> Heat {
    let (nx, ny, nz) = env.block.extent();
    let block = env.block;
    let u = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| {
        let (gi, gj, gk) = block.to_global(i, j, k);
        ((gi * 3 + gj * 5 + gk * 7) % 13) as f64 - 6.0
    });
    Heat { next: u.clone(), u }
}

fn heat_plan(steps: usize) -> Plan<Heat> {
    Plan::builder()
        .loop_n(steps, |b| {
            b.exchange("halo", |h: &mut Heat| &mut h.u).local("relax", |env, h| {
                let (nx, ny, nz) = h.u.extent();
                let g = env.pg.n;
                for i in 0..nx as isize {
                    for j in 0..ny as isize {
                        for k in 0..nz as isize {
                            let (gi, gj, gk) =
                                env.block.to_global(i as usize, j as usize, k as usize);
                            let edge = gi == 0
                                || gj == 0
                                || gk == 0
                                || gi == g.0 - 1
                                || gj == g.1 - 1
                                || gk == g.2 - 1;
                            let v = if edge {
                                h.u.get(i, j, k)
                            } else {
                                0.5 * h.u.get(i, j, k)
                                    + (0.5 / 6.0)
                                        * (h.u.get(i - 1, j, k)
                                            + h.u.get(i + 1, j, k)
                                            + h.u.get(i, j - 1, k)
                                            + h.u.get(i, j + 1, k)
                                            + h.u.get(i, j, k - 1)
                                            + h.u.get(i, j, k + 1))
                            };
                            h.next.set(i, j, k, v);
                        }
                    }
                }
                std::mem::swap(&mut h.u, &mut h.next);
            })
        })
        .build()
}

/// A process that *receives before it sends* — the ordering §3.3 forbids.
/// Two of these facing each other deadlock immediately.
struct RecvFirst {
    chan_in: ChannelId,
    chan_out: ChannelId,
    got: bool,
    sent: bool,
}

impl Process for RecvFirst {
    type Msg = u64;
    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        if delivery.is_some() {
            self.got = true;
        }
        if !self.got {
            return Effect::Recv { chan: self.chan_in };
        }
        if !self.sent {
            self.sent = true;
            return Effect::Send { chan: self.chan_out, msg: 1 };
        }
        Effect::Halt
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![u8::from(self.got)]
    }
}

fn recv_first_pair() -> (Topology, Vec<RecvFirst>) {
    let mut topo = Topology::new(2);
    let c01 = topo.connect(0, 1);
    let c10 = topo.connect(1, 0);
    let procs = vec![
        RecvFirst { chan_in: c10, chan_out: c01, got: false, sent: false },
        RecvFirst { chan_in: c01, chan_out: c10, got: false, sent: false },
    ];
    (topo, procs)
}

fn main() {
    // 1. Disciplined plan: slack 1 vs unbounded, bitwise identical.
    let plan = heat_plan(4);
    let pg = ProcGrid3::choose((12, 12, 12), 4);
    let init_fn: archetypes::mesh::plan::InitFn<Heat> = Arc::new(init);
    let run = |slack| {
        let (topo, procs) =
            build_msg_processes_with_slack(&plan, pg, &init_fn, HostMode::GridRank0, slack);
        Simulator::new(topo, procs).run(&mut RoundRobin::new())
    };
    let bounded = run(Some(1)).expect("§3.3-disciplined plans are deadlock-free at slack 1");
    let unbounded = run(None).expect("infinite slack is the paper's model");
    assert_eq!(bounded.snapshots, unbounded.snapshots);
    println!(
        "slack 1 == unbounded (bitwise): true; profile: {} messages, {} bytes, \
         max queue depth {} (bound 1)",
        bounded.metrics.total_messages(),
        bounded.metrics.total_bytes(),
        bounded.metrics.max_queue_depth(),
    );
    println!("\ncommunication profile (JSON):\n{}\n", bounded.metrics.to_json());

    // 2. Undisciplined exchange under the simulated scheduler: typed error.
    let (topo, procs) = recv_first_pair();
    let err = Simulator::new(topo, procs)
        .run(&mut RoundRobin::new())
        .expect_err("receive-before-receive must deadlock");
    println!("simulated undisciplined exchange: {err}");
    assert!(matches!(err, RunError::Deadlock { ref cycle, .. } if cycle.len() == 2));

    // 3. The same program on real threads: the watchdog converts the hang
    //    into the same typed error.
    let (topo, procs) = recv_first_pair();
    let err = run_threaded_with(&topo, procs, ThreadedConfig::with_watchdog(Duration::from_millis(200)))
        .expect_err("the watchdog must fire");
    println!("threaded undisciplined exchange:  {err}");
    assert!(matches!(err, RunError::Deadlock { .. }));
}
