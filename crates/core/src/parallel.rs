//! The target parallel form: per-process instruction scripts.
//!
//! §3.1's target parallel program — N sequential deterministic processes,
//! no shared variables, sends and blocking receives on single-reader
//! single-writer channels with infinite slack — realized as
//! [`ScriptProcess`]es over [`ssp_runtime`]. Scripts are produced from
//! simulated-parallel programs by [`crate::transform::to_parallel`].

use ssp_runtime::{
    run_threaded_with, ChannelId, Effect, Process, RunError, RunOutcome, SchedulePolicy,
    Simulator, Topology,
};

use crate::ir::{Expr, LocalAssign, Store, Var};

/// One instruction of a process script.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// A straight-line block of local assignments (one atomic
    /// local-computation action).
    Compute(Vec<LocalAssign>),
    /// Evaluate `expr` over local state and send the value on `chan`.
    Send {
        /// Channel to send on.
        chan: ChannelId,
        /// Value expression (local variables only).
        expr: Expr,
    },
    /// Receive a value from `chan` into `target`.
    Recv {
        /// Channel to receive from.
        chan: ChannelId,
        /// Local variable the delivered value is stored into.
        target: Var,
    },
}

/// A transformed parallel program: a channel topology plus one script per
/// process.
#[derive(Debug, Clone)]
pub struct ParallelProgram {
    /// The SRSW channel structure.
    pub topo: Topology,
    /// `scripts[i]` is process `i`'s instruction sequence.
    pub scripts: Vec<Vec<Instr>>,
}

impl ParallelProgram {
    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.scripts.len()
    }

    /// Total instruction count (a size metric).
    pub fn instr_count(&self) -> usize {
        self.scripts.iter().map(Vec::len).sum()
    }

    /// Number of send instructions (= messages per run).
    pub fn send_count(&self) -> usize {
        self.scripts
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::Send { .. }))
            .count()
    }

    /// Instantiate runnable processes from an initial store (each process
    /// receives its own partition of `init`).
    pub fn processes(&self, init: &Store) -> Vec<ScriptProcess> {
        self.scripts
            .iter()
            .enumerate()
            .map(|(p, script)| {
                let mut local = Store::new();
                for (v, x) in init.partition(p) {
                    local.set(&v, x);
                }
                ScriptProcess { proc: p, script: script.clone(), pc: 0, store: local }
            })
            .collect()
    }

    /// Run under the simulated scheduler with `policy`.
    pub fn run_simulated(
        &self,
        init: &Store,
        policy: &mut dyn SchedulePolicy,
    ) -> Result<RunOutcome, RunError> {
        Simulator::new(self.topo.clone(), self.processes(init)).run(policy)
    }

    /// Run on real OS threads; returns per-process snapshots.
    pub fn run_threaded(&self, init: &Store) -> Result<Vec<Vec<u8>>, RunError> {
        run_threaded_with(&self.topo, self.processes(init), Default::default())
            .map(|o| o.snapshots)
    }
}

/// One process executing a script over its private store.
#[derive(Debug, Clone)]
pub struct ScriptProcess {
    /// This process's rank.
    pub proc: usize,
    script: Vec<Instr>,
    pc: usize,
    store: Store,
}

impl ScriptProcess {
    /// Read a local variable (for assertions in tests).
    pub fn get(&self, name: &str) -> f64 {
        self.store.get(&Var::new(self.proc, name))
    }
}

impl Process for ScriptProcess {
    type Msg = f64;

    fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
        if let Some(v) = delivery {
            // The delivery completes the Recv instruction at pc-1.
            let Instr::Recv { target, .. } = &self.script[self.pc - 1] else {
                panic!("delivery without a preceding Recv");
            };
            self.store.set(target, v);
        }
        if self.pc >= self.script.len() {
            return Effect::Halt;
        }
        let instr = self.script[self.pc].clone();
        self.pc += 1;
        match instr {
            Instr::Compute(assigns) => {
                let units = assigns.len() as u64;
                for a in &assigns {
                    let v = a.expr.eval(&self.store);
                    self.store.set(&a.target, v);
                }
                Effect::Compute { units }
            }
            Instr::Send { chan, expr } => {
                let msg = expr.eval(&self.store);
                Effect::Send { chan, msg }
            }
            Instr::Recv { chan, .. } => Effect::Recv { chan },
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.store.partition_snapshot(self.proc)
    }

    fn progress(&self) -> u64 {
        self.pc as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_runtime::RoundRobin;

    /// Hand-built two-process exchange: each sends x+1, receives into g,
    /// computes z = g * 2.
    fn hand_program() -> (ParallelProgram, Store) {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let script = |p: usize, out: ChannelId, inp: ChannelId| {
            vec![
                Instr::Send {
                    chan: out,
                    expr: Expr::Add(
                        Box::new(Expr::Var(Var::new(p, "x"))),
                        Box::new(Expr::Const(1.0)),
                    ),
                },
                Instr::Recv { chan: inp, target: Var::new(p, "g") },
                Instr::Compute(vec![LocalAssign {
                    target: Var::new(p, "z"),
                    expr: Expr::Mul(
                        Box::new(Expr::Var(Var::new(p, "g"))),
                        Box::new(Expr::Const(2.0)),
                    ),
                }]),
            ]
        };
        let pp = ParallelProgram {
            topo,
            scripts: vec![script(0, c01, c10), script(1, c10, c01)],
        };
        let mut init = Store::new();
        init.set(&Var::new(0, "x"), 10.0);
        init.set(&Var::new(1, "x"), 20.0);
        (pp, init)
    }

    #[test]
    fn scripts_execute_and_halt() {
        let (pp, init) = hand_program();
        let out = pp.run_simulated(&init, &mut RoundRobin::new()).unwrap();
        // Decode via a fresh process run to the same end state is overkill;
        // check snapshots differ per process and run deterministically.
        let out2 = pp.run_simulated(&init, &mut RoundRobin::new()).unwrap();
        assert_eq!(out.snapshots, out2.snapshots);
        assert_eq!(pp.send_count(), 2);
        assert_eq!(pp.instr_count(), 6);
    }

    #[test]
    fn threaded_matches_simulated() {
        let (pp, init) = hand_program();
        let sim = pp.run_simulated(&init, &mut RoundRobin::new()).unwrap();
        let thr = pp.run_threaded(&init).unwrap();
        assert_eq!(sim.snapshots, thr);
    }

    #[test]
    fn partitions_seed_only_their_own_process() {
        let (pp, init) = hand_program();
        let procs = pp.processes(&init);
        assert_eq!(procs[0].get("x"), 10.0);
        assert_eq!(procs[1].get("x"), 20.0);
        // Process 0 has no view of process 1's x.
        assert_eq!(procs[0].store.partition(1).len(), 0);
    }
}
