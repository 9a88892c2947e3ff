//! Interleaving exploration: policy batteries and exhaustive enumeration.

use ssp_runtime::{policy::standard_battery, Simulator};

use crate::ir::Store;
use crate::parallel::ParallelProgram;

/// Outcome of an exhaustive enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorationResult {
    /// Number of distinct maximal interleavings executed.
    pub interleavings: usize,
    /// The common final state (per-process snapshots), if all agreed.
    pub final_state: Vec<Vec<u8>>,
    /// True if enumeration was cut off by the budget (result then covers
    /// only the explored prefix of the interleaving space).
    pub truncated: bool,
}

/// Run `pp` from `init` under the standard policy battery (round-robin,
/// adversaries, starvation, `n_random` random seeds) and check that every
/// run terminates in the same final state. Returns that state.
pub fn policy_battery_agree(
    pp: &ParallelProgram,
    init: &Store,
    n_random: usize,
) -> Result<Vec<Vec<u8>>, String> {
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for mut policy in standard_battery(pp.n_procs(), n_random) {
        let out = pp
            .run_simulated(init, policy.as_mut())
            .map_err(|e| format!("{}: {e}", policy.name()))?;
        match &reference {
            None => reference = Some(out.snapshots),
            Some(r) => {
                if *r != out.snapshots {
                    return Err(format!(
                        "policy {} reached a different final state",
                        policy.name()
                    ));
                }
            }
        }
    }
    reference.ok_or_else(|| "empty battery".to_string())
}

/// Exhaustively enumerate maximal interleavings of `pp` from `init` by DFS
/// over the simulator's runnable sets, up to `budget` complete
/// interleavings. Errors if any two interleavings end in different states
/// (i.e. if Theorem 1 were violated) or if any deadlocks.
pub fn enumerate_interleavings(
    pp: &ParallelProgram,
    init: &Store,
    budget: usize,
) -> Result<ExplorationResult, String> {
    let sim = Simulator::new(pp.topo.clone(), pp.processes(init));
    let mut result = ExplorationResult {
        interleavings: 0,
        final_state: Vec::new(),
        truncated: false,
    };
    let mut stack: Vec<Simulator<crate::parallel::ScriptProcess>> = vec![sim];
    while let Some(sim) = stack.pop() {
        if result.interleavings >= budget {
            result.truncated = true;
            break;
        }
        if sim.is_done() {
            let snaps = sim.snapshots_now();
            if result.interleavings == 0 {
                result.final_state = snaps;
            } else if result.final_state != snaps {
                return Err("two maximal interleavings reached different final states".into());
            }
            result.interleavings += 1;
            continue;
        }
        let runnable = sim.runnable();
        if runnable.is_empty() {
            return Err("deadlock reached during enumeration".into());
        }
        for p in runnable {
            let mut branch = sim.clone();
            branch.step_process_with(p, &mut |_| {}).map_err(|e| format!("step failed: {e}"))?;
            stack.push(branch);
        }
    }
    Ok(result)
}

/// Outcome of a reachable-state-graph exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateGraphResult {
    /// Distinct reachable global states (the graph's vertices).
    pub states: usize,
    /// Atomic transitions explored (the graph's edges).
    pub transitions: usize,
    /// Distinct *terminal* states found — Theorem 1 says exactly one.
    pub terminal_states: usize,
    /// The terminal snapshots.
    pub final_state: Vec<Vec<u8>>,
    /// True if the exploration was cut off by `max_states`.
    pub truncated: bool,
}

/// Explore the reachable *state graph* of `pp` from `init`, deduplicating
/// identical global states. Where [`enumerate_interleavings`] walks the
/// interleaving *tree* (whose size is the number of maximal interleavings —
/// exponential in program length), this walks the state *lattice*, whose
/// size is bounded by the product of per-process positions — so much larger
/// systems become exhaustively checkable. Theorem 1 holds iff exactly one
/// terminal state exists.
pub fn explore_state_graph(
    pp: &ParallelProgram,
    init: &Store,
    max_states: usize,
) -> Result<StateGraphResult, String> {
    use std::collections::HashSet;

    let msg_bytes = |m: &f64| m.to_bits().to_le_bytes().to_vec();
    let root = Simulator::new(pp.topo.clone(), pp.processes(init));
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    seen.insert(root.state_fingerprint(msg_bytes));
    let mut terminals: HashSet<Vec<u8>> = HashSet::new();
    let mut result = StateGraphResult {
        states: 1,
        transitions: 0,
        terminal_states: 0,
        final_state: Vec::new(),
        truncated: false,
    };
    let mut stack = vec![root];
    while let Some(sim) = stack.pop() {
        if result.states >= max_states {
            result.truncated = true;
            break;
        }
        if sim.is_done() {
            let snaps = sim.snapshots_now();
            let key = sim.state_fingerprint(msg_bytes);
            if terminals.insert(key) {
                if result.terminal_states == 0 {
                    result.final_state = snaps;
                } else if result.final_state != snaps {
                    return Err(
                        "two distinct terminal states reached — Theorem 1 violated".into(),
                    );
                }
                result.terminal_states += 1;
            }
            continue;
        }
        let runnable = sim.runnable();
        if runnable.is_empty() {
            return Err("deadlock reached during state exploration".into());
        }
        for p in runnable {
            let mut branch = sim.clone();
            branch.step_process_with(p, &mut |_| {}).map_err(|e| format!("step failed: {e}"))?;
            result.transitions += 1;
            let key = branch.state_fingerprint(msg_bytes);
            if seen.insert(key) {
                result.states += 1;
                stack.push(branch);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Block, ExchangeAssign, Expr, LocalAssign, Program, Var};
    use crate::transform::to_parallel;

    /// A tiny two-process program with genuine concurrency: both compute,
    /// exchange, compute again.
    fn tiny() -> (ParallelProgram, Store) {
        let program = Program {
            n_procs: 2,
            blocks: vec![
                Block::Local {
                    parts: (0..2)
                        .map(|p| {
                            vec![LocalAssign {
                                target: Var::new(p, "y"),
                                expr: Expr::Add(
                                    Box::new(Expr::Var(Var::new(p, "x"))),
                                    Box::new(Expr::Const(p as f64)),
                                ),
                            }]
                        })
                        .collect(),
                },
                Block::Exchange {
                    assigns: vec![
                        ExchangeAssign {
                            target: Var::new(0, "g"),
                            expr: Expr::Var(Var::new(1, "y")),
                        },
                        ExchangeAssign {
                            target: Var::new(1, "g"),
                            expr: Expr::Var(Var::new(0, "y")),
                        },
                    ],
                },
                Block::Local {
                    parts: (0..2)
                        .map(|p| {
                            vec![LocalAssign {
                                target: Var::new(p, "z"),
                                expr: Expr::Mul(
                                    Box::new(Expr::Var(Var::new(p, "g"))),
                                    Box::new(Expr::Var(Var::new(p, "y"))),
                                ),
                            }]
                        })
                        .collect(),
                },
            ],
        };
        let pp = to_parallel(&program).unwrap();
        let mut init = Store::new();
        init.set(&Var::new(0, "x"), 2.0);
        init.set(&Var::new(1, "x"), 5.0);
        (pp, init)
    }

    #[test]
    fn battery_agrees_on_tiny_program() {
        let (pp, init) = tiny();
        let state = policy_battery_agree(&pp, &init, 8).unwrap();
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn exhaustive_enumeration_finds_many_interleavings_one_state() {
        let (pp, init) = tiny();
        let r = enumerate_interleavings(&pp, &init, 100_000).unwrap();
        assert!(!r.truncated, "tiny program should be fully enumerable");
        // Two processes with 4 actions each: many interleavings, one state.
        assert!(
            r.interleavings > 10,
            "expected real concurrency, got {}",
            r.interleavings
        );
        // The state agrees with a battery run.
        let battery = policy_battery_agree(&pp, &init, 2).unwrap();
        assert_eq!(r.final_state, battery);
    }

    #[test]
    fn state_graph_is_much_smaller_than_the_interleaving_tree() {
        let (pp, init) = tiny();
        let tree = enumerate_interleavings(&pp, &init, 1_000_000).unwrap();
        let graph = explore_state_graph(&pp, &init, 1_000_000).unwrap();
        assert!(!graph.truncated);
        assert_eq!(graph.terminal_states, 1, "Theorem 1: one terminal state");
        assert_eq!(graph.final_state, tree.final_state);
        assert!(
            graph.states < tree.interleavings * 4,
            "lattice {} should not dwarf tree {}",
            graph.states,
            tree.interleavings
        );
        assert!(graph.transitions >= graph.states - 1, "connected graph");
    }

    #[test]
    fn state_graph_scales_past_tree_enumeration() {
        // A stencil system whose interleaving tree is astronomically large
        // but whose state lattice is tractable.
        use crate::stencil::{partition, seed_initial, StencilSpec};
        let spec = StencilSpec { n: 6, steps: 2, a: 0.25, b: 0.5, c: 0.25 };
        let pp = crate::transform::to_parallel(&partition(&spec, 3)).unwrap();
        let mut store = Store::new();
        seed_initial(&spec, 3, |i| i as f64)(&mut store);
        let graph = explore_state_graph(&pp, &store, 2_000_000).unwrap();
        assert!(!graph.truncated, "lattice fits: {} states", graph.states);
        assert_eq!(graph.terminal_states, 1);
        // Sanity: the tree for this system would overflow any budget we can
        // afford; the lattice stays modest.
        assert!(graph.states > 100, "nontrivial concurrency: {}", graph.states);
    }

    #[test]
    fn state_graph_budget_truncates() {
        let (pp, init) = tiny();
        let r = explore_state_graph(&pp, &init, 5).unwrap();
        assert!(r.truncated);
    }

    #[test]
    fn enumeration_budget_truncates() {
        let (pp, init) = tiny();
        let r = enumerate_interleavings(&pp, &init, 3).unwrap();
        assert!(r.truncated);
        assert!(r.interleavings <= 3);
    }
}
