//! Communication/computation traces for the machine model.
//!
//! The mesh archetype's simulated-parallel driver records, for every
//! executed phase, the per-rank computation cost and every message (sender,
//! receiver, bytes). This crate prices such a trace for a particular machine
//! (network-of-Suns, IBM SP), which is how this repo regenerates the
//! paper's Table 1 and Figure 2 without 1998 hardware.
//!
//! The types live here (rather than in `mesh-archetype`, which re-exports
//! them) so that trace *producers* (the mesh drivers) and trace *consumers*
//! (the analytic model, the `perf-sim` discrete-event engine) can both
//! depend on them without a cycle.

/// One recorded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// The cost record of one executed phase (one loop iteration of a phase
/// produces one record).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase name (from the plan).
    pub name: String,
    /// Per-rank flops spent in this phase (all zeros for pure-communication
    /// phases).
    pub flops: Vec<u64>,
    /// Messages sent during this phase.
    pub msgs: Vec<MsgRecord>,
}

impl PhaseCost {
    /// A pure-computation record.
    pub fn compute(name: &str, flops: Vec<u64>) -> Self {
        PhaseCost { name: name.to_string(), flops, msgs: Vec::new() }
    }

    /// Total bytes moved in this phase.
    pub fn total_bytes(&self) -> u64 {
        self.msgs.iter().map(|m| m.bytes).sum()
    }
}

/// A complete run trace: every phase execution, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommTrace {
    /// Number of ranks in the run.
    pub nprocs: usize,
    /// Phase records in execution order.
    pub phases: Vec<PhaseCost>,
}

impl CommTrace {
    /// An empty trace for `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        CommTrace { nprocs, phases: Vec::new() }
    }

    /// Append a phase record.
    pub fn push(&mut self, c: PhaseCost) {
        self.phases.push(c);
    }

    /// Total messages across the run.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.msgs.len() as u64).sum()
    }

    /// Total bytes across the run.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.total_bytes()).sum()
    }

    /// Total flops summed over ranks and phases.
    pub fn total_flops(&self) -> u64 {
        self.phases.iter().flat_map(|p| p.flops.iter()).sum()
    }

    /// Maximum per-rank flops summed over phases (the critical compute
    /// path under perfect overlap of ranks).
    pub fn critical_flops(&self) -> u64 {
        let mut per_rank = vec![0u64; self.nprocs];
        for ph in &self.phases {
            for (r, f) in ph.flops.iter().enumerate() {
                per_rank[r] += f;
            }
        }
        per_rank.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut t = CommTrace::new(2);
        t.push(PhaseCost::compute("a", vec![100, 200]));
        t.push(PhaseCost {
            name: "x".into(),
            flops: vec![0, 0],
            msgs: vec![
                MsgRecord { src: 0, dst: 1, bytes: 64 },
                MsgRecord { src: 1, dst: 0, bytes: 32 },
            ],
        });
        assert_eq!(t.total_messages(), 2);
        assert_eq!(t.total_bytes(), 96);
        assert_eq!(t.total_flops(), 300);
        assert_eq!(t.critical_flops(), 200);
    }

    #[test]
    fn critical_path_takes_max_rank() {
        let mut t = CommTrace::new(3);
        t.push(PhaseCost::compute("a", vec![10, 30, 20]));
        t.push(PhaseCost::compute("b", vec![30, 10, 20]));
        // Ranks accumulate 40, 40, 40.
        assert_eq!(t.critical_flops(), 40);
    }
}
