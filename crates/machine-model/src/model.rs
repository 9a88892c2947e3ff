//! The cost model and the two calibrated machine presets.

use crate::trace::{CommTrace, PhaseCost};
/// An analytic distributed-memory machine: uniform nodes on a uniform
/// interconnect, LogGP-flavoured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Human-readable machine name for report rows.
    pub name: &'static str,
    /// Seconds per floating-point operation (sustained, not peak).
    pub t_flop: f64,
    /// Per-message latency/overhead α in seconds (software + wire).
    pub alpha: f64,
    /// Per-byte transfer time β in seconds (inverse sustained bandwidth).
    pub beta: f64,
    /// Sender-side CPU occupancy of one send, in seconds. Used only by the
    /// discrete-event backend (`perf-sim`): the closed-form
    /// [`MachineModel::price_phase`] folds all software overhead into α.
    pub o_send: f64,
    /// Receiver-side CPU occupancy of one completed receive, in seconds.
    /// Discrete-event backend only, like [`MachineModel::o_send`].
    pub o_recv: f64,
}

impl MachineModel {
    /// A machine with the given α/β/t_flop and zero send/recv occupancy —
    /// the pure latency/bandwidth model the closed-form pricer uses.
    pub fn custom(name: &'static str, t_flop: f64, alpha: f64, beta: f64) -> Self {
        MachineModel { name, t_flop, alpha, beta, o_send: 0.0, o_recv: 0.0 }
    }

    /// The same machine with explicit per-send/per-recv CPU occupancies
    /// (builder style), for the discrete-event backend.
    pub fn with_overheads(mut self, o_send: f64, o_recv: f64) -> Self {
        self.o_send = o_send;
        self.o_recv = o_recv;
        self
    }

    /// Virtual-clock cost of `units` abstract work units (flops).
    pub fn compute_time(&self, units: u64) -> f64 {
        units as f64 * self.t_flop
    }

    /// Virtual-clock transit time of one message of `bytes` payload bytes:
    /// wire latency plus serialization, excluding endpoint occupancies.
    pub fn transit_time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }
    /// Modeled time of one phase: critical-path computation plus
    /// critical-endpoint communication.
    pub fn price_phase(&self, phase: &PhaseCost, nprocs: usize) -> f64 {
        let t_comp = phase.flops.iter().copied().max().unwrap_or(0) as f64 * self.t_flop;
        let mut msgs = vec![0u64; nprocs];
        let mut bytes = vec![0u64; nprocs];
        for m in &phase.msgs {
            msgs[m.src] += 1;
            bytes[m.src] += m.bytes;
            msgs[m.dst] += 1;
            bytes[m.dst] += m.bytes;
        }
        let t_comm = (0..nprocs)
            .map(|r| msgs[r] as f64 * self.alpha + bytes[r] as f64 * self.beta)
            .fold(0.0f64, f64::max);
        t_comp + t_comm
    }

    /// Modeled execution time of a whole run.
    pub fn price_trace(&self, trace: &CommTrace) -> f64 {
        trace.phases.iter().map(|p| self.price_phase(p, trace.nprocs)).sum()
    }

    /// Modeled communication-only time of a run (for comm/comp breakdowns).
    pub fn price_comm_only(&self, trace: &CommTrace) -> f64 {
        trace
            .phases
            .iter()
            .map(|p| {
                let stripped =
                    PhaseCost { name: p.name.clone(), flops: vec![0; trace.nprocs], ..p.clone() };
                self.price_phase(&stripped, trace.nprocs)
            })
            .sum()
    }

    /// Modeled computation-only time: per-phase critical rank, summed —
    /// the same barrier-per-phase discipline [`MachineModel::price_trace`]
    /// uses, so `price_trace = price_comp_only + price_comm_only` exactly.
    /// (A looser bound with cross-phase pipelining would be
    /// `CommTrace::critical_flops × t_flop`.)
    pub fn price_comp_only(&self, trace: &CommTrace) -> f64 {
        trace
            .phases
            .iter()
            .map(|p| p.flops.iter().copied().max().unwrap_or(0) as f64 * self.t_flop)
            .sum()
    }
}

/// The network of Sun workstations of the paper's Table 1: early-90s
/// SPARC workstations (sustained ~2 Mflop/s on memory-bound Fortran
/// stencil code) on 10 Mbit Ethernet through a portability layer
/// (Fortran M over sockets) — roughly half a millisecond of per-message
/// software latency and ~1 MB/s of effective bandwidth.
pub fn network_of_suns() -> MachineModel {
    // Socket-stack software occupancy is a real fraction of the half-
    // millisecond α on this machine: 100 µs at each endpoint.
    MachineModel::custom("network-of-suns", 5.0e-7, 5.0e-4, 1.0e-6).with_overheads(1.0e-4, 1.0e-4)
}

/// The IBM SP of the paper's Figure 2: Power2-era nodes (sustained
/// ~40 Mflop/s on stencil code) with the SP switch — tens of microseconds
/// of latency and ~35 MB/s sustained bandwidth.
pub fn ibm_sp() -> MachineModel {
    MachineModel::custom("ibm-sp", 2.5e-8, 4.0e-5, 2.9e-8).with_overheads(5.0e-6, 5.0e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MsgRecord;

    fn trace2() -> CommTrace {
        let mut t = CommTrace::new(2);
        t.push(PhaseCost::compute("work", vec![1_000_000, 2_000_000]));
        t.push(PhaseCost {
            name: "halo".into(),
            flops: vec![0, 0],
            msgs: vec![
                MsgRecord { src: 0, dst: 1, bytes: 8_000 },
                MsgRecord { src: 1, dst: 0, bytes: 8_000 },
            ],
        });
        t
    }

    #[test]
    fn phase_pricing_takes_critical_rank() {
        let m = MachineModel::custom("unit", 1.0, 0.0, 0.0);
        let t = trace2();
        assert_eq!(m.price_phase(&t.phases[0], 2), 2_000_000.0);
    }

    #[test]
    fn comm_pricing_counts_both_endpoints() {
        let m = MachineModel::custom("unit", 0.0, 1.0, 0.0);
        let t = trace2();
        // Each rank touches 2 messages (1 send + 1 recv).
        assert_eq!(m.price_phase(&t.phases[1], 2), 2.0);
        let m = MachineModel::custom("unit", 0.0, 0.0, 1.0);
        assert_eq!(m.price_phase(&t.phases[1], 2), 16_000.0);
    }

    #[test]
    fn totals_decompose() {
        let m = network_of_suns();
        let t = trace2();
        let total = m.price_trace(&t);
        let comm = m.price_comm_only(&t);
        let comp = m.price_comp_only(&t);
        assert!(total > comm && total > comp);
        assert!((total - (comm + comp)).abs() < 1e-12);
    }

    #[test]
    fn suns_are_slower_than_the_sp() {
        let suns = network_of_suns();
        let sp = ibm_sp();
        let t = trace2();
        assert!(suns.price_trace(&t) > sp.price_trace(&t));
        // Worse at communication relative to compute, and much worse at
        // communication in absolute terms.
        let suns_ratio = suns.price_comm_only(&t) / suns.price_comp_only(&t);
        let sp_ratio = sp.price_comm_only(&t) / sp.price_comp_only(&t);
        assert!(suns_ratio > sp_ratio);
        assert!(suns.price_comm_only(&t) > 10.0 * sp.price_comm_only(&t));
    }
}
