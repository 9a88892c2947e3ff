//! The cost model and the two calibrated machine presets.

/// An analytic distributed-memory machine: uniform nodes on a uniform
/// interconnect, LogGP-flavoured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Human-readable machine name for report rows.
    pub name: &'static str,
    /// Seconds per floating-point operation (sustained, not peak).
    pub t_flop: f64,
    /// Per-message wire latency α in seconds.
    pub alpha: f64,
    /// Per-byte transfer time β in seconds (inverse sustained bandwidth).
    pub beta: f64,
    /// Sender-side CPU occupancy of one send, in seconds: the sender is
    /// busy for it before the message enters the wire.
    pub o_send: f64,
    /// Receiver-side CPU occupancy of one completed receive, in seconds.
    pub o_recv: f64,
}

impl MachineModel {
    /// A machine with the given α/β/t_flop and zero send/recv occupancy: a
    /// message costs only its wire time.
    pub fn custom(name: &'static str, t_flop: f64, alpha: f64, beta: f64) -> Self {
        MachineModel { name, t_flop, alpha, beta, o_send: 0.0, o_recv: 0.0 }
    }

    /// The same machine with explicit per-send/per-recv CPU occupancies
    /// (builder style).
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

    #[test]
    fn suns_are_slower_than_the_sp() {
        let (suns, sp) = (network_of_suns(), ibm_sp());
        let halo = 8_000;
        assert!(suns.compute_time(1_000_000) > sp.compute_time(1_000_000));
        assert!(suns.transit_time(halo) > sp.transit_time(halo));
        // Worse at communication relative to compute, and much worse at
        // communication in absolute terms.
        let ratio = |m: &MachineModel| m.transit_time(halo) / m.compute_time(1_000_000);
        assert!(ratio(&suns) > ratio(&sp));
        assert!(suns.transit_time(halo) > 10.0 * sp.transit_time(halo));
    }
}
