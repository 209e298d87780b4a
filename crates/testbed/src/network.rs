//! Network link model (the paper's Wi-Fi router + TCP path).

/// A point-to-point link with effective bandwidth, round-trip latency and a
/// protocol overhead factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Effective application-level bandwidth, bits/s.
    pub bandwidth_bps: f64,
    /// Round-trip time, seconds.
    pub rtt_s: f64,
    /// Multiplicative protocol overhead on the serialisation time (TCP/IP
    /// framing, acks).
    pub overhead: f64,
}

impl NetworkModel {
    /// The paper's Wi-Fi testbed link. Calibrated so a 512×768 image at
    /// ~0.4 bpp (~20 kB) transmits in ≈ 150 ms, Fig. 1's "Gap" bar.
    pub fn wifi() -> Self {
        Self { bandwidth_bps: 1.6e6, rtt_s: 0.04, overhead: 1.1 }
    }

    /// A fast wired link (for ablations).
    pub fn gigabit() -> Self {
        Self { bandwidth_bps: 940.0e6, rtt_s: 0.001, overhead: 1.05 }
    }

    /// Seconds to transmit `bytes` of payload.
    pub fn transmit_seconds(&self, bytes: usize) -> f64 {
        self.rtt_s + (bytes as f64 * 8.0 / self.bandwidth_bps) * self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_matches_paper_gap() {
        // ~20 kB image -> ~150 ms on the paper's testbed (Fig. 1).
        let t = NetworkModel::wifi().transmit_seconds(20_000);
        assert!((0.10..0.25).contains(&t), "20kB transmit {t:.3}s");
    }

    #[test]
    fn transmit_is_monotone_in_size() {
        let net = NetworkModel::wifi();
        assert!(net.transmit_seconds(100_000) > net.transmit_seconds(10_000));
        assert!(net.transmit_seconds(0) >= net.rtt_s);
    }

    #[test]
    fn gigabit_is_much_faster() {
        let wifi = NetworkModel::wifi().transmit_seconds(100_000);
        let eth = NetworkModel::gigabit().transmit_seconds(100_000);
        assert!(eth < wifi / 50.0);
    }
}
