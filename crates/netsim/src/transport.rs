//! Neighbor-transport helpers shared by the protocol crates.
//!
//! The engine gives protocols two delivery classes (reliable / datagram);
//! what remains of "TCP mode" vs "UDP mode" (paper §3.2) is bookkeeping.
//! Here is [`RttEstimator`], the "measured round-trip time to its upstream
//! neighbor" that ECMP uses to decrement CountQuery timeouts per hop
//! (§3.1). The per-neighbor keepalive of TCP mode is the ECMP router's
//! neighbor probe.

use crate::time::SimDuration;

/// Exponentially-weighted moving average RTT estimator (the classic
/// TCP-style smoother: `srtt ← (1-g)·srtt + g·sample`, g = 1/8).
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt_us: f64,
    initialized: bool,
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator {
            // Conservative initial guess: 100 ms, a WAN-scale RTT.
            srtt_us: 100_000.0,
            initialized: false,
        }
    }
}

impl RttEstimator {
    /// Fresh estimator with the default initial guess.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporate a measured round-trip sample.
    pub fn sample(&mut self, rtt: SimDuration) {
        let s = rtt.micros() as f64;
        if self.initialized {
            self.srtt_us = 0.875 * self.srtt_us + 0.125 * s;
        } else {
            self.srtt_us = s;
            self.initialized = true;
        }
    }

    /// The smoothed estimate.
    pub fn rtt(&self) -> SimDuration {
        SimDuration::from_micros(self.srtt_us as u64)
    }

    /// Has at least one sample been incorporated?
    pub fn has_sample(&self) -> bool {
        self.initialized
    }

    /// The per-hop timeout decrement ECMP applies to a forwarded
    /// CountQuery: "a small multiple of the measured round-trip time to its
    /// upstream neighbor" (§3.1). We use 2·SRTT.
    pub fn hop_decrement(&self) -> SimDuration {
        self.rtt().saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_first_sample_replaces_guess() {
        let mut e = RttEstimator::new();
        assert!(!e.has_sample());
        e.sample(SimDuration::from_millis(10));
        assert_eq!(e.rtt(), SimDuration::from_millis(10));
        assert!(e.has_sample());
    }

    #[test]
    fn rtt_smooths_toward_samples() {
        let mut e = RttEstimator::new();
        e.sample(SimDuration::from_millis(10));
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(20));
        }
        let ms = e.rtt().millis();
        assert!((19..=20).contains(&ms), "smoothed to ~20ms, got {ms}");
    }

    #[test]
    fn hop_decrement_is_small_multiple_of_rtt() {
        let mut e = RttEstimator::new();
        e.sample(SimDuration::from_millis(15));
        assert_eq!(e.hop_decrement(), SimDuration::from_millis(30));
    }
}
