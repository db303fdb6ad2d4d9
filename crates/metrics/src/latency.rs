//! Operation-latency recording for the live serving path.
//!
//! The `serve` load generator is closed-loop: every client issues one
//! operation, waits for it to complete (a remote read blocks for its RM),
//! thinks, and issues the next. An [`OpLatency`] accumulates those
//! per-operation completion times in O(1) memory — mean/min/max via
//! [`StatAccum`] and the p50/p99 tails via two [`P2Quantile`] markers —
//! and snapshots to a plain-number [`LatencySummary`] for reports.
//!
//! P² markers cannot be merged across estimators, so a serving cluster
//! shares *one* recorder behind a mutex instead of folding per-site
//! estimates: operations complete at most a few thousand times per second,
//! which makes the lock uncontended in practice and keeps the tails exact
//! streaming estimates over the full run.

use crate::quantile::P2Quantile;
use crate::stats::StatAccum;

/// Streaming operation-latency accumulator: count, mean, min/max, p50, p99.
#[derive(Clone, Debug)]
pub struct OpLatency {
    /// Mean / min / max over all completions.
    pub stats: StatAccum,
    /// Streaming median estimate.
    pub p50: P2Quantile,
    /// Streaming 99th-percentile estimate.
    pub p99: P2Quantile,
}

impl OpLatency {
    /// An empty recorder.
    pub fn new() -> Self {
        OpLatency {
            stats: StatAccum::new(),
            p50: P2Quantile::new(0.5),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Record one operation's completion latency, in nanoseconds.
    pub fn record(&mut self, ns: f64) {
        self.stats.record(ns);
        self.p50.record(ns);
        self.p99.record(ns);
    }

    /// Number of completions recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Plain-number snapshot for reports and JSON artifacts.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            ops: self.stats.count(),
            mean_us: self.stats.mean() / 1e3,
            p50_us: self.p50.estimate().unwrap_or(0.0) / 1e3,
            p99_us: self.p99.estimate().unwrap_or(0.0) / 1e3,
            max_us: self.stats.max().unwrap_or(0.0) / 1e3,
        }
    }
}

impl Default for OpLatency {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time latency summary, microseconds.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// Operations completed.
    pub ops: u64,
    /// Mean completion latency.
    pub mean_us: f64,
    /// Median (P² streaming estimate).
    pub p50_us: f64,
    /// 99th percentile (P² streaming estimate).
    pub p99_us: f64,
    /// Worst completion observed.
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_summarizes_to_zero() {
        let s = OpLatency::new().summary();
        assert_eq!(s.ops, 0);
        assert_eq!(s.p50_us, 0.0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }

    #[test]
    fn tails_separate_from_the_mean() {
        let mut l = OpLatency::new();
        // 990 fast ops at ~10 µs, 10 slow ones at 5 ms.
        for i in 0..1000u64 {
            let ns = if i % 100 == 99 { 5_000_000.0 } else { 10_000.0 };
            l.record(ns);
        }
        let s = l.summary();
        assert_eq!(s.ops, 1000);
        assert!(
            s.p50_us < 50.0,
            "median stays at the fast mode: {}",
            s.p50_us
        );
        assert!(
            s.p99_us > 1_000.0,
            "p99 must surface the slow tail: {}",
            s.p99_us
        );
        assert!((s.max_us - 5_000.0).abs() < 1e-6);
        assert!(s.mean_us > s.p50_us, "skew pulls the mean above the median");
    }
}
