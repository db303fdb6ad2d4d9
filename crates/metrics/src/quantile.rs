//! Streaming quantile estimation (the P² algorithm).
//!
//! Jain & Chlamtac's P² estimator tracks a single quantile in O(1) memory
//! by maintaining five markers whose heights approximate the quantile
//! curve with piecewise-parabolic interpolation. Used for tail latencies
//! (e.g. p99 apply latency in the false-causality experiment), where a mean
//! hides exactly the effect being measured.

/// A single-quantile P² estimator.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Estimator for quantile `q ∈ (0, 1)` (e.g. `0.99`).
    pub fn new(q: f64) -> Self {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "q must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current estimate (exact for the first five samples, P² marker
    /// approximation afterwards; `None` before the first sample).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            // Exact small-sample quantile from the sorted prefix. This must
            // cover count == 5 too: the markers are initialized but not yet
            // adjusted there, and the P² answer (`heights[2]`, the median)
            // would ignore `q` entirely.
            1..=5 => {
                let mut v: Vec<f64> = self.heights[..self.count as usize].to_vec();
                v.sort_by(|a, b| a.total_cmp(b));
                let idx = (self.q * (v.len() - 1) as f64).round() as usize;
                Some(v[idx])
            }
            _ => Some(self.heights[2]),
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.heights[self.count as usize - 1] = x;
            if self.count == 5 {
                self.heights.sort_by(|a, b| a.total_cmp(b));
            }
            return;
        }

        // Find the cell containing x and clamp the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three middle markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, s)
                };
                self.heights[i] = new_h;
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + s / (np - nm)
            * ((n - nm + s) * (hp - h) / (np - n) + (np - n - s) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_quantile(xs: &[f64], q: f64) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v[((v.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn empty_and_small_samples() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.record(10.0);
        assert_eq!(p.estimate(), Some(10.0));
        p.record(20.0);
        p.record(0.0);
        // Median of {0, 10, 20} = 10.
        assert_eq!(p.estimate(), Some(10.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut p = P2Quantile::new(0.5);
        // Deterministic shuffled-ish stream over [0, 1000).
        let mut x = 0u64;
        let mut xs = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as f64 % 1000.0;
            xs.push(v);
            p.record(v);
        }
        let est = p.estimate().unwrap();
        let exact = exact_quantile(&xs, 0.5);
        assert!(
            (est - exact).abs() < 25.0,
            "P² median {est} vs exact {exact}"
        );
    }

    #[test]
    fn p99_of_skewed_distribution() {
        // Smooth, right-skewed stream: v = u⁴ · 1000 for uniform u. The p99
        // is well-conditioned (no rank discontinuity), so the estimator
        // must land close.
        let mut p = P2Quantile::new(0.99);
        let mut xs = Vec::new();
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let v = u.powi(4) * 1000.0;
            xs.push(v);
            p.record(v);
        }
        let est = p.estimate().unwrap();
        let exact = exact_quantile(&xs, 0.99);
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.1, "P² p99 {est} vs exact {exact} (rel {rel:.2})");
    }

    /// Regression: at exactly five samples the old `estimate()` fell through
    /// to the P² marker path and returned `heights[2]` — the median — for
    /// any q. A q = 0.99 estimator over five samples must return the max.
    #[test]
    fn p99_exact_at_five_samples() {
        let mut p = P2Quantile::new(0.99);
        for x in [10.0, 50.0, 20.0, 40.0, 30.0] {
            p.record(x);
        }
        assert_eq!(p.count(), 5);
        assert_eq!(p.estimate(), Some(50.0), "q=0.99 of 5 samples is the max");

        let mut lo = P2Quantile::new(0.01);
        for x in [10.0, 50.0, 20.0, 40.0, 30.0] {
            lo.record(x);
        }
        assert_eq!(lo.estimate(), Some(10.0), "q=0.01 of 5 samples is the min");
    }

    proptest! {
        #[test]
        fn prop_estimate_within_observed_range(
            xs in proptest::collection::vec(-1e4f64..1e4, 1..400),
            q in 0.05f64..0.95,
        ) {
            let mut p = P2Quantile::new(q);
            for &x in &xs {
                p.record(x);
            }
            let est = p.estimate().unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9,
                "estimate {est} outside [{lo}, {hi}]");
        }

        /// Across the whole exact-path regime — including the count == 5
        /// boundary — the estimate must equal the exact sorted-rank
        /// quantile of the samples seen so far.
        #[test]
        fn prop_small_sample_estimates_are_exact(
            xs in proptest::collection::vec(-1e4f64..1e4, 1..=5),
            q in 0.01f64..0.99,
        ) {
            let mut p = P2Quantile::new(q);
            for &x in &xs {
                p.record(x);
            }
            let est = p.estimate().unwrap();
            let exact = exact_quantile(&xs, q);
            prop_assert_eq!(est, exact, "count {}", xs.len());
        }

        #[test]
        fn prop_large_sample_accuracy(seed in 0u64..50) {
            // 4000 LCG samples in [0, 1): the P² median must land within
            // 0.08 of the exact one.
            let mut p = P2Quantile::new(0.5);
            let mut xs = Vec::new();
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for _ in 0..4000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (x >> 11) as f64 / (1u64 << 53) as f64;
                xs.push(v);
                p.record(v);
            }
            let est = p.estimate().unwrap();
            let exact = exact_quantile(&xs, 0.5);
            prop_assert!((est - exact).abs() < 0.08, "{est} vs {exact}");
        }
    }
}
