//! Order statistics and the output digest.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the percentiles p50, p90, p99, p99.9 — none above
/// `cap_per_mille` — that still leaves at least ten samples above it, as
/// `(percent, value)`; the median when there are too few samples for any
/// of them.
pub fn high_percentile(xs: &[f64], cap_per_mille: usize) -> (f64, f64) {
    let n = xs.len();
    let mut best = (50.0, median(xs));
    // Per mille, so the nearest rank stays exact integer arithmetic.
    for per_mille in [900, 990, 999].into_iter().filter(|&p| p <= cap_per_mille) {
        let rank = (n * per_mille).div_ceil(1000);
        if n - rank >= 10 {
            best = (
                per_mille as f64 / 10.0,
                percentile(xs, per_mille as f64 / 1000.0),
            );
        }
    }
    best
}

/// FNV-1a, 64-bit: a small, stable digest of the benchmark's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Fold a float by its exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(high_percentile(&xs, 999), (99.0, 990.0));
        assert_eq!(high_percentile(&xs[..50], 999), (50.0, 25.5));
        assert_eq!(high_percentile(&xs[..100], 999).0, 90.0);
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(high_percentile(&many, 999).0, 99.9);
        assert_eq!(high_percentile(&many, 990), (99.0, 19_800.0));
    }
}
