//! Sample summaries: medians, tail percentiles, and the rule for picking
//! a tail percentile that the sample count can support.

use std::time::Duration;

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A growing set of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let sorted = self.sorted();
        let i = rank_index(sorted.len(), q)?;
        Some(sorted[i])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `want` quantile if at least [`MIN_BEYOND`] samples lie beyond
    /// it, otherwise the highest quantile that still has that many beyond
    /// it (the median when even that is out of reach). Returns the value
    /// and the quantile used.
    pub fn tail(&self, want: f64) -> Option<(f64, f64)> {
        let q = supported_quantile(self.len(), want);
        self.quantile(q).map(|v| (v, q))
    }

    /// Median of the first and of the last quarter of the samples, in
    /// push order: how much later samples cost relative to early ones.
    pub fn growth(&self) -> Option<f64> {
        let quarter = self.values.len() / 4;
        if quarter == 0 {
            return None;
        }
        let first = Samples {
            values: self.values[..quarter].to_vec(),
        };
        let last = Samples {
            values: self.values[self.values.len() - quarter..].to_vec(),
        };
        Some(last.median()? / first.median()?)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Index of the nearest-rank `q` quantile among `n` sorted samples.
fn rank_index(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The highest quantile `<= want` whose nearest-rank position leaves at
/// least [`MIN_BEYOND`] samples above it among `n`; 0.5 when `n` is too
/// small for any tail above the median.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    let beyond = |i: usize| n - 1 - i;
    match rank_index(n, want) {
        Some(i) if beyond(i) >= MIN_BEYOND => want,
        Some(_) if n > 2 * MIN_BEYOND => {
            // Largest index with MIN_BEYOND samples above it, as a rank
            // fraction (so the nearest-rank lookup lands on it exactly).
            let i = n - 1 - MIN_BEYOND;
            (i + 1) as f64 / n as f64
        }
        _ => 0.5,
    }
}

/// `q` as a percentile label: `p99`, `p98.25`, `p50`.
pub fn label(q: f64) -> String {
    let p = (q * 10000.0).round() / 100.0;
    if p.fract() == 0.0 {
        format!("p{}", p as u64)
    } else {
        format!("p{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn median_and_quantiles_use_nearest_rank() {
        let s = ramp(10);
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(10.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        // 2000 samples: p99 is rank 1980, leaving 20 above it.
        let s = ramp(2000);
        assert_eq!(s.tail(0.99), Some((1980.0, 0.99)));
        // 1100 samples: rank 1089 leaves exactly 11 above.
        assert_eq!(supported_quantile(1100, 0.99), 0.99);
    }

    #[test]
    fn p99_falls_back_to_the_highest_supported_percentile() {
        // 200 samples: p99 would leave 2 above it; the highest rank with
        // ten above is 190, i.e. p95.
        let s = ramp(200);
        let (v, q) = s.tail(0.99).expect("non-empty");
        assert_eq!(v, 190.0);
        assert_eq!(label(q), "p95");
        // Exactly MIN_BEYOND samples remain above the chosen one.
        assert_eq!(200 - v as usize, MIN_BEYOND);
        // 500 samples: rank 490 of 500 is p98.
        assert_eq!(label(supported_quantile(500, 0.99)), "p98");
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(label(supported_quantile(2000, 0.999)), "p99.5");
    }

    #[test]
    fn tiny_sample_sets_report_the_median() {
        assert_eq!(supported_quantile(15, 0.99), 0.5);
        assert_eq!(ramp(15).tail(0.99), Some((8.0, 0.5)));
    }

    #[test]
    fn growth_compares_last_and_first_quarter() {
        let s = ramp(8);
        // First quarter {1, 2} (median 1), last {7, 8} (median 7).
        assert_eq!(s.growth(), Some(7.0));
        assert_eq!(ramp(3).growth(), None);
    }
}
