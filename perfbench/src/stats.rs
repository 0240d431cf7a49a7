//! Sample summaries: nearest-rank percentiles and the tail rule.

/// Percentiles the tail rule may report, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small slack keeps `99.9 / 100 * 10_000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// A timing distribution: the median, the fixed p90, and the highest
/// percentile of [`LADDER`] with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The highest supported percentile (`None` below 20 samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = LADDER
            .iter()
            .rev()
            .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&sorted, p)));
        Some(Self {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            tail,
        })
    }

    /// Whether the reported p90 has at least [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn p90_supported(&self) -> bool {
        beyond(self.n, 90.0) >= MIN_BEYOND
    }
}

/// Median of unsorted samples (`0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// `num / den`, or `0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Arithmetic mean (`0` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Summary::of(&ramp(100)).unwrap();
        assert_eq!((s.n, s.p50, s.p90), (100, 50.0, 90.0));
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(Summary::of(&ramp(100)).unwrap().tail, Some((90.0, 90.0)));
        // 99 samples: p90 leaves 9, so only the median qualifies.
        let s = Summary::of(&ramp(99)).unwrap();
        assert_eq!(s.tail, Some((50.0, 50.0)));
        assert!(!s.p90_supported());
        // 1000 samples: p99 leaves 10, p99.9 leaves 1.
        assert_eq!(Summary::of(&ramp(1000)).unwrap().tail, Some((99.0, 990.0)));
        // 10 000 samples: p99.9 leaves 10.
        let s = Summary::of(&ramp(10_000)).unwrap();
        assert_eq!(s.tail, Some((99.9, 9990.0)));
        assert_eq!(s.n, 10_000);
        // Too few samples for any percentile.
        assert_eq!(Summary::of(&ramp(19)).unwrap().tail, None);
        assert_eq!(Summary::of(&[]), None);
    }
}
