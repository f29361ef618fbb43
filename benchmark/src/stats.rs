//! Order statistics for repetitions and latency samples.
//!
//! Percentiles are nearest-rank: the p-th percentile of n sorted values
//! is the value at rank ⌈p/100 · n⌉ (1-based), so every reported number
//! is a value that was measured.

/// Sorts a sample ascending. Measured values are never NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample: the middle value, or the mean of the two middle
/// values of an even-sized sample. 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median, first and third quartile, and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values.to_vec());
        Summary {
            median: median(&s),
            q1: percentile(&s, 25.0),
            q3: percentile(&s, 75.0),
            n: s.len(),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The percentiles a latency tail is reported at, each with the share
/// of samples beyond it as one in so many.
const TAIL_PERCENTILES: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten of
/// the `n` samples beyond it; `None` when even the median does not.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&(_, one_in)| n / one_in >= 10)
        .map(|&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_measured_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 8.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn median_of_reps_handles_odd_and_even_sizes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_reports_quartiles_and_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!(
            s,
            Summary {
                median: 11.0,
                q1: 10.0,
                q3: 12.0,
                n: 5
            }
        );
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_resolved_percentile(5), None);
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(999), Some(90.0));
        assert_eq!(highest_resolved_percentile(1_000), Some(99.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
        assert_eq!(highest_resolved_percentile(200_000), Some(99.99));
    }
}
