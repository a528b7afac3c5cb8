//! Sample statistics for the benchmark's reports: medians, and the
//! tail percentile rule of the metrics guide ("the highest percentile
//! that has at least ten samples beyond it").

/// Median of `samples` (mean of the two middle values for an even
/// count). Returns 0 for an empty slice, which no reported metric hits:
/// every workload measures at least one session.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest sample (0 when empty).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Largest sample (0 when empty).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0)
}

/// A tail reading: `value` is the nearest-rank `percentile` of the
/// samples, the highest one with at least `beyond` samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile in (0, 100].
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
}

/// The highest nearest-rank percentile with at least `beyond` samples
/// strictly after it in sorted order, or `None` when there are too few
/// samples for any percentile to qualify.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    let n = samples.len();
    if n <= beyond {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - beyond; // 1-based rank with exactly `beyond` after it
    Some(Tail { percentile: 100.0 * rank as f64 / n as f64, value: sorted[rank - 1] })
}

/// [`tail`] with the guide's ten-sample rule, falling back to the
/// maximum (reported as percentile 100) when fewer than eleven samples
/// exist — so a short run still prints its worst case, labelled as such.
pub fn tail_or_max(samples: &[f64]) -> Tail {
    tail(samples, 10).unwrap_or(Tail { percentile: 100.0, value: max(samples) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 100.0]), 1.0);
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, 10), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven, 10).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn tail_of_a_hundred_is_p90_and_of_a_thousand_is_p99() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred, 10).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 10).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
    }

    #[test]
    fn tail_leaves_exactly_the_requested_samples_beyond() {
        let xs: Vec<f64> = (0..37).map(|i| f64::from(i * i % 41)).collect();
        let t = tail(&xs, 10).unwrap();
        assert!(xs.iter().filter(|&&x| x > t.value).count() <= 10);
        assert!(xs.iter().filter(|&&x| x >= t.value).count() >= 11);
    }

    #[test]
    fn short_runs_fall_back_to_the_maximum() {
        let t = tail_or_max(&[0.3, 0.9, 0.5]);
        assert_eq!((t.percentile, t.value), (100.0, 0.9));
    }
}
