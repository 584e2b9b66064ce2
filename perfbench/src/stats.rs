//! Order statistics for the benchmark's reports.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is clamped
/// to `0..=100`; `p = 0` gives the minimum. Returns `None` for no samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a copy of `samples` and take its nearest-rank percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p)
}

/// Median by nearest rank (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(nearest_rank(&[4.5], p), Some(4.5));
        }
    }

    #[test]
    fn nearest_rank_on_ten_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 10.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 10.1), Some(2.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
    }

    #[test]
    fn p99_needs_a_hundred_samples_to_leave_the_maximum() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        let w: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 99.0), Some(99.0));
        let x: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(nearest_rank(&x, 99.0), Some(50.0));
    }

    #[test]
    fn out_of_range_p_is_clamped_and_input_order_does_not_matter() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 150.0), Some(3.0));
        assert_eq!(median(&v), Some(2.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }
}
