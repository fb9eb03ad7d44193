//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `p`% of the samples are at or below it. `None` for
/// an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // 10 samples: p99 is the largest, p50 the fifth.
        let v: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&v, 99.0), Some(19));
        assert_eq!(percentile(&v, 50.0), Some(14));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn a_never_completed_event_dominates_the_tail() {
        // u64::MAX marks an event that never completed: it must land
        // above every real latency, so it counts as over any limit.
        let mut v: Vec<u64> = (1..=99).collect();
        v.push(u64::MAX);
        v.sort_unstable();
        assert_eq!(percentile(&v, 100.0), Some(u64::MAX));
        assert_eq!(percentile(&v, 99.0), Some(99));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
