//! Order statistics, computed the way the acceptance procedure computes
//! them (Python's `statistics.median` / `statistics.quantiles(n=4)`), so
//! a spread printed here is the spread the driver will see.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)`'s
/// default (exclusive) method. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The quietest of E repetitions of one timing: their minimum.
///
/// Interference on the shared sandbox is one-sided — it only ever slows
/// — and comes in phases of seconds to tens of seconds, so the median of
/// a few repetitions flips between quiet and disturbed values from run
/// to run, while the minimum is bounded below by the work itself.
/// Measured over eight seeds on `hot_replay` (≈ 40 epochs each): spread
/// of the per-op minimum 1–3 %, of the first quartile 5–10 %, of the
/// median 15–20 %.
pub fn best_of(repetitions: impl Iterator<Item = u64>) -> u64 {
    repetitions.min().expect("at least one repetition")
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 6.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 100);
        assert_eq!(percentile_sorted(&sorted, 99.0), 198);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
