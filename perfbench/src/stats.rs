//! Order statistics over timing samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure is never read off a handful of points.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest-rank).
    pub value: f64,
    /// Samples in the population.
    pub count: usize,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: v[rank - 1],
        count: n,
        beyond,
    })
}

/// Median (mean of the middle pair for an even count). Panics on an
/// empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 has rank 190, ten beyond.
        let p95 = percentile(&v, 95.0).expect("ten beyond p95");
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.count, 200);
        assert_eq!(p95.beyond, 10);
        // 199 samples: rank 190, nine beyond — refused.
        assert!(percentile(&v[..199], 95.0).is_none());
        // The median of 20 samples has exactly ten beyond it.
        let p50 = percentile(&v[..20], 50.0).expect("ten beyond p50");
        assert_eq!((p50.value, p50.beyond), (10.0, 10));
        assert!(percentile(&v[..19], 50.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = percentile(&v, 50.0).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(percentile(&v, 50.0).unwrap(), a);
        assert_eq!(a.value, 49.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
