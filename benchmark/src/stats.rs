//! Order statistics over timing samples.

/// Sorted copy of `samples` (total order, so a stray NaN cannot panic).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile the sample supports: the largest value with at
/// least ten samples strictly beyond it, as `(percentile, value)`.
/// `None` when the sample is too small to have ten samples beyond any
/// point (fewer than eleven), in which case callers report the maximum.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if samples.len() <= BEYOND {
        return None;
    }
    let v = sorted(samples);
    let idx = v.len() - 1 - BEYOND;
    Some((100.0 * (idx + 1) as f64 / v.len() as f64, v[idx]))
}

/// `(hi_value, hi_pct)` for a report line: the highest supported
/// percentile if it lies above the median, otherwise (fewer than 21
/// samples) the maximum, labelled as the 100th.
pub fn hi(samples: &[f64]) -> (f64, f64) {
    match highest_supported_percentile(samples) {
        Some((pct, value)) if pct > 50.0 => (value, pct),
        _ => (sorted(samples).last().copied().unwrap_or(0.0), 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&ten), None);
        assert_eq!(hi(&ten), (10.0, 100.0));

        // 11 samples: only the minimum has ten beyond it
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (pct, v) = highest_supported_percentile(&eleven).unwrap();
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(hi(&eleven), (11.0, 100.0), "a low percentile is no tail");

        // 100 samples 1..=100: value 90 has exactly 91..=100 beyond it
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&hundred), Some((90.0, 90.0)));
        assert_eq!(hi(&hundred), (90.0, 90.0));

        // 1000 samples: the 99th percentile
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&thousand), Some((99.0, 990.0)));
    }
}
