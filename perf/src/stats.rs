//! Order statistics for latency samples.

/// Fewest samples that must lie beyond a reported percentile: a tail
/// figure resting on a handful of samples is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `0..=1` of an already sorted,
/// non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_sorted(&sorted(samples), 0.5))
}

/// The `p`-th percentile (`50 < p < 100`), refused — `None` — unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 50.0 && p < 100.0, "tail percentile out of range: {p}");
    let beyond = (samples.len() as f64 * (100.0 - p) / 100.0).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| quantile_sorted(&sorted(samples), p / 100.0))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method) — the spread the acceptance rule uses.
/// `None` with fewer than two samples or a zero median.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    let quartile = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = quantile_sorted(&v, 0.5);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), None, "199 samples leave 9 beyond p95");
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = tail_percentile(&v, 95.0).expect("200 samples leave 10 beyond p95");
        assert!((p95 - 189.05).abs() < 1e-9, "{p95}");
        assert!(tail_percentile(&v[..100], 90.0).is_some());
        assert!(tail_percentile(&v[..99], 90.0).is_none());
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(iqr_share(&[10.0, 20.0, 40.0]), Some(1.5));
        assert_eq!(iqr_share(&[1.0]), None);
    }
}
