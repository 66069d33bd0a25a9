//! Order statistics over host-time samples.

/// Samples sorted ascending (NaNs are a caller bug and panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail: the highest order statistic with at least [`TAIL_BEYOND`]
/// samples above it, and the percentile it stands for. With too few samples
/// for that, the maximum (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    let idx = n - TAIL_BEYOND - 1;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, pct) = tail(&v);
        assert_eq!(t, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), TAIL_BEYOND);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }
}
