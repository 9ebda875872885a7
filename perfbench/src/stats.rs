//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it (capped at 99, floored at the median), as
/// `(percentile, value)`.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let n = values.len();
    let p = (100 * n.saturating_sub(10))
        .checked_div(n)
        .map_or(50, |p| p.clamp(50, 99) as u32);
    (p, quantile(values, f64::from(p) / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90);
        assert_eq!(tail(&v[..50]).0, 80);
        assert_eq!(tail(&v[..36]).0, 72);
        assert_eq!(tail(&v[..15]).0, 50);
        assert_eq!(tail(&[]).0, 50);
    }
}
