//! Order statistics over small samples.

/// Quantile `q` (0..=1) of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// (max − min) ÷ median; 0 when the median is 0.
pub fn range_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 1.0) - quantile(values, 0.0)) / m
}

/// (p75 − p25) ÷ p50; 0 when the median is 0.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// `a ÷ b`, 0 when `b` is 0 — for ratios whose base a workload bypasses.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn spreads_are_relative_to_the_median() {
        let v = [9.0, 10.0, 11.0];
        assert!((range_over_median(&v) - 0.2).abs() < 1e-12);
        assert!((iqr_over_median(&v) - 0.1).abs() < 1e-12);
        assert_eq!(range_over_median(&[0.0, 0.0]), 0.0);
    }
}
