//! Summary helpers: percentiles and zero-safe ratios.

/// Percentile `q` in `[0, 1]` of `samples` by linear interpolation
/// between the closest ranks (NumPy's default). 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (pos - lo as f64) * (s[hi] - s[lo])
}

/// `num / den`, or 0 when the denominator is 0 — a layer that made no
/// call on a workload reports 0 per call, never NaN.
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
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert!((percentile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn p90_of_a_hundred_samples_has_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&s, 0.9);
        assert_eq!(s.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn ratio_is_zero_safe() {
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
