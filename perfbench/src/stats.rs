//! Order statistics for host-time samples.
//!
//! A timing is reported as a median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it. [`percentile`] refuses
//! anything less, so a p90 over 40 samples is an error rather than a
//! number that moves with every outlier.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of `samples`, linear between
/// closest ranks. Refuses when fewer than [`MIN_BEYOND`] samples lie
/// beyond it, or when a sample is not a number.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    if samples.iter().any(|s| s.is_nan()) {
        return Err("a sample is NaN".to_string());
    }
    let n = samples.len();
    let beyond = ((n as f64) * (100.0 - p) / 100.0).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; {MIN_BEYOND} are needed"
        ));
    }
    Ok(rank(samples, p))
}

/// The median of `samples` (`None` when empty). The median always has
/// half the samples beyond it, so it needs no sample-count guard.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| rank(samples, 50.0))
}

/// First quartile, median, third quartile — `None` with fewer than two
/// samples. Same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some((at(0.25), at(0.5), at(0.75)))
}

fn rank(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
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
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
    }
}
