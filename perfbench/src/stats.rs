//! Order statistics over per-op samples.

/// The 90th percentile is reported only from at least this many samples.
/// Below it, p90 is one of the top few samples and moves with a single
/// outlier, so a run that wants a p90 must complete this many ops.
pub const MIN_P90_SAMPLES: usize = 100;

/// Nearest-rank percentile: the smallest sample with at least a `q` share
/// of all samples at or below it. `None` for an empty set or a `q` outside
/// `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (nearest-rank p50).
pub fn p50(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The 90th percentile, or `None` below [`MIN_P90_SAMPLES`] samples.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_P90_SAMPLES {
        return None;
    }
    percentile(samples, 0.9)
}

/// The 90th percentile where there are enough samples, otherwise the
/// largest sample — an upper bound on it. For side measurements that
/// cannot afford [`MIN_P90_SAMPLES`] ops.
pub fn p90_or_max(samples: &[f64]) -> Option<f64> {
    p90(samples).or_else(|| percentile(samples, 1.0))
}

/// Arithmetic mean, `None` for an empty set.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
