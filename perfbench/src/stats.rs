//! Order statistics over measured samples.

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. With fixed class counts the rank is fixed, so
/// the quantile always lands on the same class. `NaN` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}
