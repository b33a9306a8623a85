//! Order statistics of timing samples.

/// The `q` quantile (0 ≤ q ≤ 1) of `xs`, interpolating linearly between
/// order statistics. Sorts `xs` in place.
///
/// # Panics
///
/// On an empty sample or a NaN in it.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs`. Sorts `xs` in place.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A timing summary: median, a tail percentile and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The median.
    pub p50: f64,
    /// The tail percentile named by `tail_q`.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_q: f64,
    /// Samples.
    pub n: usize,
}

/// Summarises `xs` with the highest of p99, p90 and p50 that has at least
/// ten samples beyond it.
pub fn summary(xs: &mut [f64]) -> Summary {
    let n = xs.len();
    let beyond = |q: f64| n as f64 - (q * n as f64).round();
    let tail_q = [0.99, 0.9].into_iter().find(|&q| beyond(q) >= 10.0).unwrap_or(0.5);
    Summary { p50: median(xs), tail: quantile(xs, tail_q), tail_q, n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(summary(&mut xs).tail_q, 0.99);
        let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summary(&mut xs).tail_q, 0.9);
        let mut xs: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(summary(&mut xs).tail_q, 0.5);
    }
}
