//! Order statistics for latency samples.

/// Samples that must lie beyond a reported tail percentile: with fewer, the
/// percentile is one or two unlucky requests rather than a measurement.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The median of latencies measured while the hypervisor stole a share
/// `steal` of the machine's CPU time, times `1 - steal`: about what they
/// would read had the virtual CPUs not been stolen from. Time blocked on
/// I/O or a lock is scaled too, so such a wait still shows, a little
/// smaller. With no steal this is the plain median.
pub fn unstolen_median(samples: &[f64], steal: f64) -> f64 {
    median(samples) * (1.0 - steal.clamp(0.0, 1.0))
}

/// Geometric mean of the positive `values` (0 when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, refused
/// unless at least [`MIN_BEYOND`] samples lie above its rank.
pub fn tail(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

/// Least-squares slope and intercept of `ys` against `xs`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len().min(ys.len()) as f64;
    if n < 2.0 {
        return (0.0, ys.first().copied().unwrap_or(0.0));
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (slope, my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_refuses_fewer_than_ten_samples_beyond() {
        let s: Vec<f64> = (0..999).map(|i| i as f64).collect();
        assert!(tail(&s, 0.99).is_err(), "999 samples leave 9 beyond p99");
        let s: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(tail(&s, 0.99).unwrap(), 989.0);
        assert!(tail(&s[..99], 0.9).is_err());
        assert!(tail(&[], 0.5).is_err());
        assert_eq!(tail(&s[..100], 0.9).unwrap(), 89.0);
    }

    #[test]
    fn median_and_fit() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(unstolen_median(&[4.0, 1.0, 2.0, 3.0], 0.0), 2.5);
        assert_eq!(unstolen_median(&[3.0, 1.0, 2.0], 0.25), 1.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.0, 9.0]) - 9.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (slope, icept) = linear_fit(&xs, &ys);
        assert!((slope - 2.0).abs() < 1e-12 && (icept - 1.0).abs() < 1e-12);
    }
}
