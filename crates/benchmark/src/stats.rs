//! Order statistics for the benchmark's reports.

/// Samples a percentile must leave beyond it before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `NaN` for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method) — the driver that judges
/// this benchmark's steadiness uses exactly that function. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.len() < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (v.len() + 1) / 4).clamp(1, v.len() - 1);
        let delta = (i * (v.len() + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank position (1-based) of percentile `p` among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile, refused when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a tail percentile
/// resting on a handful of samples is one outlier, not a measurement.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(values.len(), p);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_SAMPLES_BEYOND})",
            values.len()
        ));
    }
    Ok(sorted(values)[rank(values.len(), p) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            (2.0, 32.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 7 passes x 15 ops = 105 samples: rank 95, ten beyond.
        assert_eq!(samples_beyond(105, 90.0), 10);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        let v: Vec<f64> = (1..=105).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Ok(95.0));
        assert!(percentile(&v[..99], 90.0).is_err());
        assert!(percentile(&v, 99.0).is_err());
        assert_eq!(percentile(&v, 50.0), Ok(53.0));
    }
}
