//! Sample statistics. The gated estimator is `fastq`, the mean of the
//! fastest twentieth of the samples: on a shared box noise only adds time,
//! and here it adds it in plateaus that last seconds (a neighbour on the
//! sibling hyperthread), so only the fast tail of a run's samples sees the
//! program's own cost. NOISE.md has the comparison with the mean, the
//! median, wider fast shares and the minimum.

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of the fastest ⌊n/20⌋ samples, at least three (all of them when
/// there are fewer); 0 for no samples.
pub fn fastq(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let k = (v.len() / 20).max(3).min(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the acceptance check uses that function.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastq_takes_the_fast_twentieth_and_at_least_three() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fastq(&v), 3.0);
        assert_eq!(fastq(&[8.0, 1.0, 7.0, 3.0, 6.0, 5.0, 4.0, 2.0]), 2.0);
        assert_eq!(fastq(&[3.0, 2.0]), 2.5);
        assert_eq!(fastq(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn percentile_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
