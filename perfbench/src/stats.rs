//! Sample summaries: median plus the highest tail percentile that has
//! enough samples beyond it to mean something.

/// Tail percentiles considered for a summary, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for even counts). Replicating
/// the sample set any number of times leaves it unchanged, which keeps
/// medians of exactly repeating simulated times exact.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `v`. Like [`median`],
/// invariant under replication of the sample set.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`]
/// samples strictly above its rank, with its value.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES.into_iter().find_map(|p| {
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        (v.len() >= rank + MIN_BEYOND && rank >= 1).then(|| (p, percentile(v, p)))
    })
}

/// One human-readable summary line for a timing.
pub fn describe(name: &str, unit: &str, v: &[f64]) -> String {
    if v.is_empty() {
        return format!("{name}: no samples");
    }
    let tail = match tail(v) {
        Some((p, x)) => format!("p{p} {x:.6} {unit}"),
        None => format!("no percentile has {MIN_BEYOND} samples beyond it"),
    };
    format!(
        "{name}: n={} median {:.6} {unit}; {tail}",
        v.len(),
        median(v)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..15]), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((99.0, 990.0)));
    }

    #[test]
    fn replication_keeps_median_and_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 9.0, 7.0];
        let twice: Vec<f64> = v.iter().chain(v.iter()).copied().collect();
        assert_eq!(median(&v), median(&twice));
        for p in [50.0, 90.0, 95.0] {
            assert_eq!(percentile(&v, p), percentile(&twice, p));
        }
    }
}
