//! Order statistics over measured samples.

/// Linear-interpolated quantile of `values` (`0.0 <= q <= 1.0`); 0 when
/// empty.
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

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail of a timing series: the highest percentile that still has at
/// least ten samples beyond it, capped at p95.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. 95.0.
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// "p95.0 of 400", for notes.
    pub fn label(&self) -> String {
        format!("p{:.1} of {}", self.pct, self.samples)
    }
}

/// Samples a tail percentile must leave beyond it.
const BEYOND: f64 = 10.0;

/// Highest percentile reported as a tail. Across ten `tcp-mesh` runs,
/// the p99 of the 8 B round trip spread by more than a quarter of its
/// median, the p95 by about a seventh.
const MAX_TAIL_PCT: f64 = 95.0;

/// The percentile `100 (1 − 10/n)`, capped at [`MAX_TAIL_PCT`] (the
/// median when the series has fewer than twenty samples). It moves
/// smoothly with the sample count, so runs whose counts differ by a few
/// samples still report nearly the same percentile.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let pct = if n < 2 * BEYOND as usize {
        50.0
    } else {
        (100.0 * (1.0 - BEYOND / n as f64)).min(MAX_TAIL_PCT)
    };
    Tail {
        pct,
        value: quantile(values, pct / 100.0),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(tail(&v[..100]).pct, 90.0);
        assert_eq!(tail(&v[..40]).pct, 75.0);
        assert_eq!(tail(&v[..10]).pct, 50.0);
    }
}
