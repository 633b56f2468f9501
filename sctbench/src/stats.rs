//! Spread and percentile helpers.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the ones an outside check computes from the same values. Percentiles of
//! timed operations follow the rule that a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

use serde::{Deserialize, Serialize};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median and quartiles of a set of repeated measurements.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measurements.
    pub n: usize,
}

impl Spread {
    /// Summarizes `values` (at least one).
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "a spread needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = if v.len() == 1 {
            (v[0], v[0])
        } else {
            let q = quartiles(&v);
            (q[0], q[2])
        };
        Spread {
            median: median(&v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Inter-quartile distance the median itself would show over repeated
    /// runs of `n` independent measurements like these: the median's
    /// standard error is √(π/2)·σ/√n, so its quartiles lie √(π/2)/√n of
    /// the measurements' apart (exactly so for normal noise). Drift that
    /// outlasts a run is not in it.
    pub fn median_iqr(&self) -> f64 {
        (self.q3 - self.q1) * (std::f64::consts::PI / 2.0).sqrt() / (self.n as f64).sqrt()
    }
}

/// Median of already-sorted values.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The three cut points of Python's `statistics.quantiles(data, n=4)`
/// (exclusive method) over already-sorted data of length ≥ 2.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

/// Whether percentile `p` (in `(0, 1)`) of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile_reportable(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() as usize >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if !percentile_reportable(samples.len(), p) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn spread_sorts_and_reports_the_middle_quartile_as_median() {
        let s = Spread::of(&[10.0, 1.0, 4.0, 7.0, 2.0, 9.0, 3.0, 8.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert!((s.rel_iqr() - 1.0).abs() < 1e-12);
        // Ten measurements: the median's quartiles sit √(π/2)/√10 ≈ 0.396
        // of the measurements' apart.
        assert!((s.median_iqr() - 5.5 * 0.396_332).abs() < 1e-5);
        let one = Spread::of(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert!(!percentile_reportable(19, 0.5));
        assert!(percentile_reportable(20, 0.5));
        assert!(!percentile_reportable(999, 0.99));
        assert!(percentile_reportable(1000, 0.99));
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&mut few, 0.99), None);
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(500.0));
        assert_eq!(percentile(&mut v, 0.99), Some(990.0));
    }
}
