//! Order statistics over per-iteration samples.
//!
//! Wall-clock metrics are the **median** of the calibrated per-iteration
//! times; the lower quartile and the 90th percentile are printed beside it
//! (README, "Host calibration, and why the median").

/// Sample count with minimum, lower quartile, median and 90th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p90: f64,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated between
/// the two nearest order statistics (rank `q·(n−1)`).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one iteration.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Summarises a non-empty sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        n: samples.len(),
        min: quantile(samples, 0.0),
        p25: quantile(samples, 0.25),
        median: quantile(samples, 0.5),
        p90: quantile(samples, 0.9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_samples() {
        // 1..=9: rank q*8 lands on whole order statistics.
        let s: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.n, 9);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.p25, 3.0);
        assert_eq!(sum.median, 5.0);
        assert!((sum.p90 - 8.2).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_between_neighbours() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&s, 0.25), 17.5);
        assert_eq!(quantile(&s, 0.5), 25.0);
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 1.0), 40.0);
    }

    #[test]
    fn a_single_sample_is_every_quantile() {
        let sum = summarize(&[7.5]);
        assert_eq!((sum.p25, sum.median, sum.p90), (7.5, 7.5, 7.5));
    }

    #[test]
    fn slow_outliers_move_p90_not_p25() {
        let mut s = vec![10.0; 20];
        s.extend([30.0, 40.0, 50.0]);
        let sum = summarize(&s);
        assert_eq!(sum.p25, 10.0);
        assert_eq!(sum.median, 10.0);
        assert!(sum.p90 > 10.0);
    }
}
