//! Order statistics used by every metric: exact nearest-rank
//! percentiles over the raw samples (no bucketing), and the quartile
//! rule the regression check uses for run-to-run spread.

/// Exact nearest-rank percentile: the smallest sample such that at
/// least `q` of all samples are less than or equal to it. `q = 0.5` is
/// the (lower) median.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN sample.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The better half of `samples`, best first: the `⌈n/2⌉` largest when
/// higher is better, else the smallest.
///
/// Interference from other tenants of the host only ever makes an
/// operation slower, and it comes in bursts that cover a good part of
/// a ten-second run; the median over *all* samples of two identical
/// runs then differs by up to 15 %. The half least disturbed estimates
/// what the code itself costs, and its median — the first quartile of
/// the whole — moves by 2–3 %.
#[must_use]
pub fn quiet_half(samples: &[f64], higher_is_better: bool) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    if higher_is_better {
        sorted.reverse();
    }
    sorted.truncate(samples.len().div_ceil(2));
    sorted
}

/// The three quartile cut points of `values`, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is
/// what the acceptance check applies to ten runs. `None` below two
/// values, where that rule is undefined.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Run-to-run spread: interquartile distance as a share of the median
/// cut point. `None` below two values or for a zero median.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            2.0,
            "lower median on even counts"
        );
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quiet_half_keeps_the_better_half() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quiet_half(&s, false), [1.0, 2.0, 3.0]);
        assert_eq!(quiet_half(&s, true), [5.0, 4.0, 3.0]);
        assert_eq!(median(&quiet_half(&s, false)), 2.0);
        assert!(quiet_half(&[], true).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&s), Some(1.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), Some(0.0));
    }
}
