//! Order statistics of timing samples.

/// The `p`-quantile of ascending `sorted`, by the exclusive method of
/// Python's `statistics.quantiles` — the rule the PR driver applies across
/// runs, used here inside a run too so both spreads read alike.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let m = sorted.len();
    assert!(m > 0, "quantile of no samples");
    if m == 1 {
        return sorted[0];
    }
    let h = p * (m as f64 + 1.0);
    let j = (h.floor() as usize).clamp(1, m - 1);
    let frac = h - j as f64;
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

/// One metric's samples: the value reported for them, and the median and
/// quartiles printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Reports the median.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = quantile(&sorted, 0.5);
        Summary {
            value: median,
            median,
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// Reports the fastest sample: what the operation costs when the host
    /// leaves it alone.  What disturbs a timing here — a neighbour on the
    /// same core, cache or memory bus — only ever adds to it, for minutes at
    /// a stretch, and moved the in-run median of identical code by up to
    /// 70 %; across ten runs the fastest samples spread about half as much
    /// as the medians (README, "Measured spread").
    pub fn fastest_of(samples: &[f64]) -> Summary {
        Summary {
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            ..Summary::of(samples)
        }
    }

    /// A value that was not sampled (a count, a size).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range over the median; 0 for a zero median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of unsorted samples; 0 for none (a layer the workload never ran).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::of(samples).median
    }
}

/// The `p`-quantile of unsorted samples; 0 for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_odd_even_single_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_reports_the_minimum_beside_the_usual_summary() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::fastest_of(&v);
        assert_eq!(
            (s.value, s.median, s.q1, s.q3, s.n),
            (1.0, 5.5, 2.75, 8.25, 10)
        );
        assert_eq!(Summary::fastest_of(&[3.0]).value, 3.0);
        assert_eq!(Summary::of(&v).value, 5.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(3.0).spread(), 0.0);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn high_percentile_interpolates_between_top_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&v, 0.99) - 99.99).abs() < 1e-9);
        assert!((percentile(&v, 0.95) - 95.95).abs() < 1e-9);
    }
}
