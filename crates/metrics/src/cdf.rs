//! Empirical cumulative distribution functions.
//!
//! FaaSMem's semi-warm policy is driven by the CDF of *container reused
//! intervals* (paper §6.1, Fig 11): the 99th percentile of that CDF sets
//! the semi-warm start timing. The evaluation also reports CDFs of
//! requests-per-container (Fig 5) and semi-warm share (Fig 14).

/// An empirical CDF over `f64` samples.
///
/// # Examples
///
/// ```
/// use faasmem_metrics::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// assert!((cdf.fraction_at_most(2.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples. Non-finite samples are discarded.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted }
    }

    /// Adds one sample, keeping the samples sorted: a binary search
    /// plus one shift, so a CDF that grows one observation at a time
    /// never re-sorts its history. The sample lands after any equal
    /// ones, so the result equals [`Cdf::from_samples`] over all the
    /// samples in arrival order. A non-finite sample is discarded.
    pub fn insert(&mut self, sample: f64) {
        if sample.is_finite() {
            let at = self.sorted.partition_point(|&v| v <= sample);
            self.sorted.insert(at, sample);
        }
    }

    /// Number of samples behind the CDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank quantile: the smallest sample `x` such that at least a
    /// `q` fraction of samples are `<= x`.
    ///
    /// Returns `None` when the CDF is empty or `q` is NaN or outside
    /// `[0, 1]` — never panics, so percentile queries are safe on any
    /// input. With a single sample, every valid `q` returns it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if q.is_nan() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Fraction of samples `<= x`; 0.0 when empty.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Population standard deviation; `None` when empty.
    ///
    /// Fig 16 correlates density improvement with the standard deviation of
    /// request intervals, which this computes.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var =
            self.sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / self.sorted.len() as f64;
        Some(var.sqrt())
    }

    /// Evenly spaced `(value, cumulative_fraction)` points suitable for
    /// plotting, at most `points` of them.
    pub fn plot_points(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n.max(points) / points).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = 0;
        while i < n {
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(v, _)| v) != self.sorted.last().copied() {
            out.push((self.sorted[n - 1], 1.0));
        }
        out
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_behaves() {
        let cdf = Cdf::from_samples(Vec::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_at_most(10.0), 0.0);
        assert_eq!(cdf.mean(), None);
        assert_eq!(cdf.std_dev(), None);
        assert!(cdf.plot_points(10).is_empty());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf: Cdf = (1..=100).map(|v| v as f64).collect();
        assert_eq!(cdf.quantile(0.01), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.99), Some(99.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn single_sample_quantiles() {
        let cdf = Cdf::from_samples(vec![3.5]);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(cdf.quantile(q), Some(3.5), "q={q}");
        }
        assert_eq!(cdf.mean(), Some(3.5));
        assert_eq!(cdf.std_dev(), Some(0.0));
    }

    #[test]
    fn invalid_q_is_none_not_panic() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0]);
        assert_eq!(cdf.quantile(-0.5), None);
        assert_eq!(cdf.quantile(1.5), None);
        assert_eq!(cdf.quantile(f64::NAN), None);
        let empty = Cdf::default();
        assert_eq!(empty.quantile(f64::NAN), None);
    }

    #[test]
    fn fraction_at_most_boundaries() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.75);
        assert_eq!(cdf.fraction_at_most(4.0), 1.0);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
    }

    #[test]
    fn non_finite_samples_discarded() {
        let cdf = Cdf::from_samples(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.max(), Some(2.0));
    }

    #[test]
    fn stats_are_exact() {
        let cdf = Cdf::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(cdf.mean(), Some(5.0));
        assert_eq!(cdf.std_dev(), Some(2.0));
        assert_eq!(cdf.min(), Some(2.0));
        assert_eq!(cdf.max(), Some(9.0));
    }

    #[test]
    fn plot_points_cover_range() {
        let cdf: Cdf = (1..=1000).map(|v| v as f64).collect();
        let pts = cdf.plot_points(50);
        assert!(pts.len() <= 52);
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn insert_matches_from_samples() {
        // Duplicates, signed zeros, non-finite values and out-of-order
        // arrivals: the incrementally built CDF must equal the batch one
        // sample for sample, not just in its quantiles.
        let samples = [
            3.0,
            1.0,
            f64::NAN,
            3.0,
            0.0,
            -0.0,
            2.5,
            f64::INFINITY,
            1.0,
            0.0,
            7.0,
            -0.0,
        ];
        let mut cdf = Cdf::default();
        for (i, &v) in samples.iter().enumerate() {
            cdf.insert(v);
            let batch = Cdf::from_samples(samples[..=i].iter().copied());
            let bits = |c: &Cdf| c.sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cdf), bits(&batch), "after {} samples", i + 1);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_quantile_and_fraction_inverse(vals in proptest::collection::vec(0.0f64..1e6, 1..200), q in 0.01f64..1.0) {
            let cdf = Cdf::from_samples(vals);
            let x = cdf.quantile(q).unwrap();
            // At least q of the mass lies at or below the q-quantile.
            proptest::prop_assert!(cdf.fraction_at_most(x) + 1e-12 >= q);
        }
    }
}
