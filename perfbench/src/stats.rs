//! Exact order statistics over a run's raw samples.
//!
//! Every percentile the benchmark names is computed here from the full
//! sample vector, never from a bucketed histogram: a log-linear histogram
//! with 8 sub-buckets per octave moves a quantile in steps of up to 12.5%,
//! so one bucket flip could exceed a metric's regression bound.

/// A sorted copy of one metric's raw samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
    /// two closest ranks; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly above the `q`-quantile's rank: a percentile is
    /// only named when at least 10 samples lie beyond it.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len() as f64;
        (n * (1.0 - q)).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::new(vec![7.0]).quantile(0.99), 7.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let s = Samples::new((0..1000).map(f64::from).collect());
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.beyond(0.5), 500);
    }
}
