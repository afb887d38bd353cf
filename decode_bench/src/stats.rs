//! Order statistics over one run's samples.

/// Nearest-rank percentile (`p` in `[0, 100]`) of `sorted`, which must be
/// sorted ascending. Returns `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A sample sorted once, queried for several percentiles.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or 0 for an empty sample.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted, p).unwrap_or(0.0)
    }

    /// Arithmetic mean, or 0 for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Samples strictly above percentile `p` — the support a tail
    /// percentile rests on.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.pct(p);
        self.sorted.iter().filter(|&&v| v > cut).count()
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn sample_sorts_and_summarises() {
        let s = Sample::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.pct(50.0), 2.0);
        assert_eq!(s.pct(99.0), 4.0);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.beyond(50.0), 2);
        assert_eq!(Sample::default().pct(50.0), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let s = Sample::new((0..1000).map(f64::from).collect());
        assert_eq!(s.beyond(99.0), 10);
        let s = Sample::new((0..200).map(f64::from).collect());
        assert_eq!(s.beyond(90.0), 20);
        assert_eq!(s.beyond(99.0), 2);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
