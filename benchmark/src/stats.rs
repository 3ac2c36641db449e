//! Order statistics used for every reported number.

/// Median of `values` (mean of the middle two for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 if empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), which is what the acceptance check uses.  Needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile range as a share of the median: the spread the acceptance
/// check compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// 1-based nearest rank of percentile `p` (0..=100) among `n >= 1` samples.
/// The small slack keeps `99.9 % of 1000` at rank 999 despite rounding.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    (!sorted.is_empty()).then(|| sorted[nearest_rank(sorted.len(), p) - 1])
}

/// How many of `n >= 1` ascending samples lie beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Sorted nanosecond samples with percentile lookups in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    sorted_ns: Vec<u64>,
}

impl Latencies {
    pub fn from_samples(parts: impl IntoIterator<Item = Vec<u32>>) -> Self {
        let mut sorted_ns: Vec<u64> = parts.into_iter().flatten().map(u64::from).collect();
        sorted_ns.sort_unstable();
        Latencies { sorted_ns }
    }

    pub fn from_ns(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        Latencies { sorted_ns: ns }
    }

    pub fn len(&self) -> usize {
        self.sorted_ns.len()
    }

    /// Percentile in microseconds; 0 when there are no samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted_ns, p).map_or(0.0, |ns| ns as f64 / 1000.0)
    }

    /// Percentile `p`, but only if at least ten samples lie beyond it.
    pub fn supported_percentile_us(&self, p: f64) -> Option<f64> {
        (self.len() > 0 && samples_beyond(self.len(), p) >= 10).then(|| self.percentile_us(p))
    }

    pub fn max_us(&self) -> f64 {
        self.sorted_ns.last().map_or(0.0, |&ns| ns as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), [15.0, 40.0, 120.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        assert_eq!(percentile_sorted::<u64>(&[], 50.0), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // 1 000 samples: p99 has exactly 10 beyond it, p99.9 has 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);

        let lat = Latencies::from_ns((1..=1000u64).map(|i| i * 1000).collect());
        assert_eq!(lat.supported_percentile_us(99.0), Some(990.0));
        assert_eq!(lat.supported_percentile_us(99.9), None);
        let short = Latencies::from_ns((1..=199u64).collect());
        assert_eq!(short.supported_percentile_us(95.0), None);
        assert!(short.supported_percentile_us(50.0).is_some());
        assert_eq!(Latencies::default().supported_percentile_us(50.0), None);
        assert_eq!(lat.percentile_us(50.0), 500.0);
        assert_eq!(lat.max_us(), 1000.0);
    }
}
