//! Exact order statistics over the benchmark's own samples.
//!
//! Every quantile here is an observed sample chosen by nearest rank, never
//! an interpolated or bucket-ceiling estimate.

/// A quantile: the value and the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub percentile: f64,
}

/// Nearest-rank quantile `p` (0 < p <= 1) of `samples`; `None` when empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<Quantile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    at_rank(&sorted, rank(sorted.len(), p))
}

/// Median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

/// The highest percentile with at least ten samples beyond it, but never
/// below the median: with 21 samples or fewer that is the median itself.
pub fn tail(samples: &[f64]) -> Option<Quantile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    at_rank(&sorted, n.saturating_sub(10).max(rank(n, 0.5)))
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn at_rank(sorted: &[f64], rank: usize) -> Option<Quantile> {
    let value = *sorted.get(rank.checked_sub(1)?)?;
    Some(Quantile { value, percentile: rank as f64 / sorted.len() as f64 })
}

/// Latencies below this many nanoseconds are counted in one-nanosecond
/// buckets; longer ones are kept individually. Both are exact.
const FINE_NS: usize = 1 << 16;

/// Exact latency recorder for high-rate operations (reads): a fixed array
/// of 1 ns buckets plus the raw values of the rare slow samples.
pub struct NsRecorder {
    fine: Vec<u64>,
    slow: Vec<u64>,
    count: u64,
}

impl NsRecorder {
    pub fn new() -> NsRecorder {
        NsRecorder { fine: vec![0; FINE_NS], slow: Vec::new(), count: 0 }
    }

    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(bucket) => *bucket += 1,
            None => self.slow.push(ns),
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile `p`, in nanoseconds.
    pub fn quantile(&mut self, p: f64) -> Option<Quantile> {
        if self.count == 0 {
            return None;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.quantile_of(ns as f64, target));
            }
        }
        self.slow.sort_unstable();
        let ns = self.slow[(target - seen - 1) as usize];
        Some(self.quantile_of(ns as f64, target))
    }

    fn quantile_of(&self, value: f64, rank: u64) -> Quantile {
        Quantile { value, percentile: rank as f64 / self.count as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_sorted_samples() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), Some(50.0));
        let q = quantile(&xs, 0.99).unwrap();
        assert_eq!((q.value, q.percentile), (99.0, 0.99));
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 0.9));
        assert_eq!(tail(&xs[..12]).unwrap().value, median(&xs[..12]).unwrap());
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn ns_recorder_is_exact_across_the_overflow() {
        let mut r = NsRecorder::new();
        let values: Vec<u64> = (0..1000).map(|i| i * 131).collect();
        for &v in &values {
            r.record(v);
        }
        let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for p in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(r.quantile(p), quantile(&as_f64, p), "p = {p}");
        }
    }
}
