//! Order statistics over raw client-side samples.
//!
//! Every latency the benchmark reports is computed here from every
//! per-operation duration at nanosecond resolution — never from the
//! engine's power-of-two `LatencyHistogram` buckets.

use std::time::Duration;

/// Durations in `[0, DENSE_NS)` ns are counted in a table with one slot
/// per nanosecond (1 MiB of counts); the rest are kept as a list. Both
/// keep each sample's exact value, so the percentiles are those of the
/// sorted raw samples, while the memory a fast read client needs stays
/// fixed instead of growing with its throughput.
const DENSE_NS: usize = 1 << 18;

/// Raw durations of one class of operation, in nanoseconds. Signed,
/// because a derived stage (one timing minus others) can come out
/// negative.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// `dense[ns]` counts the samples of exactly `ns`; allocated, with
    /// every page written, on the first sample that falls in its range.
    dense: Vec<u32>,
    /// Samples outside the dense range: operations slower than
    /// `DENSE_NS` ns (at most one per `DENSE_NS` ns of a client's time)
    /// and negative derived stages.
    sparse: Vec<i64>,
    len: usize,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_nanos(d.as_nanos() as i128);
    }

    pub fn push_nanos(&mut self, ns: i128) {
        self.len += 1;
        match usize::try_from(ns) {
            Ok(i) if i < DENSE_NS => self.dense_table()[i] += 1,
            _ => self
                .sparse
                .push(ns.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64),
        }
    }

    fn dense_table(&mut self) -> &mut [u32] {
        if self.dense.is_empty() {
            // `resize` writes every slot, so the table is resident from
            // here on rather than page by page as the latencies spread.
            self.dense.reserve_exact(DENSE_NS);
            self.dense.resize(DENSE_NS, 0);
        }
        &mut self.dense
    }

    /// Adds `other`'s samples in place: the counts are summed, and only
    /// the short list of out-of-range samples is copied.
    pub fn extend(&mut self, other: &Samples) {
        if !other.dense.is_empty() {
            for (mine, theirs) in self.dense_table().iter_mut().zip(&other.dense) {
                *mine += theirs;
            }
        }
        self.sparse.extend_from_slice(&other.sparse);
        self.len += other.len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Nearest-rank percentile (`p` in 0..=100) in nanoseconds; 0 when
    /// there are no samples.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = (((p / 100.0) * self.len as f64).ceil() as usize).clamp(1, self.len);
        let mut sparse = self.sparse.clone();
        sparse.sort_unstable();
        // Sorted order: negative sparse samples, the dense range, then the
        // sparse samples at or above `DENSE_NS`.
        let negative = sparse.partition_point(|&v| v < 0);
        if rank <= negative {
            return sparse[rank - 1] as f64;
        }
        let mut seen = negative;
        for (ns, &count) in self.dense.iter().enumerate() {
            seen += count as usize;
            if seen >= rank {
                return ns as f64;
            }
        }
        sparse[rank - 1 - (seen - negative)] as f64
    }

    pub fn median_ns(&self) -> f64 {
        self.percentile_ns(50.0)
    }

    /// Heap bytes held, for the client's share of the peak RSS.
    pub fn heap_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<u32>()
            + self.sparse.capacity() * std::mem::size_of::<i64>()
    }
}

/// Median of plain values (setup and recovery repetitions); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of counts; 0 when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push(Duration::from_nanos(v));
        }
        assert_eq!(s.median_ns(), 50.0);
        assert_eq!(s.percentile_ns(99.0), 99.0);
        assert_eq!(s.percentile_ns(100.0), 100.0);
        assert_eq!(Samples::default().median_ns(), 0.0);
    }

    #[test]
    fn percentiles_equal_those_of_the_sorted_raw_samples() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut raw = Vec::new();
        let (mut a, mut b) = (Samples::default(), Samples::default());
        for i in 0..20_000 {
            // Negative, dense-range, boundary, and slow samples.
            let v: i64 = match rng.gen_range(0..4) {
                0 => -rng.gen_range(1..5_000),
                1 => rng.gen_range(0..2 * DENSE_NS as i64),
                2 => DENSE_NS as i64 - 1 + rng.gen_range(0..2),
                _ => rng.gen_range(0..50_000),
            };
            raw.push(v);
            let half = if i % 3 == 0 { &mut a } else { &mut b };
            half.push_nanos(i128::from(v));
        }
        a.extend(&b);
        raw.sort_unstable();
        assert_eq!(a.len(), raw.len());
        for p in [
            0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0,
        ] {
            let rank = (((p / 100.0) * raw.len() as f64).ceil() as usize).clamp(1, raw.len());
            assert_eq!(a.percentile_ns(p), raw[rank - 1] as f64, "p{p}");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
