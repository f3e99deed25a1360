//! Order statistics the harness reports: an exact latency histogram,
//! band-mean quantiles, medians and interpolated quantiles.

/// Latencies below this many ns are counted exactly, one bucket per ns;
/// the rare ones above (preemptions, fallback paths) are kept verbatim.
const FINE_NS: usize = 1 << 16;

/// An exact histogram of per-operation latencies in ns. Fixed size, so
/// it can be zeroed (and thereby page-touched) before the clock starts
/// and never allocates inside the timed window unless an operation
/// takes longer than [`FINE_NS`].
pub struct Hist {
    fine: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            fine: vec![0; FINE_NS],
            over: Vec::with_capacity(4096),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(slot) => *slot += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
    }

    /// The `q` quantile as the mean of the order statistics whose rank
    /// lies within ±`h` of `q`, `h = min(0.5 %, (1 − q) / 2)`.
    ///
    /// A single order statistic of integer-ns samples sits on a plateau
    /// of the clock's resolution and reads the same from run to run; the
    /// band mean moves continuously with the distribution and is the
    /// steadier estimator. Returns 0 for an empty histogram.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let h = 0.005f64.min((1.0 - q) / 2.0);
        let lo = ((q - h) * n).floor().max(0.0) as u64;
        let hi = (((q + h) * n).ceil() as u64).clamp(lo + 1, self.count);
        let lo = lo.min(hi - 1);

        self.over.sort_unstable();
        let mut rank = 0u64; // samples seen so far
        let mut sum = 0.0;
        let mut take = |value: u64, n_here: u64| {
            let from = rank.max(lo);
            let to = (rank + n_here).min(hi);
            if to > from {
                sum += (to - from) as f64 * value as f64;
            }
            rank += n_here;
        };
        for (ns, &c) in self.fine.iter().enumerate() {
            if c != 0 {
                take(ns as u64, c as u64);
            }
        }
        for &ns in &self.over {
            take(ns, 1);
        }
        sum / (hi - lo) as f64
    }
}

/// Median of `v` (mean of the two middle values when the count is
/// even); 0 when empty. Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated `q` quantile of `v`; 0 when empty. Sorts in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_quantile_tracks_the_distribution() {
        let mut h = Hist::new();
        for ns in 0..10_000u64 {
            h.record(ns);
        }
        // Ranks 4950..5050 of 0..10000 average 4999.5.
        // (±1: the band edges are rounded outward in floating point.)
        assert!((h.quantile(0.50) - 4999.5).abs() < 1.0);
        assert!((h.quantile(0.90) - 8999.5).abs() < 1.0);
        assert!((h.quantile(0.99) - 9899.5).abs() < 1.0);
    }

    #[test]
    fn overflow_samples_are_kept_exactly() {
        let mut h = Hist::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(5_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 100.0);
        assert_eq!(h.quantile(0.9999), 5_000_000.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(10);
        b.record(30);
        b.record(70_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(0.5), 30.0);
    }

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
