//! Sample-honest summaries of raw timing samples.
//!
//! Every percentile here is read off the sorted raw samples (nearest rank),
//! never off histogram buckets, and a percentile is only emitted when at
//! least [`MIN_BEYOND`] samples lie above it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the benchmark may report, highest first. The highest
/// one with at least [`TAIL_BEYOND`] samples beyond it is the `*_tail_*`
/// metric: a fixed ladder keeps the reported percentile the same from run
/// to run, and a hundred samples beyond steady it.
const TAIL_LADDER: [f64; 3] = [0.99, 0.9, 0.75];
const TAIL_BEYOND: usize = 100;

/// The nearest-rank `q`-quantile of an ascending slice, together with how
/// many samples lie beyond it.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A percentile with the sample it was read from.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    /// The quantile, in (0, 1).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
}

impl Pct {
    /// `p50 = 12.3 (n=4000)`-style rendering.
    pub fn render(&self, unit: &str) -> String {
        format!(
            "p{} = {:.2} {unit} (n={})",
            trim(self.q * 100.0),
            self.value,
            self.n
        )
    }
}

fn trim(x: f64) -> String {
    let s = format!("{x:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Raw samples, summarised on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// An empty sample with room for `n` samples already resident: the
    /// storage is written once, so filling it later leaves the process's
    /// resident set, and so `rss_peak_mb`, unchanged.
    pub fn with_resident_capacity(n: usize) -> Samples {
        let mut v = vec![f64::NAN; n];
        v.clear();
        Samples { v, sorted: false }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    /// Moves every sample of `other` into this one.
    pub fn append(&mut self, mut other: Samples) {
        self.v.append(&mut other.v);
        self.sorted = false;
    }

    /// Samples held.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    fn sort(&mut self) -> &[f64] {
        if !self.sorted {
            self.v.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.v
    }

    /// The `q`-percentile, if at least [`MIN_BEYOND`] samples lie beyond it.
    pub fn pct(&mut self, q: f64) -> Option<Pct> {
        self.pct_with(q, MIN_BEYOND)
    }

    fn pct_with(&mut self, q: f64, min_beyond: usize) -> Option<Pct> {
        let n = self.v.len();
        if n == 0 {
            return None;
        }
        let (value, beyond) = nearest_rank(self.sort(), q);
        (beyond >= min_beyond).then_some(Pct { q, value, n })
    }

    /// The median, if at least [`MIN_BEYOND`] samples lie above it.
    pub fn p50(&mut self) -> Option<Pct> {
        self.pct(0.5)
    }

    /// The median of any non-empty sample, without the tail-support rule —
    /// for per-layer self times, where a workload may call a layer only a
    /// handful of times.
    pub fn median(&mut self) -> Option<f64> {
        if self.v.is_empty() {
            return None;
        }
        Some(nearest_rank(self.sort(), 0.5).0)
    }

    /// The highest percentile of [`TAIL_LADDER`] with [`TAIL_BEYOND`]
    /// samples beyond it.
    pub fn tail(&mut self) -> Option<Pct> {
        TAIL_LADDER
            .iter()
            .find_map(|&q| self.pct_with(q, TAIL_BEYOND))
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it (reported beside the fixed-ladder tail, never gated).
    pub fn highest_supported(&mut self) -> Option<Pct> {
        let n = self.v.len();
        if n <= MIN_BEYOND {
            return None;
        }
        let q = (n - MIN_BEYOND) as f64 / n as f64;
        self.pct(q)
    }

    /// Arithmetic mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().sum::<f64>() / self.v.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        assert_eq!(s.pct(0.99).map(|p| p.value), Some(990.0));
        assert!(s.pct(0.995).is_none(), "p99.5 of 1000 has only 5 beyond");
        assert_eq!(
            s.tail().map(|p| p.q),
            Some(0.9),
            "p99 of 1000 has 10, not 100, beyond"
        );
        assert_eq!(s.highest_supported().map(|p| p.value), Some(990.0));
        assert_eq!(s.median(), Some(500.0));
    }
}
