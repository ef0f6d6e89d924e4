//! Exact order statistics over raw samples, a seeded RNG, and process
//! memory readings.
//!
//! Every quantile is one of the recorded samples (nearest rank), never an
//! interpolated or bucketed value, so two runs with the same samples read
//! the same figure and a reader can count how many samples lie beyond it.

/// A quantile read from raw samples, with the counts that qualify it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the quantile was taken over.
    pub n: usize,
    /// Samples strictly beyond the quantile's rank.
    pub beyond: usize,
}

/// Nearest-rank quantile `q` (in `(0, 1]`) of `samples`. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> Quantile {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile { value: samples[rank - 1], n, beyond: n - rank }
}

/// Median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    quantile(&mut v, 0.5).value
}

/// Mean of the smallest `share` of `samples` (at least `at_least` of them,
/// at most all), and how many that was. Over call times this is the speed
/// of the code while the host is quietest: on a shared host, neighbours
/// slow whole minutes of calls, which moves a median from run to run far
/// more than it moves the fastest calls.
pub fn fastest_mean(samples: &[f64], share: f64, at_least: usize) -> (f64, usize) {
    assert!(!samples.is_empty(), "fastest of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let k = ((share * v.len() as f64).ceil() as usize).max(at_least).clamp(1, v.len());
    (v[..k].iter().sum::<f64>() / k as f64, k)
}

/// `a / b`, or 0 when `b` is 0 (an empty layer reads as no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seeded splitmix64: the benchmark's only source of randomness, so a
/// seed fixes every input and arrival time.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed` (distinct streams are independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample_and_counts_the_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = quantile(&mut v, 0.99);
        assert_eq!(q.value, 990.0);
        assert_eq!((q.n, q.beyond), (1000, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(fastest_mean(&v, 0.01, 5), (5.5, 10));
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fastest_mean(&w, 0.01, 5), (3.0, 5));
    }
}
