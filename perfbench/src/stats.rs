//! Small numeric helpers: percentiles, fingerprints, a seeded generator and
//! metric-name validation.

/// Candidate tail percentiles in per-mille, highest first.
const TAILS: [usize; 3] = [999, 990, 900];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..=1) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples of `n` that lie beyond the nearest-rank percentile `per_mille`.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    n - (per_mille * n).div_ceil(1000)
}

/// Whether `n` samples put at least [`MIN_BEYOND`] of them beyond the
/// percentile `per_mille` (900 = p90).
pub fn supports(n: usize, per_mille: usize) -> bool {
    beyond(n, per_mille) >= MIN_BEYOND
}

/// The highest of p99.9, p99 and p90 (in per-mille) that `n` samples
/// support, if any.
pub fn highest_supported(n: usize) -> Option<usize> {
    TAILS.iter().copied().find(|&p| supports(n, p))
}

/// Sort ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names: a letter or digit first, then letters, digits, `_`, `.`
/// and `-`, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// FNV-1a over a stream of words, used to fingerprint generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mix one word (little-endian bytes) into the hash.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix a token sequence, length first so concatenations differ.
    pub fn tokens(&mut self, t: &[usize]) {
        self.word(t.len() as u64);
        for &x in t {
            self.word(x as u64);
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: a tiny seeded generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` on input `stream` (independent streams per use).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `n` tokens uniform in `0..vocab`.
    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<usize> {
        (0..n).map(|_| self.range(0, vocab - 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(9999), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
        for n in 0..20_000 {
            match highest_supported(n) {
                Some(p) => {
                    assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
                    // No higher candidate qualifies.
                    assert!(TAILS.iter().filter(|&&q| q > p).all(|&q| !supports(n, q)));
                }
                None => assert!(!supports(n, 900), "n={n}"),
            }
        }
        // The nearest-rank value agrees with the per-mille rule.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.9);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), beyond(100, 900));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for ok in ["tok_s", "op_ms_p50", "hooks.dedup_ratio", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "p99%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn fingerprint_depends_on_every_token_and_the_boundaries() {
        let fp = |seqs: &[&[usize]]| {
            let mut f = Fingerprint::default();
            for s in seqs {
                f.tokens(s);
            }
            f.hex()
        };
        assert_eq!(fp(&[&[1, 2, 3]]), fp(&[&[1, 2, 3]]));
        assert_ne!(fp(&[&[1, 2, 3]]), fp(&[&[1, 2, 4]]));
        assert_ne!(fp(&[&[1, 2], &[3]]), fp(&[&[1], &[2, 3]]));
    }

    #[test]
    fn rng_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(3, 0);
        assert!((0..1000)
            .map(|_| r.range(4, 16))
            .all(|x| (4..=16).contains(&x)));
    }
}
