//! Small self-contained helpers: the benchmark's own PRNG, percentiles,
//! hashing and process memory. Nothing here touches the engine, so the
//! numbers these produce cannot drift when the crates under test change.

/// SplitMix64. The benchmark owns its generator so a seed keeps meaning
/// the same op sequence on every later commit.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, tag)`, e.g. one per thread.
    pub fn forked(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The nearest-rank position (1-based) of percentile `p` among `n`
/// samples: `ceil(p / 100 * n)`, in whole per-mille so that 99.9 % of
/// 10 000 is 9 990 and not a rounding error more.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The percentiles the report chooses from, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples
/// beyond its nearest-rank position, or `None` when even the median has
/// not.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|p| n >= rank(*p, n) + 10)
}

/// Sorts and digests one latency population (nanoseconds in,
/// microseconds out).
pub struct Digest {
    pub count: usize,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Highest supported percentile and its value.
    pub top: Option<(f64, f64)>,
}

impl Digest {
    pub fn of(samples_ns: &mut [u64]) -> Digest {
        samples_ns.sort_unstable();
        let us = |p: f64| percentile(samples_ns, p) as f64 / 1e3;
        Digest {
            count: samples_ns.len(),
            p50_us: us(50.0),
            p95_us: us(95.0),
            p99_us: us(99.0),
            top: highest_supported(samples_ns.len()).map(|p| (p, us(p))),
        }
    }

    pub fn line(&self, what: &str) -> String {
        let top = match self.top {
            Some((p, v)) => format!("highest supported p{p} = {v:.1}us"),
            None => "fewer than 20 samples: no percentile is supported".to_string(),
        };
        format!(
            "  {what}: n={} p50={:.1}us p95={:.1}us p99={:.1}us ({top})",
            self.count, self.p50_us, self.p95_us, self.p99_us
        )
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two nearest order statistics; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let at = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (at - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a, for answer checksums that repeat across runs and platforms.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// is not available.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under the benchmark's scratch space, removed on drop.
pub struct TempDir(pub std::path::PathBuf);

impl TempDir {
    /// `<out_dir>/tmp-<pid>-<tag>`, emptied if a crashed run left it.
    pub fn new(out_dir: &std::path::Path, tag: &str) -> TempDir {
        let path = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch directory is writable");
        TempDir(path)
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies the regular files of `from` into the new directory `to`.
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // 7 samples: rank ceil(0.5 * 7) = 4.
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7], 50.0), 4);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        // p95 of 199 samples sits at rank 190: nine beyond.
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let run = |seed| {
            let mut r = Rng::new(seed);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let mut items: Vec<u32> = (0..13).collect();
        Rng::new(1).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [5.0, 1.0, 2.0, 3.0, 4.0], 0.25), 2.0);
        assert_eq!(quantile(&mut [5.0, 1.0, 2.0, 3.0, 4.0], 0.75), 4.0);
        assert_eq!(quantile(&mut [1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
