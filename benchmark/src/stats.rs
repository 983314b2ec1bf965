//! Order statistics, checksums and the host facts the numbers depend on.

use std::time::{Duration, Instant};

/// Order statistics of one timing, printed next to every reported value so
/// the reader sees the spread it came from.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    /// 10th percentile: the reported value of every probe, see [`low`].
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of sorted, non-empty data (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarise `samples`; all-zero for an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Self {
            n: s.len(),
            min: s[0],
            p10: quantile(&s, 0.1),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// One report line with every statistic and the sample count.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: p10 {:.6} {unit}  median {:.6}  [min {:.6}  q1 {:.6}  q3 {:.6}  max {:.6}]  n={}",
            self.p10, self.median, self.min, self.q1, self.q3, self.max, self.n
        )
    }
}

/// The value reported for a timing read off the clock with nothing to judge
/// the host by — the layer probes and the traced passes: the 10th percentile
/// of its samples (0 when empty).
///
/// On a shared host slowdowns are one-sided and last seconds: neighbours take
/// memory bandwidth and cycles, and were measured to move the *median* of
/// identical solves by 15-30 % between runs minutes apart while the 10th
/// percentile moved by 3-9 % on a good day. End-to-end timings are divided by
/// the host reference instead (`calib.rs`) and report their median.
pub fn low(samples: &[f64]) -> f64 {
    Summary::of(samples).p10
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Seconds per call of `f`, the 10th percentile of its samples ([`low`]): one
/// untimed warm-up call, then at least `min_reps` timed calls, continuing
/// until `budget` is spent (at most 10 000).
pub fn bench(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (start.elapsed() < budget && samples.len() < 10_000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    low(&samples)
}

/// FNV-1a over the little-endian bytes of `words`, continuing from `state`.
pub fn fnv1a_words(mut state: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            state ^= u64::from(byte);
            state = state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    state
}

/// FNV-1a over the bit patterns of `values`, continuing from `state`.
pub fn fnv1a(state: u64, values: &[f64]) -> u64 {
    fnv1a_words(state, values.iter().map(|v| v.to_bits()))
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The `kB` value of the line starting with `key` in a `/proc` file, in MiB.
fn proc_mib(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_mib("/proc/self/status", "VmHWM:").unwrap_or(0.0)
}

/// `MemAvailable` of the host, in MiB.
pub fn mem_available_mib() -> f64 {
    proc_mib("/proc/meminfo", "MemAvailable:").unwrap_or(0.0)
}

/// Cache size the kernel reports for `cpu0` at `level`, in bytes.
pub fn cache_bytes(level: u32) -> Option<u64> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(lvl), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if lvl.trim().parse::<u32>().ok() != Some(level) || kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1u64 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            b'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        return digits.parse::<u64>().ok().map(|v| v * mult);
    }
    None
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Last-level cache size the host reports (L3, else L2), in bytes.
pub fn llc_bytes() -> Option<u64> {
    cache_bytes(3).or_else(|| cache_bytes(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(low(&[4.0, 1.0, 3.0, 2.0, 5.0]), 1.4);
        assert_eq!(Summary::of(&[1.0, 2.0]).median, 1.5);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of the 8 zero bytes of 0.0f64
        assert_eq!(fnv1a(FNV_OFFSET, &[0.0]), 0xA8C7_F832_281A_39C5);
        assert_ne!(
            fnv1a(FNV_OFFSET, &[1.0, 2.0]),
            fnv1a(FNV_OFFSET, &[2.0, 1.0])
        );
    }
}
