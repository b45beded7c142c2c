//! Process measurements read with the standard library only, plus the
//! order statistics every workload reports.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (Linux exports them in `USER_HZ`, fixed at 100).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) consumed by this process so far,
/// including threads that have already exited.
///
/// # Panics
///
/// When `/proc/self/stat` is missing or malformed: the benchmark has
/// no honest substitute for CPU time, and wall time is not one.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; every field after
    // its closing parenthesis is space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = &stat[stat.rfind(')').expect("/proc/self/stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .expect("/proc/self/stat utime/stime") as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// The process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status has VmHWM");
    kb / 1024.0
}

/// Wall and CPU time of one interval, read together.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` since this stamp.
    pub fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// on `--seed` and on nothing inside the measured program.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}
