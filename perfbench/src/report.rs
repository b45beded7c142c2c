//! What a workload hands back: per-phase operation counts, the
//! metrics it measured, and the sample count behind each percentile.

use std::collections::BTreeMap;

/// Operations sent in one phase of a run, and how they ended.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            sent: 0,
            succeeded: 0,
            failed: 0,
        }
    }

    /// Counts one operation; a failure is reported on stderr (the
    /// first few per phase) so a failed run says why.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.sent += 1;
        match outcome {
            Ok(()) => {
                self.succeeded += 1;
                true
            }
            Err(why) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: {} operation failed: {why}", self.name);
                }
                false
            }
        }
    }
}

/// One profiled phase of the program, from either a
/// `RunOptions::profiler` snapshot or `GET /v1/debug/profile`.
#[derive(Debug, Clone, Default)]
pub struct ProfPhase {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl ProfPhase {
    fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or("")
    }
}

/// Sums over every profiled path whose last component is `leaf`
/// (`sweep`, `likelihood`, `suffstats`, ...), so counts are the same
/// wherever the program nests the phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn leaf_totals(phases: &[ProfPhase], leaf: &str) -> LeafTotals {
    phases
        .iter()
        .filter(|p| p.leaf() == leaf)
        .fold(LeafTotals::default(), |acc, p| LeafTotals {
            count: acc.count + p.count,
            total_ns: acc.total_ns + p.total_ns,
            self_ns: acc.self_ns + p.self_ns,
        })
}

/// The profile accumulated between two snapshots, per path.
pub fn profile_delta(before: &[ProfPhase], after: &[ProfPhase]) -> Vec<ProfPhase> {
    after
        .iter()
        .map(|a| {
            let b = before.iter().find(|b| b.path == a.path);
            ProfPhase {
                path: a.path.clone(),
                count: a.count - b.map_or(0, |b| b.count),
                total_ns: a.total_ns - b.map_or(0, |b| b.total_ns),
                self_ns: a.self_ns - b.map_or(0, |b| b.self_ns),
            }
        })
        .collect()
}

pub fn from_profiler(profiler: &srm_obs::Profiler) -> Vec<ProfPhase> {
    profiler
        .snapshot()
        .into_iter()
        .map(|p| ProfPhase {
            path: p.path,
            count: p.count,
            total_ns: p.total_ns,
            self_ns: p.self_ns,
        })
        .collect()
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub phases: Vec<Phase>,
    pub metrics: BTreeMap<String, f64>,
    /// Samples behind each reported percentile or mean.
    pub samples: BTreeMap<String, usize>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// The end-to-end metrics shared by every workload: set-up time
    /// (median of the repeated set-ups), operation latency median and
    /// 90th percentile, throughput as the median of `rates` measured
    /// over slices of the window (a slice disturbed by another process
    /// on the host does not move it), and CPU per operation over the
    /// whole window (CPU time comes in 10 ms ticks, too coarse for one
    /// slice).
    pub fn set_end_to_end(
        &mut self,
        setups: &[f64],
        latencies_ms: &[f64],
        rates: &[f64],
        cpu_s: f64,
    ) {
        use crate::sys::{median, quantile};
        self.set("setup_s", median(setups));
        self.set("op_p50_ms", median(latencies_ms));
        self.set("op_p90_ms", quantile(latencies_ms, 0.9));
        self.set("ops_per_s", median(rates));
        self.set("cpu_ms_per_op", cpu_s * 1e3 / latencies_ms.len() as f64);
        self.samples.insert("setup_s".into(), setups.len());
        self.samples.insert("op_latency".into(), latencies_ms.len());
        self.samples.insert("rate_slices".into(), rates.len());
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}
