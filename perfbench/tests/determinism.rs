//! Two traced runs of a workload at one seed report the same work
//! counts, exactly. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// Counters that depend only on the seed, never on timing.
const DETERMINISTIC: [&str; 8] = [
    "gibbs.sweeps",
    "gibbs.likelihood_evals",
    "gibbs.suffstats_calls",
    "gibbs.ess_per_1k_evals",
    "wal.records_per_op",
    "batch.coalesced_share",
    "cache.hit_ratio",
    "http.requests_per_job",
];

/// Runs one traced run and returns its metrics by name.
fn traced_run(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let result = srm_obs::json::parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("failed").and_then(srm_obs::json::Value::as_f64),
        Some(0.0),
        "{workload}: {last}"
    );
    result
        .get("metrics")
        .and_then(srm_obs::json::Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(srm_obs::json::Value::as_f64);
            (name.clone(), value.expect("metric value"))
        })
        .collect()
}

fn assert_reproducible(workload: &str) {
    let (a, b) = (traced_run(workload, 7), traced_run(workload, 7));
    for name in DETERMINISTIC {
        if workload == "serve-fresh" && name == "http.requests_per_job" {
            // Status polls until a job is done depend on timing.
            continue;
        }
        assert_eq!(a[name].to_bits(), b[name].to_bits(), "{workload}: {name}");
    }
    let cells: Vec<&String> = a
        .keys()
        .filter(|k| k.ends_with(".likelihood_evals"))
        .collect();
    for name in cells {
        assert_eq!(a[name].to_bits(), b[name].to_bits(), "{workload}: {name}");
    }
}

#[test]
fn fit_grid_counts_reproduce() {
    let m = traced_run("fit-grid", 3);
    assert_eq!(m["gibbs.sweeps"], 10.0 * 2.0 * 1_500.0);
    assert_reproducible("fit-grid");
}

#[test]
fn batch_fleet_counts_reproduce() {
    assert_reproducible("batch-fleet");
}

#[test]
fn serve_fresh_counts_reproduce() {
    let m = traced_run("serve-fresh", 3);
    assert_eq!(m["wal.records_per_op"], 3.0, "submit, claim and terminal");
    assert_eq!(m["cache.hit_ratio"], 0.0);
    assert_reproducible("serve-fresh");
}

#[test]
fn serve_cached_counts_reproduce() {
    let m = traced_run("serve-cached", 3);
    assert_eq!(m["gibbs.sweeps"], 0.0, "hits never sample");
    assert_eq!(m["cache.hit_ratio"], 1.0);
    assert_eq!(
        m["http.requests_per_job"], 2.0,
        "a hit and its result fetch"
    );
    assert_eq!(m["wal.records_per_op"], 1.0, "one terminal append per hit");
    assert_reproducible("serve-cached");
}
