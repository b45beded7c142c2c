//! End-to-end benchmark of the srm fit, batch and serve paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it makes a separate traced run that breaks the same
//! workload down by layer. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Each run also
//! writes a record (why the workload exists, the seed, and per-phase
//! sent/succeeded/failed counts) and, when traced, its spans, under
//! `perfbench/out/`.

mod fitw;
mod reference;
mod report;
mod servew;
mod spans;
mod sys;

use std::path::PathBuf;

use srm_obs::json::Value;

use report::Outcome;
use spans::Tracer;

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Ctx, &Tracer) -> Outcome,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fit-grid",
        why: "musa_cc96 in all 10 curve x prior cells via Fit::try_run: the sampler and WAIC replay do the work, HTTP, WAL and batch none",
        run: fitw::fit_grid,
    },
    Workload {
        name: "batch-fleet",
        why: "run_batch per curve over seeded 48-project fleets, a quarter duplicates, short chains: per-fit fixed costs are a large share",
        run: fitw::batch_fleet,
    },
    Workload {
        name: "serve-fresh",
        why: "2 closed-loop clients submit never-seen fits and poll them to the result: the whole job path through HTTP, queue, engine and WAL",
        run: servew::serve_fresh,
    },
    Workload {
        name: "serve-cached",
        why: "2 closed-loop clients resubmit cached specs and fetch results: HTTP, cache lookup and one WAL append per hit, no sampling",
        run: servew::serve_cached,
    },
];

/// Metrics of a `--trace 0` run, reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
];

/// Metrics of a `--trace 1` run, reported by every workload; a layer
/// the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("gibbs.new_ms", "ms"),
    ("runner.sample_s", "s"),
    ("runner.cpu_util", "ratio"),
    ("runner.ess_per_cpu_s", "1/s"),
    ("gibbs.sweeps", "count"),
    ("gibbs.likelihood_evals", "count"),
    ("gibbs.suffstats_calls", "count"),
    ("gibbs.likelihood_ns_per_eval", "ns"),
    ("gibbs.suffstats_self_s", "s"),
    ("gibbs.ess_per_1k_evals", "ratio"),
    ("waic.replay_s", "s"),
    ("diagnostics.report_s", "s"),
    ("batch.layout_ms", "ms"),
    ("batch.coalesced_share", "ratio"),
    ("batch.pool_util", "ratio"),
    ("http.outside_ms_p50", "ms"),
    ("http.conn_queue_ms_mean", "ms"),
    ("http.handle_ms_mean", "ms"),
    ("http.serialize_ms_mean", "ms"),
    ("http.requests_per_job", "count"),
    ("http.access_log_joined_share", "ratio"),
    ("queue.wait_ms_mean", "ms"),
    ("engine.fit_ms_mean", "ms"),
    ("engine.serialize_ms_mean", "ms"),
    ("engine.fit_overhead_ratio", "ratio"),
    ("wal.append_us_mean", "us"),
    ("wal.records_per_op", "count"),
    ("wal.bytes_per_op", "B"),
    ("cache.hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("process.peak_rss_mb", "MB"),
];

/// Every per-layer metric name with its unit, the per-cell ones
/// included.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for (model, prior) in fitw::cells() {
        let cell = fitw::cell_name(model, prior);
        all.push((format!("fit.{cell}.sample_s"), "s"));
        all.push((format!("fit.{cell}.likelihood_evals"), "count"));
    }
    all
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("reference") {
        fitw::print_reference();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload (one of {})", names.join(", "));
        std::process::exit(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    std::fs::create_dir_all(&ctx.out_dir).expect("create the output directory");
    let tracer = Tracer::new(ctx.trace);
    let mut outcome = (workload.run)(&ctx, &tracer);
    if ctx.trace {
        // Peak memory varies by a fifth between runs (which threads
        // share an allocator arena depends on timing), too much for an
        // end-to-end bound, so it is reported with the layers.
        outcome.set("process.peak_rss_mb", sys::peak_rss_mb());
    }

    let declared: Vec<(String, &str)> = if ctx.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut report_phase = report::Phase::new("report");
    let mut metrics = Vec::new();
    for (name, unit) in &declared {
        let value = outcome.metrics.get(name).copied();
        let measured = match value {
            Some(v) if v.is_finite() => Ok(v),
            Some(v) => Err(format!("metric {name} is {v}")),
            // Per-layer metrics of layers this workload does not
            // exercise read 0; an end-to-end metric must be measured.
            None if ctx.trace => Ok(0.0),
            None => Err(format!("metric {name} was not measured")),
        };
        let v = *measured.as_ref().unwrap_or(&0.0);
        report_phase.record(measured.map(|_| ()));
        metrics.push((name.clone(), v, *unit));
    }
    outcome.phases.push(report_phase);

    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name,
        ctx.seed,
        u8::from(ctx.trace)
    );
    write_record(&ctx, workload, &outcome, &metrics, &stem);
    if ctx.trace {
        tracer
            .write_jsonl(&ctx.out_dir.join(format!("{stem}.spans.jsonl")))
            .expect("write the span file");
    }
    for (name, v, unit) in &metrics {
        eprintln!("{name:>36} {v:>14.4} {unit}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed() == 0,
        outcome.attempted(),
        outcome.failed(),
        body.join(", ")
    );
}

/// Writes the run's record: why the workload exists, the seed, the
/// per-phase operation counts, sample counts and metrics.
fn write_record(
    ctx: &Ctx,
    workload: &Workload,
    outcome: &Outcome,
    metrics: &[(String, f64, &str)],
    stem: &str,
) {
    let phases = outcome
        .phases
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("phase", Value::Str(p.name.to_owned())),
                ("sent", Value::Num(p.sent as f64)),
                ("succeeded", Value::Num(p.succeeded as f64)),
                ("failed", Value::Num(p.failed as f64)),
            ])
        })
        .collect();
    let samples = outcome
        .samples
        .iter()
        .map(|(k, v)| (k.as_str(), Value::Num(*v as f64)))
        .collect();
    let metric_values = metrics
        .iter()
        .map(|(name, v, unit)| {
            (
                name.as_str(),
                Value::obj(vec![
                    ("value", Value::Num(*v)),
                    ("unit", Value::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let record = Value::obj(vec![
        ("workload", Value::Str(workload.name.to_owned())),
        ("why", Value::Str(workload.why.to_owned())),
        ("seed", Value::Num(ctx.seed as f64)),
        ("seconds", Value::Num(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        ("available_parallelism", Value::Num(cpus as f64)),
        ("phases", Value::Arr(phases)),
        ("samples", Value::obj(samples)),
        ("metrics", Value::obj(metric_values)),
    ]);
    let path = ctx.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, record.to_json_pretty()).expect("write the run record");
}
