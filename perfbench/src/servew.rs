//! The HTTP workloads against an in-process `srm_serve::Server`:
//! `serve-fresh` (never-seen fits, polled to their results) and
//! `serve-cached` (resubmissions answered from the fit cache).

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use srm_core::{Fit, FitConfig};
use srm_mcmc::runner::{McmcConfig, RunOptions};
use srm_mcmc::{PriorSpec, RetryPolicy};
use srm_model::DetectionModel;
use srm_obs::json::{parse, Value};
use srm_serve::{Server, ServerConfig};

use crate::fitw::{cells, priors, set_gibbs_metrics, SETUPS};
use crate::report::{leaf_totals, profile_delta, Outcome, Phase, ProfPhase};
use crate::spans::Tracer;
use crate::sys::{mean, median, InputRng, Stamp};
use crate::Ctx;

/// Closed-loop clients; the benchmark host has 2 CPUs.
const CLIENTS: usize = 2;
/// Pause between two status polls of one job.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// Longest a job may take before the client gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP response.
struct Reply {
    status: u16,
    body: String,
}

/// One request the client made, for the join with the access log.
#[derive(Debug, Clone)]
struct Sent {
    trace_id: String,
    client_ms: f64,
}

/// Sends one request on a fresh connection (the server closes every
/// connection after its response) and reads the whole reply.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    trace_id: &str,
) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(JOB_TIMEOUT)).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nx-srm-trace-id: {trace_id}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|e| format!("{method} {path}: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or(format!("{method} {path}: no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{method} {path}: bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
    })
}

/// A client of one server: unique trace ids on every request, and
/// (when tracing) a record of each request's client-side latency.
struct Client<'a> {
    addr: SocketAddr,
    tracer: &'a Tracer,
    id_base: u64,
    next_id: &'a AtomicU64,
    sent: &'a Mutex<Vec<Sent>>,
}

impl Client<'_> {
    fn call(
        &self,
        parent: u64,
        method: &str,
        path: &str,
        body: &str,
        want: u16,
    ) -> Result<String, String> {
        let trace_id = format!(
            "{:016x}{:016x}",
            self.id_base,
            self.next_id.fetch_add(1, Ordering::Relaxed)
        );
        let span = match method {
            "POST" => "http.submit",
            _ if path.starts_with("/v1/results/") => "http.result",
            _ => "http.poll",
        };
        let t = Instant::now();
        let reply = self.tracer.span(span, parent, |_| {
            http(self.addr, method, path, body, &trace_id)
        })?;
        if self.tracer.enabled() {
            self.sent.lock().expect("sent log poisoned").push(Sent {
                trace_id,
                client_ms: t.elapsed().as_secs_f64() * 1e3,
            });
        }
        if reply.status == want {
            Ok(reply.body)
        } else {
            Err(format!(
                "{method} {path}: status {} ({})",
                reply.status, reply.body
            ))
        }
    }

    /// A request the benchmark makes to observe the server; it is
    /// neither traced nor counted as client work.
    fn observe(&self, path: &str) -> Value {
        http(self.addr, "GET", path, "", "0")
            .ok()
            .and_then(|r| parse(&r.body).ok())
            .unwrap_or(Value::Null)
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(Value::as_str)
}

fn num_path(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// A fit job spec as the wire carries it.
#[derive(Debug, Clone)]
struct JobSpec {
    dataset: &'static str,
    model: DetectionModel,
    prior: PriorSpec,
    mcmc: McmcConfig,
}

impl JobSpec {
    fn body(&self) -> String {
        format!(
            "{{\"kind\":\"fit\",\"dataset\":\"{}\",\"model\":\"{}\",\"prior\":\"{}\",\"chains\":{},\"burn_in\":{},\"samples\":{},\"seed\":{},\"threads\":1}}",
            self.dataset,
            self.model.name(),
            self.prior.label(),
            self.mcmc.chains,
            self.mcmc.burn_in,
            self.mcmc.samples,
            self.mcmc.seed
        )
    }

    /// The same fit run in-process through `Fit::try_run` with the
    /// server's options (retry budget 3, one thread) and no profiler.
    fn fit_in_process(&self) -> Result<srm_core::FaultTolerantFit, String> {
        let data = srm_data::datasets::all_named()
            .into_iter()
            .find(|(n, _)| *n == self.dataset)
            .map(|(_, d)| d)
            .ok_or("unknown dataset")?;
        let options = RunOptions {
            retry: RetryPolicy::default(),
            threads: 1,
            ..RunOptions::none()
        };
        Fit::try_run(
            self.prior,
            self.model,
            &data,
            &FitConfig {
                mcmc: self.mcmc,
                ..FitConfig::default()
            },
            &options,
        )
        .map_err(|e| e.to_string())
    }
}

/// A never-seen `serve-fresh` job: `combo` cycles through the 10
/// registry datasets × 10 cells, and the `n`-th job gets a seed no
/// other job uses.
fn fresh_spec(seed_base: u64, combo: u64, n: u64) -> JobSpec {
    let datasets = srm_data::datasets::all_named();
    let grid = cells();
    let (model, prior) = grid[(combo / datasets.len() as u64 % grid.len() as u64) as usize];
    JobSpec {
        dataset: datasets[(combo % datasets.len() as u64) as usize].0,
        model,
        prior,
        mcmc: McmcConfig {
            chains: 2,
            burn_in: 200,
            samples: 600,
            thin: 1,
            seed: seed_base + n,
        },
    }
}

/// The fixed spec set `serve-cached` fills the cache with; the first
/// two also warm up `serve-fresh`'s server.
fn cached_specs() -> Vec<JobSpec> {
    let datasets = srm_data::datasets::all_named();
    (0..8)
        .map(|i| JobSpec {
            dataset: datasets[i].0,
            model: DetectionModel::ALL[i % 5],
            prior: priors()[i % 2],
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 100,
                samples: 300,
                thin: 1,
                seed: 1_000 + i as u64,
            },
        })
        .collect()
}

/// Starts a server the way a deployment would: 2 workers, a state
/// directory (WAL at the default sync policy) and an access log.
fn start_server(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    Server::start(ServerConfig {
        workers: 2,
        state_dir: Some(dir.join("state").display().to_string()),
        access_log: Some(dir.join("access.jsonl").display().to_string()),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())
}

fn stop_server(server: Server, dir: &Path) {
    server.request_shutdown();
    let _ = server.join();
    let _ = std::fs::remove_dir_all(dir);
}

/// Submits a never-seen job, polls it until done and fetches its
/// result; returns the result body.
fn run_job(client: &Client, parent: u64, spec: &JobSpec) -> Result<String, String> {
    let submitted = parse(&client.call(parent, "POST", "/v1/jobs", &spec.body(), 202)?)
        .map_err(|e| e.to_string())?;
    let job = str_field(&submitted, "id")
        .ok_or("submit reply has no id")?
        .to_owned();
    let started = Instant::now();
    loop {
        let status = parse(&client.call(parent, "GET", &format!("/v1/jobs/{job}"), "", 200)?)
            .map_err(|e| e.to_string())?;
        match str_field(&status, "status") {
            Some("done") => break,
            Some("queued" | "running") if started.elapsed() < JOB_TIMEOUT => {
                std::thread::sleep(POLL_PAUSE);
            }
            other => return Err(format!("job {job} ended as {other:?}")),
        }
    }
    client.call(parent, "GET", &format!("/v1/results/{job}"), "", 200)
}

/// A fresh job's result is sound: it names the submitted dataset and
/// model, kept every draw, is not degraded, and has a finite WAIC.
fn check_fresh(spec: &JobSpec, body: &str) -> Result<(), String> {
    let v = parse(body).map_err(|e| e.to_string())?;
    let draws = (spec.mcmc.chains * spec.mcmc.samples) as f64;
    let ok = str_field(&v, "dataset") == Some(spec.dataset)
        && str_field(&v, "model") == Some(spec.model.name())
        && num_path(&v, &["residual", "count"]) == Some(draws)
        && matches!(v.get("degraded"), Some(Value::Bool(false)))
        && num_path(&v, &["waic", "total"]).is_some_and(f64::is_finite);
    if ok {
        Ok(())
    } else {
        Err(format!("unsound result for {}: {body}", spec.body()))
    }
}

/// The served result equals an in-process `Fit::try_run` of the same
/// spec, bit for bit in every summary the result carries.
fn matches_in_process(spec: &JobSpec, body: &str) -> Result<(), String> {
    let served = parse(body).map_err(|e| e.to_string())?;
    let fit = spec.fit_in_process()?.fit;
    let r = &fit.residual;
    let expected = [
        (vec!["residual", "mean"], r.mean),
        (vec!["residual", "median"], r.median),
        (vec!["residual", "sd"], r.sd),
        (vec!["residual", "q1"], r.q1),
        (vec!["residual", "q3"], r.q3),
        (vec!["residual", "min"], r.min),
        (vec!["residual", "max"], r.max),
        (vec!["waic", "total"], fit.waic.total()),
        (vec!["waic", "se"], fit.waic.se()),
    ];
    for (path, want) in expected {
        let got = num_path(&served, &path);
        if got.map(f64::to_bits) != Some(want.to_bits()) {
            return Err(format!(
                "{} differs: served {got:?}, in-process {want}",
                path.join(".")
            ));
        }
    }
    Ok(())
}

/// Server-side observations bracketing one traced round.
#[derive(Debug, Clone, Default)]
struct ServerView {
    profile: Vec<ProfPhase>,
    wal_records: f64,
    wal_bytes: f64,
    snapshots: f64,
    cache_hits: f64,
    cache_misses: f64,
}

fn metric_value(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn view(client: &Client) -> ServerView {
    let profile = client.observe("/v1/debug/profile");
    let phases = profile
        .get("phases")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|p| ProfPhase {
            path: str_field(p, "path").unwrap_or("").to_owned(),
            count: p.get("count").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            total_ns: p.get("total_ns").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            self_ns: p.get("self_ns").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        })
        .collect();
    let store = client.observe("/v1/debug/store");
    let page = http(client.addr, "GET", "/metrics", "", "0")
        .map(|r| r.body)
        .unwrap_or_default();
    ServerView {
        profile: phases,
        wal_records: metric_value(&page, "srm_wal_records_total"),
        wal_bytes: num_path(&store, &["wal", "bytes"]).unwrap_or(0.0),
        snapshots: num_path(&store, &["wal", "snapshots"]).unwrap_or(0.0),
        cache_hits: metric_value(&page, "srm_serve_cache_hits_total"),
        cache_misses: metric_value(&page, "srm_serve_cache_misses_total"),
    }
}

/// The server's own account of each request, from the access log:
/// trace id → queue wait + handle + serialize, milliseconds.
fn access_log(path: &Path) -> HashMap<String, (f64, f64, f64)> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let v = parse(line).ok()?;
            let ms = |k: &str| v.get(k).and_then(Value::as_f64);
            Some((
                str_field(&v, "trace_id")?.to_owned(),
                (ms("queue_wait_ms")?, ms("engine_ms")?, ms("serialize_ms")?),
            ))
        })
        .collect()
}

/// A [`view`] taken once the profile holds the fits of all `jobs`
/// fresh jobs the server has completed: workers flush a job's profile
/// just after its result becomes visible, so a view taken at once
/// could miss the last jobs' work.
fn settled_view(client: &Client, mode: Mode, jobs: u64) -> ServerView {
    let waited = Instant::now();
    loop {
        let v = view(client);
        let fits = leaf_totals(&v.profile, "fit").count;
        if mode == Mode::Cached || fits >= jobs || waited.elapsed() > Duration::from_secs(5) {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Slices of a serve window: the rate is measured over each tenth of
/// the operations, in completion order.
const RATE_SLICES: usize = 10;

/// Operations per second over consecutive runs of completions.
fn slice_rates(mut done: Vec<Instant>) -> Vec<f64> {
    done.sort_unstable();
    let k = (done.len() / RATE_SLICES).max(1);
    done.windows(k + 1)
        .step_by(k)
        .map(|w| k as f64 / (w[k] - w[0]).as_secs_f64())
        .collect()
}

/// One finished operation: its latency in ms, when it ended, and
/// whether it succeeded.
type Finished = (f64, Instant, Result<(), String>);

/// Which serve workload a run drives.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Fresh,
    Cached,
}

/// Operations per client in one traced or untraced round.
fn round_ops(mode: Mode) -> u64 {
    match mode {
        Mode::Fresh => 10,
        Mode::Cached => 100,
    }
}

pub fn serve_fresh(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    serve(ctx, tracer, Mode::Fresh)
}

pub fn serve_cached(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    serve(ctx, tracer, Mode::Cached)
}

#[allow(clippy::too_many_lines)]
fn serve(ctx: &Ctx, tracer: &Tracer, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Phase::new("setup");
    let mut window = Phase::new("window");
    let mut check = Phase::new("check");
    // Job seeds stay below u32::MAX, the largest the job API accepts.
    let seed_base = InputRng::new(ctx.seed, 300).next_u64() % (1 << 31);
    let id_base = InputRng::new(ctx.seed, 301).next_u64();
    let next_id = AtomicU64::new(0);
    let sent = Mutex::new(Vec::new());
    let dir: PathBuf = ctx.out_dir.join(format!("server-{}", std::process::id()));

    // Set-up: start the server (recovering its state directory) and,
    // for serve-cached, fill the cache; repeated, the last one kept.
    let specs = cached_specs();
    // The seeded order in which serve-cached resubmits the specs.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut shuffle = InputRng::new(ctx.seed, 303);
    for j in (1..order.len()).rev() {
        order.swap(j, shuffle.range(0, j as u64) as usize);
    }
    let mut setups = Vec::new();
    let mut kept: Option<(Server, Vec<String>)> = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = kept.take() {
            stop_server(server, &dir);
        }
        let t = Instant::now();
        let Ok(server) = start_server(&dir) else {
            setup.record(Err("server failed to start".into()));
            continue;
        };
        let client = Client {
            addr: server.addr(),
            tracer: &Tracer::new(false),
            id_base,
            next_id: &next_id,
            sent: &sent,
        };
        // serve-cached keeps the responses to compare hits against;
        // serve-fresh runs the same jobs only to warm the server up,
        // at seeds the window never uses.
        let mut warm = Vec::new();
        for spec in &specs[..if mode == Mode::Cached {
            specs.len()
        } else {
            CLIENTS
        }] {
            let body = run_job(&client, 0, spec);
            warm.push(body.clone().unwrap_or_default());
            setup.record(body.and_then(|b| check_fresh(spec, &b)));
        }
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((server, warm));
    }
    let Some((server, warm)) = kept else {
        out.phases = vec![setup];
        return out;
    };
    let addr = server.addr();
    // (operations so far, which spec the next one sends): a traced
    // round rewinds the spec index to repeat its untraced twin's specs
    // at fresh seeds.
    let cursor = Mutex::new((0u64, 0u64));
    let pick = InputRng::new(ctx.seed, 302).range(0, 19);
    let picked: Mutex<Option<(JobSpec, String)>> = Mutex::new(None);

    // One operation: a never-seen job from submit to result body, or a
    // cache hit followed by a result fetch.
    let op = |client: &Client, parent: u64| -> (f64, Result<(), String>) {
        let (n, combo) = {
            let mut c = cursor.lock().expect("cursor poisoned");
            let at = *c;
            *c = (at.0 + 1, at.1 + 1);
            at
        };
        match mode {
            Mode::Fresh => {
                let spec = fresh_spec(seed_base, combo, n);
                let t = Instant::now();
                let body = run_job(client, parent, &spec);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let outcome = body.and_then(|b| {
                    check_fresh(&spec, &b)?;
                    if n == pick {
                        *picked.lock().expect("picked job poisoned") = Some((spec, b));
                    }
                    Ok(())
                });
                (ms, outcome)
            }
            Mode::Cached => {
                let i = order[(combo % specs.len() as u64) as usize];
                let t = Instant::now();
                let reply = client.call(parent, "POST", "/v1/jobs", &specs[i].body(), 201);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let outcome = reply.and_then(|r| {
                    let v = parse(&r).map_err(|e| e.to_string())?;
                    if !matches!(v.get("cached"), Some(Value::Bool(true))) {
                        return Err(format!("hit not marked cached: {r}"));
                    }
                    let id = str_field(&v, "id").ok_or("hit reply has no id")?;
                    let body = client.call(parent, "GET", &format!("/v1/results/{id}"), "", 200)?;
                    if body == warm[i] {
                        Ok(())
                    } else {
                        Err(format!(
                            "result of hit {id} differs from its warm-up response"
                        ))
                    }
                });
                (ms, outcome)
            }
        }
    };

    // Runs CLIENTS closed-loop clients until `deadline` or until each
    // has made `per_client` operations.
    let drive = |tr: &Tracer, deadline: Option<Instant>, per_client: u64, window: &mut Phase| {
        let results: Vec<Vec<Finished>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let client = Client {
                            addr,
                            tracer: tr,
                            id_base,
                            next_id: &next_id,
                            sent: &sent,
                        };
                        let mut done = Vec::new();
                        for _ in 0..per_client {
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                break;
                            }
                            let (ms, outcome) = tr.span("op", 0, |id| op(&client, id));
                            done.push((ms, Instant::now(), outcome));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let (mut latencies, mut finished) = (Vec::new(), Vec::new());
        for (ms, at, outcome) in results.into_iter().flatten() {
            if window.record(outcome) {
                latencies.push(ms);
                finished.push(at);
            }
        }
        (latencies, finished)
    };

    let observer = Client {
        addr,
        tracer: &Tracer::new(false),
        id_base,
        next_id: &next_id,
        sent: &sent,
    };
    if ctx.trace {
        let quiet = Tracer::new(false);
        let per_client = round_ops(mode);
        let ops_per_round = (per_client * CLIENTS as u64) as f64;
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut round0: Option<(Vec<ProfPhase>, ServerView, ServerView)> = None;
        let mut all_phases = Vec::new();
        let mut wal_bytes = (0.0, 0.0);
        let (mut hits, mut lookups) = (0.0, 0.0);
        let mut round0_specs = Vec::new();
        let started = Instant::now();
        while untraced.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
            let first_combo = cursor.lock().expect("cursor poisoned").1;
            let t = Instant::now();
            drive(&quiet, None, per_client, &mut window);
            untraced.push(t.elapsed().as_secs_f64());

            let first_op = {
                let mut c = cursor.lock().expect("cursor poisoned");
                c.1 = first_combo;
                c.0
            };
            let before = settled_view(&observer, mode, warm.len() as u64 + first_op);
            let t = Instant::now();
            tracer.span("round", 0, |_| drive(tracer, None, per_client, &mut window));
            traced.push(t.elapsed().as_secs_f64());
            let ops = cursor.lock().expect("cursor poisoned").0;
            let after = settled_view(&observer, mode, warm.len() as u64 + ops);
            let delta = profile_delta(&before.profile, &after.profile);
            if after.snapshots == before.snapshots {
                wal_bytes.0 += after.wal_bytes - before.wal_bytes;
                wal_bytes.1 += ops_per_round;
            }
            hits += after.cache_hits - before.cache_hits;
            lookups +=
                after.cache_hits - before.cache_hits + after.cache_misses - before.cache_misses;
            if round0.is_none() {
                round0_specs = (0..ops_per_round as u64)
                    .map(|k| fresh_spec(seed_base, first_combo + k, first_op + k))
                    .collect();
                round0 = Some((delta.clone(), before, after));
            }
            all_phases.extend(delta);
        }
        let rounds = traced.len() as f64;
        let (phases0, before0, after0) = round0.unwrap_or_default();
        set_gibbs_metrics(&mut out, &phases0, &all_phases, rounds, 0.0);

        let exact = |path: &str| {
            all_phases
                .iter()
                .filter(|p| p.path == path)
                .fold((0u64, 0u64), |acc, p| (acc.0 + p.count, acc.1 + p.total_ns))
        };
        let mean_ms = |(count, ns): (u64, u64)| {
            if count == 0 {
                0.0
            } else {
                ns as f64 / count as f64 / 1e6
            }
        };
        out.set("queue.wait_ms_mean", mean_ms(exact("queue-wait")));
        out.set("engine.fit_ms_mean", mean_ms(exact("fit")));
        out.set("engine.serialize_ms_mean", mean_ms(exact("fit/serialize")));
        let wal = leaf_totals(&all_phases, "wal-append");
        out.set(
            "wal.append_us_mean",
            mean_ms((wal.count, wal.total_ns)) * 1e3,
        );
        out.set(
            "wal.records_per_op",
            (after0.wal_records - before0.wal_records) / ops_per_round,
        );
        out.set(
            "wal.bytes_per_op",
            if wal_bytes.1 > 0.0 {
                wal_bytes.0 / wal_bytes.1
            } else {
                0.0
            },
        );
        out.set(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );

        // Join the traced requests to the server's account of them.
        let sent = sent.lock().expect("sent log poisoned").clone();
        // A handler appends its access-log line just after writing the
        // response, so the last lines may still be on their way.
        let waited = Instant::now();
        let mut log = access_log(&dir.join("access.jsonl"));
        while sent.iter().any(|s| !log.contains_key(&s.trace_id))
            && waited.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(10));
            log = access_log(&dir.join("access.jsonl"));
        }
        let (mut outside, mut queue, mut handle, mut serialize) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for s in &sent {
            if let Some(&(q, h, z)) = log.get(&s.trace_id) {
                outside.push(s.client_ms - (q + h + z));
                queue.push(q);
                handle.push(h);
                serialize.push(z);
            }
        }
        out.set("http.outside_ms_p50", median(&outside));
        out.set("http.conn_queue_ms_mean", mean(&queue));
        out.set("http.handle_ms_mean", mean(&handle));
        out.set("http.serialize_ms_mean", mean(&serialize));
        out.set(
            "http.requests_per_job",
            sent.len() as f64 / (rounds * ops_per_round),
        );
        out.samples
            .insert("http.joined_requests".into(), outside.len());
        // Not every request joins: concurrent handlers' access-log
        // lines can merge into one unparseable line (each line is two
        // separate writes), so the share joined is reported, not
        // checked.
        out.set(
            "http.access_log_joined_share",
            outside.len() as f64 / sent.len().max(1) as f64,
        );

        if mode == Mode::Fresh {
            // The same specs fitted in-process without a profiler.
            let mut alone = Vec::new();
            for spec in &round0_specs {
                let t = Instant::now();
                check.record(spec.fit_in_process().map(|_| ()));
                alone.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let served = profile_delta(&before0.profile, &after0.profile);
            let fit = served
                .iter()
                .find(|p| p.path == "fit")
                .cloned()
                .unwrap_or_default();
            let served_ms = if fit.count == 0 {
                0.0
            } else {
                fit.total_ns as f64 / fit.count as f64 / 1e6
            };
            out.set("engine.fit_overhead_ratio", served_ms / mean(&alone));
        }
        out.set("trace.overhead_ratio", mean(&traced) / mean(&untraced));
        out.samples.insert("traced_rounds".into(), traced.len());
        out.samples.insert("untraced_rounds".into(), untraced.len());
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
        let stamp = Stamp::now();
        let (latencies, finished) =
            drive(&Tracer::new(false), Some(deadline), u64::MAX, &mut window);
        let cpu = stamp.elapsed().1;
        out.set_end_to_end(&setups, &latencies, &slice_rates(finished), cpu);
    }

    if mode == Mode::Fresh {
        let picked = picked.lock().expect("picked job poisoned").take();
        check.record(match picked {
            Some((spec, body)) => matches_in_process(&spec, &body),
            None => Err(format!("job {pick} did not complete")),
        });
    }
    stop_server(server, &dir);
    out.phases = vec![setup, window, check];
    out
}
