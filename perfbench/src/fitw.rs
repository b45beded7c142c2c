//! The in-process workloads: `fit-grid` (the paper's 10-cell study on
//! one dataset) and `batch-fleet` (one columnar batch per detection
//! curve over a synthetic fleet).

use std::sync::Arc;

use srm_batch::{run_batch, BatchReport, BatchSpec, ColumnarBatch};
use srm_core::{FaultTolerantFit, Fit, FitConfig};
use srm_data::{BugCountData, DetectionSimulator};
use srm_mcmc::diagnostics::report;
use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
use srm_mcmc::{GibbsSampler, PosteriorSummary, PriorSpec, RetryPolicy};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::{Profiler, NOOP};
use srm_select::waic::waic_from_output_traced;

use crate::reference::{GRID_REFERENCE, REFERENCE_RUNS};
use crate::report::{from_profiler, leaf_totals, Outcome, Phase, ProfPhase};
use crate::spans::Tracer;
use crate::sys::{mean, InputRng, Stamp};
use crate::Ctx;

/// Worker threads of every fit: the benchmark host has 2 CPUs.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// The two priors of the paper, at the CLI's default limits.
pub fn priors() -> [PriorSpec; 2] {
    [
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        PriorSpec::NegBinomial { alpha_max: 100.0 },
    ]
}

/// The 10 (curve × prior) cells, curve-major.
pub fn cells() -> Vec<(DetectionModel, PriorSpec)> {
    DetectionModel::ALL
        .into_iter()
        .flat_map(|m| priors().into_iter().map(move |p| (m, p)))
        .collect()
}

pub fn cell_name(model: DetectionModel, prior: PriorSpec) -> String {
    format!("{}-{}", model.name(), prior.label())
}

/// The run options `srm fit` uses (retry budget 3), on `THREADS`.
fn options(profiler: Option<Arc<Profiler>>) -> RunOptions {
    RunOptions {
        retry: RetryPolicy::default(),
        threads: THREADS,
        profiler,
        ..RunOptions::none()
    }
}

/// Run length of each `fit-grid` cell: 2 chains × 1500 sweeps.
pub fn grid_mcmc(seed: u64) -> McmcConfig {
    McmcConfig {
        chains: 2,
        burn_in: 500,
        samples: 1_000,
        thin: 1,
        seed,
    }
}

fn fit_config(mcmc: McmcConfig) -> FitConfig {
    FitConfig {
        mcmc,
        ..FitConfig::default()
    }
}

/// The residual's ESS and MCSE from a fit's diagnostics.
fn residual_diag(fit: &Fit) -> Option<(f64, f64)> {
    fit.diagnostics
        .iter()
        .find(|(name, _)| name == "residual")
        .map(|(_, d)| (d.ess, d.mcse))
}

/// What the grid checks in each cell fit.
struct CellResult {
    mean: f64,
    ess: f64,
    mcse: f64,
    waic: f64,
    chains_ok: bool,
}

impl CellResult {
    fn of(tolerant: &FaultTolerantFit) -> Self {
        let (ess, mcse) = residual_diag(&tolerant.fit).unwrap_or((0.0, f64::INFINITY));
        Self {
            mean: tolerant.fit.residual.mean,
            ess,
            mcse,
            waic: tolerant.fit.waic.total(),
            chains_ok: !tolerant.is_degraded() && tolerant.fit.output.chains.len() == 2,
        }
    }

    /// The cell's posterior mean lies within 4 MCSE of the stored
    /// reference, its WAIC is finite, and no chain was lost.
    ///
    /// The MCSE is the larger of this run's own estimate and the
    /// spread of the mean across the reference's independent runs of
    /// the same length. Several cells' chains stay in a low-residual
    /// mode for a whole short run, so their within-run MCSE understates
    /// the real Monte-Carlo error many times over.
    fn check(&self, cell: usize) -> Result<(), String> {
        let (name, ref_mean, ref_sd) = GRID_REFERENCE[cell];
        let ref_mcse = ref_sd * (1.0 + 1.0 / REFERENCE_RUNS as f64).sqrt();
        if !self.chains_ok {
            return Err(format!("{name}: a chain was lost"));
        }
        if !self.waic.is_finite() {
            return Err(format!("{name}: WAIC is not finite"));
        }
        let tol = 4.0 * self.mcse.max(ref_mcse);
        if (self.mean - ref_mean).abs() > tol {
            return Err(format!(
                "{name}: residual mean {} is not within {tol} of the reference {ref_mean}",
                self.mean
            ));
        }
        Ok(())
    }
}

/// `Fit::try_run_traced` taken apart into the public calls it makes,
/// each under its own span, with the layer's profiler installed on
/// the chain workers.
fn traced_fit(
    tracer: &Tracer,
    parent: u64,
    cell: (DetectionModel, PriorSpec),
    data: &BugCountData,
    mcmc: &McmcConfig,
    profiler: &Arc<Profiler>,
    sample_cpu: &mut (f64, f64),
) -> Result<CellResult, String> {
    let (model, prior) = cell;
    tracer.span("fit", parent, |id| {
        let sampler = tracer.span("gibbs.new", id, |_| {
            GibbsSampler::new(prior, model, ZetaBounds::default(), data)
        });
        let stamp = Stamp::now();
        let run = tracer
            .span("runner.sample", id, |_| {
                run_chains_fault_tolerant_traced(
                    &sampler,
                    mcmc,
                    &options(Some(Arc::clone(profiler))),
                    &NOOP,
                )
            })
            .map_err(|e| e.to_string())?;
        let (wall, cpu) = stamp.elapsed();
        sample_cpu.0 += cpu;
        sample_cpu.1 += wall * THREADS as f64;
        let waic = tracer
            .span("waic.replay", id, |_| {
                waic_from_output_traced(&sampler, &run.output, &NOOP)
            })
            .map_err(|e| e.to_string())?;
        let residual = PosteriorSummary::from_draws(&run.output.pooled("residual"));
        let (ess, mcse) = tracer.span("diagnostics.report", id, |_| {
            let mut found = (0.0, f64::INFINITY);
            for name in run.output.names() {
                if let Ok(per_chain) = run.output.per_chain(name) {
                    let d = report(&per_chain);
                    if name == "residual" {
                        found = (d.ess, d.mcse);
                    }
                }
            }
            found
        });
        Ok(CellResult {
            mean: residual.mean,
            ess,
            mcse,
            waic: waic.total(),
            chains_ok: !run.is_degraded() && run.output.chains.len() == 2,
        })
    })
}

/// Seed of cell `i`'s fit in grid pass `pass`, derived from the run
/// seed. Every pass draws new seeds, so a run's times average over
/// many chains' paths rather than depend on one seed's.
fn cell_seed(seed: u64, pass: usize, i: usize) -> u64 {
    InputRng::new(seed, ((pass as u64) << 8) | i as u64).next_u64()
}

/// Seed of the warm-up fits: fixed, so every run sets up alike.
const WARM_UP_SEED: u64 = 0x5EED;

pub fn fit_grid(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Phase::new("setup");
    let mut window = Phase::new("window");
    let grid = cells();

    // Set-up: load the dataset and run one warm-up fit so lazy
    // initialisation is not timed.
    let mut setups = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let t = std::time::Instant::now();
        let d = srm_data::datasets::musa_cc96();
        let (model, prior) = grid[0];
        let warm = Fit::try_run(
            prior,
            model,
            &d,
            &fit_config(grid_mcmc(WARM_UP_SEED)),
            &options(None),
        );
        setup.record(warm.map(|_| ()).map_err(|e| e.to_string()));
        setups.push(t.elapsed().as_secs_f64());
        data = Some(d);
    }
    let data = data.expect("at least one set-up");
    let mcmc = |pass: usize, i: usize| grid_mcmc(cell_seed(ctx.seed, pass, i));

    // One untraced grid pass; returns each cell's posterior mean.
    let untraced_pass =
        |pass: usize, window: &mut Phase, latencies: &mut Vec<f64>, ess: &mut f64| {
            let mut means = vec![f64::NAN; grid.len()];
            for (i, &(model, prior)) in grid.iter().enumerate() {
                let t = std::time::Instant::now();
                let fit = Fit::try_run(
                    prior,
                    model,
                    &data,
                    &fit_config(mcmc(pass, i)),
                    &options(None),
                );
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                let outcome = fit.map_err(|e| e.to_string()).and_then(|f| {
                    let r = CellResult::of(&f);
                    *ess += r.ess;
                    means[i] = r.mean;
                    r.check(i)
                });
                window.record(outcome);
            }
            means
        };

    if !ctx.trace {
        let mut latencies = Vec::new();
        let mut ess = 0.0;
        // A slice is one grid pass.
        let (mut rates, mut cpu) = (Vec::new(), 0.0);
        let started = std::time::Instant::now();
        while started.elapsed().as_secs_f64() < ctx.seconds {
            let stamp = Stamp::now();
            untraced_pass(rates.len(), &mut window, &mut latencies, &mut ess);
            let (wall_s, cpu_s) = stamp.elapsed();
            rates.push(grid.len() as f64 / wall_s);
            cpu += cpu_s;
        }
        out.set_end_to_end(&setups, &latencies, &rates, cpu);
        out.phases = vec![setup, window];
        return out;
    }

    // Traced run: alternate untraced and traced grid passes over the
    // same seeds; the traced pipeline must reproduce `Fit::try_run`'s
    // means bit for bit. Work counts come from the first traced pass;
    // times are means over traced passes.
    let mut untraced = Vec::new();
    let mut untraced_cpu = 0.0;
    let mut untraced_ess = 0.0;
    let mut traced = Vec::new();
    let mut counts: Option<Vec<ProfPhase>> = None;
    let mut cell_samples = vec![Vec::new(); grid.len()];
    let mut cell_evals = vec![0u64; grid.len()];
    let mut sample_cpu = (0.0, 0.0);
    let mut ess_round0 = 0.0;
    let mut all_phases: Vec<ProfPhase> = Vec::new();
    let started = std::time::Instant::now();
    while untraced.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let pass = untraced.len();
        let stamp = Stamp::now();
        let means = untraced_pass(pass, &mut window, &mut Vec::new(), &mut untraced_ess);
        let (wall, cpu) = stamp.elapsed();
        untraced.push(wall);
        untraced_cpu += cpu;

        let t = std::time::Instant::now();
        let mut round = Vec::new();
        tracer.span("grid.pass", 0, |id| {
            for (i, &cell) in grid.iter().enumerate() {
                let profiler = Arc::new(Profiler::new());
                let span_start = tracer.total_secs("runner.sample");
                let result = traced_fit(
                    tracer,
                    id,
                    cell,
                    &data,
                    &mcmc(pass, i),
                    &profiler,
                    &mut sample_cpu,
                );
                cell_samples[i].push(tracer.total_secs("runner.sample") - span_start);
                let phases = from_profiler(&profiler);
                if counts.is_none() {
                    cell_evals[i] = leaf_totals(&phases, "likelihood").count;
                    if let Ok(r) = &result {
                        ess_round0 += r.ess;
                    }
                }
                round.extend(phases);
                window.record(result.and_then(|r| {
                    r.check(i)?;
                    if r.mean.to_bits() == means[i].to_bits() {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: traced mean {} != Fit::try_run mean {}",
                            GRID_REFERENCE[i].0, r.mean, means[i]
                        ))
                    }
                }));
            }
        });
        traced.push(t.elapsed().as_secs_f64());
        if counts.is_none() {
            counts = Some(round.clone());
        }
        all_phases.extend(round);
    }
    let rounds = traced.len() as f64;
    let counts = counts.unwrap_or_default();
    set_gibbs_metrics(&mut out, &counts, &all_phases, rounds, ess_round0);
    for (i, &(model, prior)) in grid.iter().enumerate() {
        let name = cell_name(model, prior);
        out.set(&format!("fit.{name}.sample_s"), mean(&cell_samples[i]));
        out.set(
            &format!("fit.{name}.likelihood_evals"),
            cell_evals[i] as f64,
        );
    }
    let spans = tracer.spans();
    let span_mean_ms = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e3)
            .collect();
        mean(&v)
    };
    out.set("gibbs.new_ms", span_mean_ms("gibbs.new"));
    out.set(
        "runner.sample_s",
        tracer.total_secs("runner.sample") / rounds,
    );
    out.set("runner.cpu_util", sample_cpu.0 / sample_cpu.1);
    out.set("runner.ess_per_cpu_s", untraced_ess / untraced_cpu);
    out.set("waic.replay_s", tracer.total_secs("waic.replay") / rounds);
    out.set(
        "diagnostics.report_s",
        tracer.total_secs("diagnostics.report") / rounds,
    );
    out.set("trace.overhead_ratio", mean(&traced) / mean(&untraced));
    out.samples.insert("traced_rounds".into(), traced.len());
    out.samples.insert("untraced_rounds".into(), untraced.len());
    out.phases = vec![setup, window];
    out
}

/// Sampler work counts (from one round's profile) and per-evaluation
/// costs (from every traced round's profile).
pub fn set_gibbs_metrics(
    out: &mut Outcome,
    round0: &[ProfPhase],
    all: &[ProfPhase],
    rounds: f64,
    ess_round0: f64,
) {
    let evals = leaf_totals(round0, "likelihood").count as f64;
    out.set("gibbs.sweeps", leaf_totals(round0, "sweep").count as f64);
    out.set("gibbs.likelihood_evals", evals);
    out.set(
        "gibbs.suffstats_calls",
        leaf_totals(round0, "suffstats").count as f64,
    );
    let lik = leaf_totals(all, "likelihood");
    out.set(
        "gibbs.likelihood_ns_per_eval",
        if lik.count == 0 {
            0.0
        } else {
            lik.total_ns as f64 / lik.count as f64
        },
    );
    out.set(
        "gibbs.suffstats_self_s",
        leaf_totals(all, "suffstats").self_ns as f64 / 1e9 / rounds,
    );
    out.set(
        "gibbs.ess_per_1k_evals",
        if evals == 0.0 {
            0.0
        } else {
            ess_round0 / (evals / 1e3)
        },
    );
}

/// Projects in the synthetic fleet.
const FLEET: usize = 48;

/// Run length of every batch item: short chains, so per-fit fixed
/// costs are a large share of the work.
fn fleet_mcmc(seed: u64) -> McmcConfig {
    McmcConfig {
        chains: 2,
        burn_in: 60,
        samples: 150,
        thin: 1,
        seed,
    }
}

/// Distinct projects in the fleet; the rest duplicate them.
const PRIMARIES: usize = 36;

/// A seeded fleet of short projects: 10–60 days, 40–200 detected
/// bugs, a quarter exact duplicates of earlier projects. Returns the
/// items and the number of duplicates.
///
/// Project lengths are stratified (one per band of 10..60 days) and
/// the duplicate count is fixed, so fleets carry similar sampling work;
/// the seed decides the counts, the order and which projects repeat.
/// Each fleet pass of a run draws its own fleet, so a run's times
/// average over many fleets rather than depend on one.
pub fn fleet(seed: u64, pass: usize) -> (Vec<(String, BugCountData)>, usize) {
    let mut rng = InputRng::new(seed, 0x2_0000 + pass as u64);
    let mut projects: Vec<BugCountData> = (0..PRIMARIES as u64)
        .map(|j| {
            let band = PRIMARIES as u64;
            let (lo, hi) = (10 + 50 * j / band, 10 + 50 * (j + 1) / band);
            loop {
                let days = rng.range(lo, hi - 1) as usize;
                let bugs = rng.range(60, 300);
                // A decaying detection schedule: p_i = p0 · decay^i.
                let p0 = rng.uniform(0.02, 0.12);
                let decay = rng.uniform(0.95, 1.0);
                let probs = (0..days).map(|i| p0 * decay.powi(i as i32)).collect();
                let project = DetectionSimulator::new(bugs, probs).run(rng.next_u64());
                if (40..=200).contains(&project.data.total()) {
                    break project.data;
                }
            }
        })
        .collect();
    for j in (1..projects.len()).rev() {
        projects.swap(j, rng.range(0, j as u64) as usize);
    }
    for _ in PRIMARIES..FLEET {
        let source = rng.range(0, projects.len() as u64 - 1) as usize;
        let at = rng.range(source as u64 + 1, projects.len() as u64) as usize;
        projects.insert(at, projects[source].clone());
    }
    let duplicates = (0..projects.len())
        .filter(|&j| {
            projects[..j]
                .iter()
                .any(|d| d.counts() == projects[j].counts())
        })
        .count();
    let items = projects
        .into_iter()
        .enumerate()
        .map(|(j, d)| (format!("proj{j:02}"), d))
        .collect();
    (items, duplicates)
}

/// Master seed of the batches in fleet pass `pass`; every pass draws
/// a new one, as [`cell_seed`] does for the grid.
fn pass_master(seed: u64, pass: usize) -> u64 {
    InputRng::new(seed, 0x1_0000 + pass as u64).next_u64()
}

fn batch_spec(model: DetectionModel, master: u64, profiler: Option<Arc<Profiler>>) -> BatchSpec {
    BatchSpec {
        prior: priors()[0],
        model,
        config: fit_config(fleet_mcmc(master)),
        options: options(profiler),
    }
}

/// A batch succeeded when no item failed or degraded, every WAIC is
/// finite, and the in-batch cache coalesced exactly the duplicates.
fn check_batch(report: &BatchReport, duplicates: usize) -> Result<(), String> {
    if report.cache_hits != duplicates {
        return Err(format!(
            "{} items coalesced, {duplicates} duplicates generated",
            report.cache_hits
        ));
    }
    for item in &report.items {
        let fit = item
            .fit
            .as_ref()
            .ok_or_else(|| format!("{}: {:?}", item.label, item.error))?;
        if fit.is_degraded() || !fit.fit.waic.total().is_finite() {
            return Err(format!("{}: degraded or non-finite WAIC", item.label));
        }
    }
    Ok(())
}

/// Residual ESS summed over the items the batch actually sampled.
fn batch_ess(report: &BatchReport) -> f64 {
    report
        .items
        .iter()
        .filter(|i| !i.cached)
        .filter_map(|i| i.fit.as_ref().and_then(|f| residual_diag(&f.fit)))
        .map(|(ess, _)| ess)
        .sum()
}

pub fn batch_fleet(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Phase::new("setup");
    let mut window = Phase::new("window");
    let mut check = Phase::new("check");

    // Set-up: generate the first fleet and run one warm-up batch over
    // a fixed fleet, so every run sets up alike.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = std::time::Instant::now();
        std::hint::black_box(fleet(ctx.seed, 0));
        let (items, duplicates) = fleet(WARM_UP_SEED, 0);
        let warm = run_batch(
            &batch_spec(DetectionModel::Constant, WARM_UP_SEED, None),
            &items,
            "warm",
        );
        setup.record(
            warm.map_err(|e| e.to_string())
                .and_then(|r| check_batch(&r, duplicates)),
        );
        setups.push(t.elapsed().as_secs_f64());
    }

    // The item re-fitted alone after the window, and its curve.
    let mut pick = InputRng::new(ctx.seed, 202);
    let pick_model = DetectionModel::ALL[pick.range(0, 4) as usize];
    let pick_item = pick.range(0, FLEET as u64 - 1) as usize;
    let mut picked: Option<BatchReport> = None;

    let mut latencies = Vec::new();
    let mut untraced = Vec::new();
    let mut untraced_cpu = 0.0;
    let mut untraced_ess = 0.0;
    let mut untraced_pass =
        |pass: usize, window: &mut Phase, latencies: &mut Vec<f64>| -> (f64, f64) {
            let master = pass_master(ctx.seed, pass);
            let (items, duplicates) = fleet(ctx.seed, pass);
            let stamp = Stamp::now();
            for model in DetectionModel::ALL {
                let t = std::time::Instant::now();
                let result = run_batch(&batch_spec(model, master, None), &items, "fleet");
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
                    check_batch(&r, duplicates)?;
                    untraced_ess += batch_ess(&r);
                    if model == pick_model && picked.is_none() {
                        picked = Some(r);
                    }
                    Ok(())
                });
                window.record(outcome);
            }
            stamp.elapsed()
        };

    if ctx.trace {
        let mut traced = Vec::new();
        let mut round0: Option<Vec<ProfPhase>> = None;
        let mut all_phases = Vec::new();
        let mut pool = (0.0, 0.0);
        let mut ess_round0 = 0.0;
        let mut coalesced = 0.0;
        let mut per_curve = vec![(Vec::new(), 0u64); DetectionModel::ALL.len()];
        let started = std::time::Instant::now();
        while untraced.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
            let pass = untraced.len();
            let master = pass_master(ctx.seed, pass);
            let (items, duplicates) = fleet(ctx.seed, pass);
            let (wall, cpu) = untraced_pass(pass, &mut window, &mut Vec::new());
            untraced.push(wall);
            untraced_cpu += cpu;

            let t = std::time::Instant::now();
            let mut round = Vec::new();
            tracer.span("fleet.pass", 0, |pass| {
                for (c, model) in DetectionModel::ALL.into_iter().enumerate() {
                    tracer.span("batch", pass, |id| {
                        let columnar =
                            tracer.span("batch.layout", id, |_| ColumnarBatch::from_items(&items));
                        std::hint::black_box(columnar.len());
                        let spec = batch_spec(model, master, None);
                        let samplers: Vec<GibbsSampler> = primaries(&items)
                            .map(|data| {
                                tracer.span("gibbs.new", id, |_| {
                                    GibbsSampler::new(
                                        spec.prior,
                                        model,
                                        spec.config.zeta_bounds,
                                        data,
                                    )
                                })
                            })
                            .collect();
                        let profiler = Arc::new(Profiler::new());
                        let spec = batch_spec(model, master, Some(Arc::clone(&profiler)));
                        let stamp = Stamp::now();
                        let result =
                            tracer.span("batch.run", id, |_| run_batch(&spec, &items, "fleet"));
                        let (wall, cpu) = stamp.elapsed();
                        pool.0 += cpu;
                        pool.1 += wall * THREADS as f64;
                        per_curve[c].0.push(wall);
                        let phases = from_profiler(&profiler);
                        if round0.is_none() {
                            per_curve[c].1 = leaf_totals(&phases, "likelihood").count;
                        }
                        round.extend(phases);
                        let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
                            check_batch(&r, duplicates)?;
                            coalesced = r.cache_hits as f64 / r.items.len() as f64;
                            if round0.is_none() {
                                ess_round0 += batch_ess(&r);
                            }
                            let fits = r
                                .items
                                .iter()
                                .filter(|i| !i.cached)
                                .filter_map(|i| i.fit.as_ref());
                            for (sampler, fit) in samplers.iter().zip(fits) {
                                let output = &fit.fit.output;
                                tracer
                                    .span("waic.replay", id, |_| {
                                        waic_from_output_traced(sampler, output, &NOOP)
                                    })
                                    .map_err(|e| e.to_string())?;
                                tracer.span("diagnostics.report", id, |_| {
                                    for name in output.names() {
                                        if let Ok(per_chain) = output.per_chain(name) {
                                            std::hint::black_box(report(&per_chain));
                                        }
                                    }
                                });
                            }
                            Ok(())
                        });
                        window.record(outcome);
                    });
                }
            });
            traced.push(t.elapsed().as_secs_f64());
            if round0.is_none() {
                round0 = Some(round.clone());
            }
            all_phases.extend(round);
        }
        let rounds = traced.len() as f64;
        set_gibbs_metrics(
            &mut out,
            &round0.unwrap_or_default(),
            &all_phases,
            rounds,
            ess_round0,
        );
        for (c, model) in DetectionModel::ALL.into_iter().enumerate() {
            let name = cell_name(model, priors()[0]);
            out.set(&format!("fit.{name}.sample_s"), mean(&per_curve[c].0));
            out.set(
                &format!("fit.{name}.likelihood_evals"),
                per_curve[c].1 as f64,
            );
        }
        let news: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "gibbs.new")
            .map(|s| s.secs() * 1e3)
            .collect();
        out.set("gibbs.new_ms", mean(&news));
        out.set("runner.sample_s", tracer.total_secs("batch.run") / rounds);
        out.set("runner.cpu_util", pool.0 / pool.1);
        out.set("batch.pool_util", pool.0 / pool.1);
        out.set("runner.ess_per_cpu_s", untraced_ess / untraced_cpu);
        out.set("waic.replay_s", tracer.total_secs("waic.replay") / rounds);
        out.set(
            "diagnostics.report_s",
            tracer.total_secs("diagnostics.report") / rounds,
        );
        out.set(
            "batch.layout_ms",
            tracer.total_secs("batch.layout") * 1e3 / (rounds * 5.0),
        );
        out.set("batch.coalesced_share", coalesced);
        // The traced pass also re-runs WAIC and diagnostics to time
        // them, so its overhead is that of the traced batch calls.
        out.set(
            "trace.overhead_ratio",
            tracer.total_secs("batch.run") / rounds / mean(&untraced),
        );
        out.samples.insert("traced_rounds".into(), traced.len());
        out.samples.insert("untraced_rounds".into(), untraced.len());
    } else {
        // A slice is one fleet pass.
        let (mut rates, mut cpu) = (Vec::new(), 0.0);
        let started = std::time::Instant::now();
        while started.elapsed().as_secs_f64() < ctx.seconds {
            let (wall_s, cpu_s) = untraced_pass(rates.len(), &mut window, &mut latencies);
            rates.push(DetectionModel::ALL.len() as f64 / wall_s);
            cpu += cpu_s;
        }
        out.set_end_to_end(&setups, &latencies, &rates, cpu);
    }

    // Outside the window: the picked item, fitted alone at its derived
    // seed, must be bit-identical to its batch result.
    check.record(refit_matches(
        picked.as_ref(),
        pick_item,
        pick_model,
        &fleet(ctx.seed, 0).0,
    ));
    out.phases = vec![setup, window, check];
    out
}

/// The distinct datasets of a fleet, in first-occurrence order: the
/// items a batch samples.
fn primaries(items: &[(String, BugCountData)]) -> impl Iterator<Item = &BugCountData> {
    items
        .iter()
        .enumerate()
        .filter(move |(j, (_, d))| !items[..*j].iter().any(|(_, e)| e.counts() == d.counts()))
        .map(|(_, (_, d))| d)
}

fn refit_matches(
    batch: Option<&BatchReport>,
    index: usize,
    model: DetectionModel,
    items: &[(String, BugCountData)],
) -> Result<(), String> {
    let item = batch
        .and_then(|b| b.items.get(index))
        .ok_or("no batch result for the picked item")?;
    let batched = item.fit.as_ref().ok_or("picked item has no fit")?;
    let mcmc = fleet_mcmc(item.seed);
    let alone = Fit::try_run(
        priors()[0],
        model,
        &items[index].1,
        &fit_config(mcmc),
        &options(None),
    )
    .map_err(|e| e.to_string())?;
    let same_draws = alone
        .fit
        .residual_draws
        .iter()
        .map(|x| x.to_bits())
        .eq(batched.fit.residual_draws.iter().map(|x| x.to_bits()));
    if same_draws && alone.fit.waic.total().to_bits() == batched.fit.waic.total().to_bits() {
        Ok(())
    } else {
        Err(format!(
            "item {index} ({}) re-fitted alone differs from its batch result",
            item.label
        ))
    }
}

/// Prints [`GRID_REFERENCE`]: each cell fitted at the grid's own run
/// length from [`REFERENCE_RUNS`] independent seeds, in the form
/// `src/reference.rs` stores it.
pub fn print_reference() {
    let data = srm_data::datasets::musa_cc96();
    for (i, (model, prior)) in cells().into_iter().enumerate() {
        let means: Vec<f64> = (0..REFERENCE_RUNS)
            .map(|r| {
                let mcmc = grid_mcmc(InputRng::new(0x5EED_0000 + r as u64, i as u64).next_u64());
                Fit::try_run(prior, model, &data, &fit_config(mcmc), &options(None))
                    .expect("reference fit")
                    .fit
                    .residual
                    .mean
            })
            .collect();
        let m = mean(&means);
        let var = means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (means.len() - 1) as f64;
        println!(
            "    (\"{}\", {m:?}, {:?}),",
            cell_name(model, prior),
            var.sqrt()
        );
    }
}
