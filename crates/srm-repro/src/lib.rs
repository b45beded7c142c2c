//! Shared machinery for the table/figure regeneration binaries.
//!
//! Every binary regenerates one artefact of the paper's evaluation
//! (see DESIGN.md's per-experiment index). They share one experiment
//! run: 2 priors × 5 detection models × 9 observation points on the
//! primary dataset.
//!
//! Environment knobs:
//!
//! * `SRM_REPRO_FAST=1` — short MCMC runs (smoke scale) for quick
//!   regeneration;
//! * `SRM_REPRO_SEED=<u64>` — override the base seed (default 2024).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use srm_core::{Experiment, ExperimentCell, ExperimentConfig, ExperimentResults, Fit, FitConfig};
use srm_data::{datasets, BugCountData};
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, McmcOutput, RunOptions};
use srm_model::DetectionModel;
use srm_obs::NOOP;
use srm_report::boxplot::{render_boxes, BoxStats};
use srm_report::Table;

/// Statistic selector for Tables II–V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// Table II: posterior means.
    Mean,
    /// Table III: posterior medians.
    Median,
    /// Table IV: posterior modes.
    Mode,
    /// Table V: posterior standard deviations.
    Sd,
}

impl Statistic {
    /// The paper's table caption fragment.
    #[must_use]
    pub fn caption(&self) -> &'static str {
        match self {
            Self::Mean => "mean values",
            Self::Median => "medians",
            Self::Mode => "modes",
            Self::Sd => "standard deviations",
        }
    }

    /// Whether the paper prints a deviation column for this
    /// statistic (Tables II–IV do; Table V does not).
    #[must_use]
    pub fn with_deviation(&self) -> bool {
        !matches!(self, Self::Sd)
    }
}

/// Reads the reproduction seed from `SRM_REPRO_SEED` (default 2024).
#[must_use]
pub fn seed() -> u64 {
    std::env::var("SRM_REPRO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024)
}

/// Whether fast (smoke-scale) runs were requested.
#[must_use]
pub fn fast_mode() -> bool {
    std::env::var("SRM_REPRO_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The MCMC scale for the current mode.
#[must_use]
pub fn mcmc_config() -> McmcConfig {
    if fast_mode() {
        McmcConfig {
            chains: 2,
            burn_in: 300,
            samples: 600,
            thin: 1,
            seed: seed(),
        }
    } else {
        McmcConfig {
            chains: 4,
            burn_in: 1_000,
            samples: 4_000,
            thin: 1,
            seed: seed(),
        }
    }
}

/// The primary dataset (Fig. 1).
#[must_use]
pub fn dataset() -> BugCountData {
    datasets::musa_cc96()
}

/// Runs the full paper experiment: 2 priors × 5 models × 9 points.
///
/// # Panics
///
/// Panics when any cell fails: every table needs the full design.
#[must_use]
pub fn run_paper_experiment() -> ExperimentResults {
    let config = ExperimentConfig::paper_design(mcmc_config());
    let results = match Experiment::new(dataset(), config).try_run(&RunOptions::none(), &NOOP) {
        Ok(results) => results,
        Err(e) => panic!("experiment configuration rejected: {e}"),
    };
    if let Some(failure) = results.failures().first() {
        panic!(
            "cell ({}, {:?}, day {}) failed: {}",
            failure.key.prior.label(),
            failure.key.model,
            failure.key.observation.day(),
            failure.error
        );
    }
    results
}

/// The chains of one run with no retry; every table needs every
/// chain.
///
/// # Panics
///
/// Panics when a chain is lost.
#[must_use]
pub fn draws(sampler: &GibbsSampler, mcmc: &McmcConfig) -> McmcOutput {
    match run_chains_fault_tolerant_traced(sampler, mcmc, &RunOptions::none(), &NOOP) {
        Ok(run) if !run.is_degraded() => run.output,
        Ok(run) => panic!("chains {:?} lost", run.failed_chains()),
        Err(e) => panic!("{e}"),
    }
}

/// One fit with default detection-parameter bounds and no retry.
///
/// # Panics
///
/// Panics when a chain is lost.
#[must_use]
pub fn fit(prior: PriorSpec, model: DetectionModel, data: &BugCountData, mcmc: McmcConfig) -> Fit {
    let config = FitConfig {
        mcmc,
        ..FitConfig::default()
    };
    match Fit::try_run(prior, model, data, &config, &RunOptions::none()) {
        Ok(run) if !run.is_degraded() => run.fit,
        Ok(run) => panic!("a chain was lost: {:?}", run.chain_reports),
        Err(e) => panic!("{e}"),
    }
}

/// Column headers in paper order.
#[must_use]
pub fn model_columns() -> Vec<&'static str> {
    DetectionModel::ALL.iter().map(|m| m.name()).collect()
}

/// Looks up a cell that the full paper design must have produced;
/// rendering a degraded run that dropped cells is a caller error.
fn full_design_cell<'a>(
    results: &'a ExperimentResults,
    prior_label: &str,
    model: DetectionModel,
    day: usize,
) -> &'a ExperimentCell {
    match results.get(prior_label, model, day) {
        Some(cell) => cell,
        None => panic!("missing cell ({prior_label}, {model:?}, day {day}): rendering requires the full design"),
    }
}

/// Renders Table I (WAIC comparison) for one prior family.
#[must_use]
pub fn render_table1(results: &ExperimentResults, prior_label: &str) -> Table {
    let title = format!(
        "TABLE I ({}): Comparison of WAIC — {} prior",
        if prior_label == "poisson" { "i" } else { "ii" },
        prior_label
    );
    let mut table = Table::new(&title, &model_columns());
    for day in results.days() {
        let values: Vec<f64> = DetectionModel::ALL
            .iter()
            .map(|&m| {
                full_design_cell(results, prior_label, m, day)
                    .fit
                    .waic
                    .total()
            })
            .collect();
        table.row(&format!("{day}days"), &values);
    }
    table
}

/// Renders one of Tables II–V for one prior family.
#[must_use]
pub fn render_stat_table(results: &ExperimentResults, prior_label: &str, stat: Statistic) -> Table {
    let title = format!(
        "Comparison of {} of the posterior distributions — {} prior",
        stat.caption(),
        prior_label
    );
    let mut table = Table::new(&title, &model_columns());
    for day in results.days() {
        let mut plain = Vec::new();
        let mut with_dev = Vec::new();
        for &m in &DetectionModel::ALL {
            let cell = full_design_cell(results, prior_label, m, day);
            let value = match stat {
                Statistic::Mean => cell.fit.residual.mean,
                Statistic::Median => cell.fit.residual.median,
                Statistic::Mode => cell.fit.residual.mode,
                Statistic::Sd => cell.fit.residual.sd,
            };
            plain.push(value);
            with_dev.push((value, value - cell.true_residual as f64));
        }
        let label = format!("{day}days");
        if stat.with_deviation() {
            table.row_with_deviation(&label, &with_dev);
        } else {
            table.row(&label, &plain);
        }
    }
    table
}

/// Renders the Fig. 2 / Fig. 3 box plots for one prior family: one
/// group of five model boxes per observation point.
#[must_use]
pub fn render_boxplot_figure(results: &ExperimentResults, prior_label: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Box plots of posterior distributions of the residual bug count — {prior_label} prior\n\n",
    ));
    for day in results.days() {
        out.push_str(&format!("--- {day}days ---\n"));
        let boxes: Vec<(&str, BoxStats)> = DetectionModel::ALL
            .iter()
            .map(|&m| {
                let cell = full_design_cell(results, prior_label, m, day);
                (m.name(), BoxStats::from_draws(&cell.fit.residual_draws))
            })
            .collect();
        out.push_str(&render_boxes(&boxes, 84));
        out.push('\n');
    }
    out
}

/// Renders Fig. 1: the dataset (daily bars + cumulative line).
#[must_use]
pub fn render_fig1() -> String {
    let data = dataset();
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 1 dataset: {} bugs over {} testing days\n\n",
        data.total(),
        data.len()
    ));
    out.push_str("Daily detected bugs:\n");
    out.push_str(&srm_report::ascii::bar_chart(data.counts(), 8));
    out.push('\n');
    out.push_str("Cumulative detected bugs:\n");
    let cumulative: Vec<f64> = data.cumulative().iter().map(|&c| c as f64).collect();
    out.push_str(&srm_report::ascii::line_chart(&cumulative, 12));
    out.push('\n');
    out.push_str(&format!(
        "sparkline: {}\n",
        srm_report::ascii::sparkline(&cumulative)
    ));
    out
}

/// Prints the convergence-diagnostics summary appendix used by every
/// table binary (PSRF / Geweke pass rates).
#[must_use]
pub fn render_convergence_summary(results: &ExperimentResults) -> String {
    let mut total = 0usize;
    let mut passed = 0usize;
    let mut worst_psrf: f64 = 0.0;
    for cell in results.cells() {
        for (_, d) in &cell.fit.diagnostics {
            total += 1;
            if d.converged() {
                passed += 1;
            }
            if d.psrf.is_finite() {
                worst_psrf = worst_psrf.max(d.psrf);
            }
        }
    }
    format!(
        "convergence: {passed}/{total} parameter checks passed (PSRF < 1.1 & |Z| < 1.96); worst PSRF = {worst_psrf:.3}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_contains_dataset_shape() {
        let fig = render_fig1();
        assert!(fig.contains("136 bugs over 96 testing days"));
        assert!(fig.contains('#'));
        assert!(fig.contains('*'));
    }

    #[test]
    fn statistic_metadata() {
        assert!(Statistic::Mean.with_deviation());
        assert!(!Statistic::Sd.with_deviation());
        assert_eq!(Statistic::Mode.caption(), "modes");
    }

    #[test]
    fn seed_defaults_and_fast_mode_flag() {
        // Defaults in a clean environment (tests do not set the vars).
        if std::env::var("SRM_REPRO_SEED").is_err() {
            assert_eq!(seed(), 2024);
        }
        let cfg = mcmc_config();
        assert!(cfg.samples >= 600);
    }
}
