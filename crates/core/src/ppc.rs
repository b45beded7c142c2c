//! Posterior predictive checks.
//!
//! For each posterior draw `(N, ζ)`, simulate a replicated dataset
//! from the exact detection process and compare summary statistics of
//! the replicates with the observed data. Posterior predictive
//! p-values near 0 or 1 flag aspects of the data the model cannot
//! reproduce — the model-criticism step the paper's pipeline leaves
//! implicit.

use crate::fit::Fit;
use srm_data::{analysis, BugCountData, DetectionSimulator};

/// One checked statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct PpcResult {
    /// Statistic name.
    pub name: &'static str,
    /// Value on the observed data.
    pub observed: f64,
    /// Values on the posterior predictive replicates.
    pub replicated: Vec<f64>,
    /// Posterior predictive p-value `P(T_rep >= T_obs)` (ties split).
    pub p_value: f64,
}

impl PpcResult {
    /// Whether the statistic is flagged at the two-sided 5 % level.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.p_value < 0.025 || self.p_value > 0.975
    }
}

/// The statistics checked by [`posterior_predictive_check`].
fn statistics(data: &BugCountData) -> Vec<(&'static str, f64)> {
    let summary = analysis::summarize(data);
    let trend = analysis::laplace_trend(data).map_or(0.0, |t| t.statistic);
    let half = data.detected_by(data.len() / 2) as f64 / data.total().max(1) as f64;
    vec![
        ("total_bugs", data.total() as f64),
        ("max_daily", data.max_daily() as f64),
        ("zero_fraction", summary.zero_fraction),
        ("dispersion", summary.dispersion),
        ("laplace_trend", trend),
        ("first_half_share", half),
    ]
}

/// Runs a posterior predictive check with `n_rep` replicates drawn
/// from the fit's posterior (one `(N, ζ)` draw per replicate, evenly
/// strided through the pooled chains).
///
/// # Panics
///
/// Panics if the fit's output lacks the `n` column or the `ζ` columns
/// of its model, or if `n_rep == 0`.
#[must_use]
pub fn posterior_predictive_check(
    fit: &Fit,
    data: &BugCountData,
    n_rep: usize,
    seed: u64,
) -> Vec<PpcResult> {
    assert!(n_rep > 0, "need at least one replicate");
    let n_draws = fit.output.pooled("n");
    assert!(!n_draws.is_empty(), "fit output missing `n`");
    let zeta_columns: Vec<Vec<f64>> = fit
        .model
        .param_names()
        .iter()
        .map(|name| {
            let d = fit.output.pooled(name);
            assert!(!d.is_empty(), "fit output missing `{name}`");
            d
        })
        .collect();

    let observed = statistics(data);
    let mut replicated: Vec<Vec<f64>> = vec![Vec::with_capacity(n_rep); observed.len()];

    let stride = (n_draws.len() / n_rep).max(1);
    let mut zeta = vec![0.0; zeta_columns.len()];
    for rep in 0..n_rep {
        let idx = (rep * stride) % n_draws.len();
        for (slot, col) in zeta.iter_mut().zip(&zeta_columns) {
            *slot = col[idx];
        }
        let n0 = n_draws[idx].round().max(0.0) as u64;
        // Stored draws come from the sampler, which never records an
        // out-of-domain zeta.
        let probs = fit
            .model
            .probs(&zeta, data.len())
            .unwrap_or_else(|_| unreachable!());
        let project = DetectionSimulator::new(n0, probs).run(seed.wrapping_add(rep as u64));
        for (bucket, (_, value)) in replicated.iter_mut().zip(statistics(&project.data)) {
            bucket.push(value);
        }
    }

    observed
        .into_iter()
        .zip(replicated)
        .map(|((name, obs), reps)| {
            let above = reps.iter().filter(|&&t| t > obs).count() as f64;
            let ties = reps.iter().filter(|&&t| t == obs).count() as f64;
            let p_value = (above + 0.5 * ties) / reps.len() as f64;
            PpcResult {
                name,
                observed: obs,
                replicated: reps,
                p_value,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::FitConfig;
    use srm_mcmc::gibbs::PriorSpec;
    use srm_mcmc::runner::{McmcConfig, RunOptions};
    use srm_model::DetectionModel;

    fn fit_on(data: &BugCountData, model: DetectionModel, seed: u64) -> Fit {
        Fit::try_run(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            model,
            data,
            &FitConfig {
                mcmc: McmcConfig {
                    chains: 2,
                    burn_in: 400,
                    samples: 1_200,
                    thin: 1,
                    seed,
                },
                ..FitConfig::default()
            },
            &RunOptions::none(),
        )
        .unwrap()
        .fit
    }

    #[test]
    fn well_specified_model_is_not_flagged_on_total() {
        // Data generated BY the constant model, checked BY the
        // constant model: the calibration statistic must be tame.
        let project = srm_data::DetectionSimulator::new(250, vec![0.04; 50]).run(81);
        let fit = fit_on(&project.data, DetectionModel::Constant, 82);
        let results = posterior_predictive_check(&fit, &project.data, 200, 83);
        let total = results.iter().find(|r| r.name == "total_bugs").unwrap();
        assert!(
            !total.flagged(),
            "total_bugs flagged: p = {}",
            total.p_value
        );
        let trend = results.iter().find(|r| r.name == "laplace_trend").unwrap();
        assert!(
            trend.p_value > 0.005 && trend.p_value < 0.995,
            "trend p = {}",
            trend.p_value
        );
    }

    #[test]
    fn replicate_count_and_pvalue_range() {
        let project = srm_data::DetectionSimulator::new(150, vec![0.05; 30]).run(84);
        let fit = fit_on(&project.data, DetectionModel::Constant, 85);
        let results = posterior_predictive_check(&fit, &project.data, 50, 86);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert_eq!(r.replicated.len(), 50);
            assert!(
                (0.0..=1.0).contains(&r.p_value),
                "{}: {}",
                r.name,
                r.p_value
            );
        }
    }

    #[test]
    fn misspecified_model_flags_trend() {
        // Strongly front-loaded data checked against model3 (whose
        // hazard decays fast but whose fitted μ will compromise):
        // the Laplace trend of replicates should not systematically
        // match the observed back-loaded musa trend under model0.
        let data = srm_data::datasets::late_surge_50();
        let fit = fit_on(&data, DetectionModel::Constant, 87);
        let results = posterior_predictive_check(&fit, &data, 200, 88);
        let trend = results.iter().find(|r| r.name == "laplace_trend").unwrap();
        // Observed trend is strongly positive (late surge); a
        // constant-p model replicates roughly trendless data.
        assert!(trend.p_value < 0.05, "trend p = {}", trend.p_value);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_panic() {
        let project = srm_data::DetectionSimulator::new(50, vec![0.1; 10]).run(89);
        let fit = fit_on(&project.data, DetectionModel::Constant, 90);
        let _ = posterior_predictive_check(&fit, &project.data, 0, 91);
    }
}
