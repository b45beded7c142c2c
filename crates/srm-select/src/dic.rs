//! Deviance information criterion (secondary check alongside WAIC).
//!
//! `DIC = D(θ̂) + 2 p_D` with `D(θ) = −2 ln L(θ)` and
//! `p_D = D̄ − D(θ̂)`. The classic plug-in `θ̄` (posterior means) is
//! pathological here: the `(N, ζ)` posterior is ridge-shaped, so the
//! vector of marginal means can sit *off* the ridge and make `p_D`
//! negative. We therefore plug in the highest-likelihood draw in the
//! sample (a posterior-mode estimate), which keeps `p_D ≥ 0` by
//! construction.

use srm_mcmc::runner::McmcOutput;
use srm_model::{DetectionModel, GroupedLikelihood};

/// The finalised DIC decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dic {
    /// Plug-in deviance `D(θ̂)` at the highest-likelihood draw.
    pub deviance_at_plugin: f64,
    /// Posterior mean deviance `D̄`.
    pub mean_deviance: f64,
    /// Effective number of parameters `p_D = D̄ − D(θ̂) ≥ 0`.
    pub p_d: f64,
}

impl Dic {
    /// The criterion value `D(θ̂) + 2 p_D = 2 D̄ − D(θ̂)`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.deviance_at_plugin + 2.0 * self.p_d
    }
}

/// Computes DIC from a finished multi-chain run.
///
/// # Panics
///
/// Panics if the output lacks the `n` column or the `ζ` columns for
/// `model`.
#[must_use]
pub fn dic_from_output(
    output: &McmcOutput,
    model: DetectionModel,
    data: &srm_data::BugCountData,
) -> Dic {
    let lik = GroupedLikelihood::new(data);
    let horizon = data.len();

    let n_draws = output.pooled("n");
    assert!(!n_draws.is_empty(), "output has no `n` draws");
    let zeta_names = model.param_names();
    let zeta_draws: Vec<Vec<f64>> = zeta_names
        .iter()
        .map(|name| {
            let d = output.pooled(name);
            assert!(!d.is_empty(), "output missing parameter `{name}`");
            d
        })
        .collect();

    // One pass: accumulate the mean deviance and track the
    // highest-likelihood draw as the plug-in point.
    let mut total = 0.0;
    let mut best = f64::INFINITY;
    let draws = n_draws.len();
    let mut zeta = vec![0.0; zeta_names.len()];
    for idx in 0..draws {
        for (slot, column) in zeta.iter_mut().zip(&zeta_draws) {
            *slot = column[idx];
        }
        let probs = match model.probs(&zeta, horizon) {
            Ok(p) => p,
            Err(e) => panic!("DIC replay hit an out-of-domain draw: {e:?}"),
        };
        let deviance = -2.0 * lik.ln_likelihood(n_draws[idx] as u64, &probs);
        total += deviance;
        best = best.min(deviance);
    }
    let mean_deviance = total / draws as f64;

    Dic {
        deviance_at_plugin: best,
        mean_deviance,
        p_d: mean_deviance - best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;
    use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
    use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
    use srm_model::ZetaBounds;
    use srm_obs::NOOP;

    fn run(model: DetectionModel, seed: u64) -> (McmcOutput, srm_data::BugCountData) {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            model,
            ZetaBounds::default(),
            &data,
        );
        let run = run_chains_fault_tolerant_traced(
            &sampler,
            &McmcConfig::smoke(seed),
            &RunOptions::none(),
            &NOOP,
        )
        .unwrap();
        (run.output, data)
    }

    #[test]
    fn dic_components_are_coherent() {
        let (output, data) = run(DetectionModel::Constant, 31);
        let dic = dic_from_output(&output, DetectionModel::Constant, &data);
        assert!(dic.deviance_at_plugin.is_finite());
        assert!(dic.mean_deviance >= dic.deviance_at_plugin, "{dic:?}");
        assert!(dic.p_d >= 0.0, "p_D = {}", dic.p_d);
        assert!((dic.value() - (2.0 * dic.mean_deviance - dic.deviance_at_plugin)).abs() < 1e-9);
    }

    #[test]
    fn dic_prefers_model1_over_model3() {
        let (out1, data) = run(DetectionModel::PadgettSpurrier, 32);
        let dic1 = dic_from_output(&out1, DetectionModel::PadgettSpurrier, &data);
        let (out3, data3) = run(DetectionModel::Pareto, 33);
        let dic3 = dic_from_output(&out3, DetectionModel::Pareto, &data3);
        assert!(
            dic1.value() < dic3.value(),
            "model1 {} vs model3 {}",
            dic1.value(),
            dic3.value()
        );
    }
}
