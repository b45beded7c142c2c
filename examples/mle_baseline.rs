//! MLE baseline: the classical (non-Bayesian) discrete NHPP fits with
//! AIC/BIC, next to the Bayesian WAIC ranking — reproducing the
//! paper's motivation for WAIC (AIC/BIC need a maximum-likelihood
//! estimate, which the hierarchical Bayesian model does not have).
//!
//! ```text
//! cargo run --release --example mle_baseline
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use srm::model::mle::fit_nhpp;
use srm::prelude::*;
use srm::report::Table;

fn main() {
    let data = datasets::musa_cc96();
    let mcmc = McmcConfig {
        chains: 2,
        burn_in: 500,
        samples: 1_500,
        thin: 1,
        seed: 19,
    };

    let mut table = Table::new(
        "MLE baseline vs Bayesian fit (full 96-day data)",
        &["lambda0_hat", "logLik", "AIC", "BIC", "WAIC(poisson)"],
    );
    for model in DetectionModel::ALL {
        let mle = fit_nhpp(&data, model, &ZetaBounds::default()).expect("fit succeeds");
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            model,
            ZetaBounds::default(),
            &data,
        );
        let run = run_chains_fault_tolerant_traced(&sampler, &mcmc, &RunOptions::none(), &NOOP)
            .expect("at least one chain survives");
        let waic =
            waic_from_output_traced(&sampler, &run.output, &NOOP).expect("stored draws replay");
        table.row(
            model.name(),
            &[
                mle.lambda0,
                mle.log_likelihood,
                mle.aic,
                mle.bic,
                waic.total(),
            ],
        );
    }
    println!("{}", table.render());
    println!("The MLE of the homogeneous/Pareto/Weibull models drifts to the");
    println!("identifiability ridge (λ̂0 → huge); the Bayesian hierarchy bounds it");
    println!("through the uniform hyper-prior, and WAIC ranks models 1–2 on top,");
    println!("mirroring the AIC ranking where the MLE exists.");
}
