//! Convergence report: run the Gibbs sampler with four chains and
//! print the full Gelman–Rubin / Geweke / ESS table, plus the
//! analytic-vs-sampled cross-check of Proposition 1.
//!
//! ```text
//! cargo run --release --example convergence_report
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use srm::mcmc::diagnostics::{autocorrelation, report, split_rhat_rank_normalized};
use srm::prelude::*;
use srm::report::ascii::trace_plot;
use srm::report::Table;

fn main() {
    let data = datasets::musa_cc96().truncated(48).expect("valid day");
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::PadgettSpurrier,
        ZetaBounds::default(),
        &data,
    );
    let config = McmcConfig {
        chains: 4,
        burn_in: 1_000,
        samples: 4_000,
        thin: 1,
        seed: 17,
    };
    let output = run_chains_fault_tolerant_traced(&sampler, &config, &RunOptions::none(), &NOOP)
        .expect("at least one chain survives")
        .output;

    let mut table = Table::new(
        "Convergence diagnostics — model1, Poisson prior, 48 days",
        &["PSRF", "Geweke Z", "ESS", "MCSE"],
    );
    for name in output.names().to_vec() {
        let d = report(&output.per_chain(&name).expect("shared parameter set"));
        table.row(&name, &[d.psrf, d.geweke_z, d.ess, d.mcse]);
    }
    println!("{}", table.render());
    println!("pass criteria: PSRF < 1.1 and |Z| < 1.96 (the paper's thresholds)\n");

    // Modern companion diagnostic + visual check on the key quantity.
    let residual_chains = output.per_chain("residual").expect("shared parameter set");
    println!(
        "rank-normalised split-Rhat (residual): {:.4}",
        split_rhat_rank_normalized(&residual_chains)
    );
    let acf = autocorrelation(residual_chains[0], 5);
    println!(
        "residual ACF (chain 0, lags 1-5): {}",
        acf[1..]
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("\nTrace of the residual count (chain 0):");
    print!("{}", trace_plot(residual_chains[0], 72, 10));
    println!();

    // Cross-check Proposition 1: conditional on each draw's (λ0, ζ),
    // the residual is exactly Poisson(λ0 Π q_i); the mixture over
    // draws must match the sampled residual mean.
    let residual = output.pooled("residual");
    let lambda0 = output.pooled("lambda0");
    let mu = output.pooled("mu");
    let theta = output.pooled("theta");
    let mut mixture_mean = 0.0;
    for i in 0..lambda0.len() {
        let probs = DetectionModel::PadgettSpurrier
            .probs(&[mu[i], theta[i]], data.len())
            .expect("sampled parameters valid");
        let survival: f64 = probs.iter().map(|p| (1.0 - p).ln()).sum();
        mixture_mean += lambda0[i] * survival.exp();
    }
    mixture_mean /= lambda0.len() as f64;
    let sampled_mean = residual.iter().sum::<f64>() / residual.len() as f64;
    println!("Proposition 1 cross-check:");
    println!("  E[residual] from sampled counts      : {sampled_mean:.3}");
    println!("  E[residual] from Poisson(λ0 Π q_i)   : {mixture_mean:.3}");
}
