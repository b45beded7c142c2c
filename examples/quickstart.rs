//! Quickstart: fit one Bayesian SRM and read off the posterior of the
//! residual number of software bugs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use srm::prelude::*;

fn main() {
    // The paper's dataset: 136 bugs over 96 testing days (synthetic
    // stand-in with the paper's invariants; see DESIGN.md).
    let data = datasets::musa_cc96();
    println!("{data}");

    // Observe the first 48 days (the 50% observation point).
    let window = data.truncated(48).expect("48 <= 96");
    let truth = ObservationPoint::new(48).true_residual(&data);

    // Fit model1 (Padgett–Spurrier) with the Poisson prior — the
    // combination the paper ends up recommending.
    let config = srm::core::FitConfig {
        mcmc: McmcConfig {
            chains: 4,
            burn_in: 500,
            samples: 2_000,
            thin: 1,
            seed: 42,
        },
        ..srm::core::FitConfig::default()
    };
    let fit = srm::core::Fit::try_run(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::PadgettSpurrier,
        &window,
        &config,
        &RunOptions::none(),
    )
    .expect("at least one chain survives")
    .fit;

    println!("\nPosterior of the residual bug count after day 48:");
    println!(
        "  mean   : {:8.2}   (true residual: {truth})",
        fit.residual.mean
    );
    println!("  median : {:8.2}", fit.residual.median);
    println!("  mode   : {:8.2}", fit.residual.mode);
    println!("  sd     : {:8.2}", fit.residual.sd);
    let (lo, hi) = PosteriorSummary::credible_interval(&fit.residual_draws, 0.05);
    println!("  95% CI : [{lo:.0}, {hi:.0}]");
    println!("  WAIC   : {:8.3}", fit.waic.total());
    println!(
        "  converged: {} ({} parameters checked)",
        fit.converged(),
        fit.diagnostics.len()
    );
}
