//! Synthetic recovery: simulate the exact detection process with a
//! known initial bug content, then check that the Bayesian posterior
//! recovers it. This validates the whole pipeline end-to-end on data
//! where the ground truth is known by construction.
//!
//! ```text
//! cargo run --release --example synthetic_recovery
//! ```

#![allow(clippy::expect_used)] // example code

use srm::prelude::*;

fn main() {
    let true_n = 250u64;
    let horizon = 60;
    let p = 0.05;
    println!("Simulating: N = {true_n}, {horizon} days, constant p = {p}\n");

    let sim = DetectionSimulator::new(true_n, vec![p; horizon]);
    let mcmc = McmcConfig {
        chains: 2,
        burn_in: 500,
        samples: 2_000,
        thin: 1,
        seed: 13,
    };

    let mut covered = 0usize;
    let replications = 10;
    for rep in 0..replications {
        let project = sim.run(1_000 + rep);
        let fit = srm::core::Fit::try_run(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            &project.data,
            &srm::core::FitConfig {
                mcmc: McmcConfig {
                    seed: mcmc.seed + rep,
                    ..mcmc
                },
                ..srm::core::FitConfig::default()
            },
            &RunOptions::none(),
        )
        .expect("at least one chain survives")
        .fit;
        // Posterior over N = detected + residual.
        let n_draws: Vec<f64> = fit
            .residual_draws
            .iter()
            .map(|r| r + project.data.total() as f64)
            .collect();
        let (lo, hi) = PosteriorSummary::credible_interval(&n_draws, 0.05);
        let hit = (lo..=hi).contains(&(true_n as f64));
        covered += usize::from(hit);
        println!(
            "rep {rep}: detected {:3}, residual truth {:3}, N 95% CI [{lo:6.1}, {hi:6.1}] {}",
            project.data.total(),
            project.true_residual,
            if hit { "covers" } else { "MISSES" }
        );
    }
    println!("\ncoverage: {covered}/{replications} 95% intervals contain the true N");
}
