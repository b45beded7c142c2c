//! Synthetic-recovery: the pipeline must recover a known initial bug
//! content from data generated by the exact model.
//!
//! The all-cells sweep at the bottom shares the SBC crate's
//! prior-predictive generator ([`srm::sbc::generative`]), so recovery
//! testing and the calibration battery exercise one and the same
//! data-generating path.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::core::{Fit, FitConfig};
use srm::mcmc::PosteriorSummary;
use srm::prelude::*;
use srm::sbc::{draw_rep, rep_stream, GridSpec};

fn fit_project(project: &srm::data::SimulatedProject, seed: u64) -> Fit {
    Fit::try_run(
        PriorSpec::Poisson {
            lambda_max: 3_000.0,
        },
        DetectionModel::Constant,
        &project.data,
        &FitConfig {
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 500,
                samples: 2_000,
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
fn posterior_recovers_known_initial_content() {
    let true_n = 300u64;
    let sim = DetectionSimulator::new(true_n, vec![0.06; 50]);
    let project = sim.run(7_001);
    let fit = fit_project(&project, 7_002);
    let n_mean = fit.residual.mean + project.data.total() as f64;
    assert!(
        (n_mean - true_n as f64).abs() < 0.25 * true_n as f64,
        "posterior N mean {n_mean} far from truth {true_n}"
    );
}

#[test]
fn credible_intervals_cover_truth_most_of_the_time() {
    let true_n = 250u64;
    let sim = DetectionSimulator::new(true_n, vec![0.05; 60]);
    let replications = 8;
    let mut covered = 0;
    for rep in 0..replications {
        let project = sim.run(9_000 + rep);
        let fit = fit_project(&project, 9_100 + rep);
        let n_draws: Vec<f64> = fit
            .residual_draws
            .iter()
            .map(|r| r + project.data.total() as f64)
            .collect();
        let (lo, hi) = PosteriorSummary::credible_interval(&n_draws, 0.05);
        if (lo..=hi).contains(&(true_n as f64)) {
            covered += 1;
        }
    }
    // Nominal coverage is 95%; demand at least 6/8 to keep the test
    // robust to Monte-Carlo noise.
    assert!(covered >= 6, "coverage {covered}/{replications}");
}

#[test]
fn residual_posterior_tracks_true_residual() {
    // Stop testing early so a sizeable residual remains, and check
    // the posterior locates it.
    let true_n = 400u64;
    let sim = DetectionSimulator::new(true_n, vec![0.08; 25]);
    let project = sim.run(11_000);
    assert!(project.true_residual > 20, "setup: residual too small");
    let fit = fit_project(&project, 11_001);
    let ratio = fit.residual.mean / project.true_residual as f64;
    assert!(
        (0.4..2.5).contains(&ratio),
        "posterior residual mean {} vs truth {}",
        fit.residual.mean,
        project.true_residual
    );
}

#[test]
fn heterogeneous_generator_fits_heterogeneous_model() {
    // Generate with the Padgett–Spurrier schedule and fit the same
    // family: the posterior must concentrate near zero residual once
    // detection probability has risen toward 1.
    let zeta = [0.9, 0.15];
    let probs: Vec<f64> = (1..=40u64)
        .map(|i| DetectionModel::PadgettSpurrier.prob(&zeta, i).unwrap())
        .collect();
    let sim = DetectionSimulator::new(150, probs);
    let project = sim.run(12_000);
    // With p_i rising past 0.8, nearly every bug is found by day 40.
    assert!(
        project.true_residual < 5,
        "residual {}",
        project.true_residual
    );
    let fit = Fit::try_run(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::PadgettSpurrier,
        &project.data,
        &FitConfig {
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 400,
                samples: 1_500,
                thin: 1,
                seed: 12_001,
            },
            ..FitConfig::default()
        },
        &RunOptions::none(),
    )
    .unwrap()
    .fit;
    assert!(
        fit.residual.median <= 10.0,
        "median residual {}",
        fit.residual.median
    );
}

#[test]
fn all_ten_cells_recover_prior_drawn_truth() {
    // One replication per (prior, curve) cell of the full SBC grid:
    // truth drawn from the sampler's own prior, data simulated from
    // it, and the 95% credible interval on N checked against the
    // truth. Nominal coverage is 95% per cell; demand 8/10 to absorb
    // Monte-Carlo noise while still catching a broken cell.
    let grid = GridSpec {
        days: 30,
        lambda_max: 80.0,
        alpha_max: 8.0,
        ..GridSpec::default()
    };
    // Rebuild the prior list so the hyper-limits above apply.
    let grid = GridSpec {
        priors: vec![
            PriorSpec::Poisson { lambda_max: 80.0 },
            PriorSpec::NegBinomial { alpha_max: 8.0 },
        ],
        ..grid
    };
    let cells = grid.cells();
    assert_eq!(cells.len(), 10, "full battery must cover 10 cells");
    let mut covered = 0;
    for cell in &cells {
        let mut rng = rep_stream(20_240_001, cell, 1, 0);
        let drawn = draw_rep(cell, &grid, &mut rng);
        let fit = Fit::try_run(
            cell.prior,
            cell.model,
            &drawn.project.data,
            &FitConfig {
                mcmc: McmcConfig {
                    chains: 2,
                    burn_in: 300,
                    samples: 800,
                    thin: 1,
                    seed: drawn.fit_seed,
                },
                zeta_bounds: grid.zeta_bounds,
            },
            &RunOptions::none(),
        )
        .unwrap()
        .fit;
        let total = drawn.project.data.total() as f64;
        let n_draws: Vec<f64> = fit.residual_draws.iter().map(|r| r + total).collect();
        let (lo, hi) = PosteriorSummary::credible_interval(&n_draws, 0.05);
        if (lo..=hi).contains(&(drawn.truth.n as f64)) {
            covered += 1;
        } else {
            eprintln!(
                "cell {} missed: truth N={} CI=[{lo:.1}, {hi:.1}]",
                cell.label(),
                drawn.truth.n
            );
        }
    }
    assert!(covered >= 8, "coverage {covered}/10");
}
