//! End-to-end reliability pipeline: simulate a project, fit the
//! model, and check the reliability function against what actually
//! happens in a simulated continuation of testing.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::core::{Fit, FitConfig};
use srm::model::reliability::{pgf, reliability, reliability_curve};
use srm::prelude::*;
use srm::rand::{Binomial, Distribution, Rng, SplitMix64};

#[test]
fn fitted_reliability_predicts_continuation() {
    // Phase 1: 40 observed days with constant p.
    let true_n = 300u64;
    let p = 0.04;
    let sim = DetectionSimulator::new(true_n, vec![p; 40]);
    let project = sim.run(33_001);

    // Fit with the Poisson prior + constant model.
    let fit = Fit::try_run(
        PriorSpec::Poisson {
            lambda_max: 3_000.0,
        },
        DetectionModel::Constant,
        &project.data,
        &FitConfig {
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 600,
                samples: 3_000,
                thin: 1,
                seed: 33_002,
            },
            ..FitConfig::default()
        },
        &RunOptions::none(),
    )
    .unwrap()
    .fit;

    // Posterior-mixture reliability over 20 more days at the true p:
    // average the per-draw analytic PGF over the posterior draws.
    let horizon = 20usize;
    let z = (1.0 - p).powi(horizon as i32);
    let mut mixture_rel = 0.0;
    for &r in &fit.residual_draws {
        mixture_rel += z.powf(r);
    }
    mixture_rel /= fit.residual_draws.len() as f64;

    // Phase 2 ground truth: simulate many continuations of the SAME
    // project (true residual known) and count silent ones.
    let mut rng = SplitMix64::seed_from(33_003);
    let trials = 40_000;
    let mut silent = 0usize;
    for _ in 0..trials {
        let mut undetected = true;
        for _ in 0..project.true_residual {
            // Each remaining bug survives all 20 days w.p. (1-p)^20.
            if rng.next_f64() >= z {
                undetected = false;
                break;
            }
        }
        if undetected {
            silent += 1;
        }
    }
    let truth_rel = silent as f64 / trials as f64;

    // The Bayesian prediction must be in the same regime as the truth
    // (it differs by posterior spread around the true residual).
    assert!(
        (mixture_rel - truth_rel).abs() < 0.25,
        "predicted {mixture_rel:.3} vs simulated {truth_rel:.3} \
         (true residual {})",
        project.true_residual
    );
}

#[test]
fn pgf_mixture_equals_thinned_sampling() {
    // E over posterior draws of z^R must equal the empirical fraction
    // of thinned-silent draws.
    let post = srm::model::posterior::ResidualPosterior::NegBinomial {
        alpha_k: 5.0,
        beta_k: 0.45,
    };
    let p_day = 0.12f64;
    let days = 7usize;
    let z = (1.0 - p_day).powi(days as i32);
    let analytic = pgf(&post, z);
    let mut rng = SplitMix64::seed_from(33_004);
    let trials = 100_000;
    let mut silent = 0usize;
    for _ in 0..trials {
        let r = post.sample(&mut rng);
        let detected = if r == 0 {
            0
        } else {
            Binomial::new(r, 1.0 - z).unwrap().sample(&mut rng)
        };
        if detected == 0 {
            silent += 1;
        }
    }
    let empirical = silent as f64 / trials as f64;
    assert!(
        (empirical - analytic).abs() < 0.006,
        "empirical {empirical} vs analytic {analytic}"
    );
}

#[test]
fn reliability_grows_with_virtual_testing() {
    // The operational story of the paper's Figs. 2–3: each block of
    // quiet days raises the reliability of an immediate release.
    // A slow constant schedule keeps the posterior from collapsing
    // immediately, so the growth in reliability is visible.
    let data = datasets::musa_cc96();
    let zeta = [0.05];
    let model = DetectionModel::Constant;
    let rel_at = |day: usize| {
        let window = ObservationPoint::new(day).window(&data).unwrap();
        let schedule = model.probs(&zeta, window.len()).unwrap();
        let post = srm::model::poisson_posterior(200.0, &schedule, &window);
        let future: Vec<f64> = ((window.len() + 1) as u64..=(window.len() + 30) as u64)
            .map(|i| model.prob(&zeta, i).unwrap())
            .collect();
        reliability(&post, &future, 30)
    };
    let r96 = rel_at(96);
    let r116 = rel_at(116);
    let r146 = rel_at(146);
    assert!(
        r96 < r116 && r116 < r146,
        "{r96} < {r116} < {r146} violated"
    );
    assert!(r146 > 0.8, "r146 = {r146}");
}

#[test]
fn reliability_curve_consistent_with_scalar_calls() {
    let post = srm::model::posterior::ResidualPosterior::Poisson { lambda_k: 3.0 };
    let probs = vec![0.07; 25];
    let curve = reliability_curve(&post, &probs, 25);
    for h in [1usize, 10, 25] {
        assert!((curve[h - 1] - reliability(&post, &probs, h)).abs() < 1e-12);
    }
}
