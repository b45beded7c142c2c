//! Time-scale invariance: the detection process composes across
//! periods (a week with daily probability `p` is one period with
//! probability `1 − (1−p)^7`), so fitting the daily data and the
//! weekly-aggregated data must tell the same story about `N`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::core::{Fit, FitConfig};
use srm::prelude::*;

#[test]
fn analytic_posterior_identical_across_aggregation() {
    // With the schedule transformed exactly, Prop. 1 gives the SAME
    // residual posterior from daily and weekly views.
    let sim = DetectionSimulator::new(300, vec![0.03; 70]);
    let project = sim.run(61_001);
    let daily = &project.data;
    let weekly = daily.aggregated(7);

    let p_day = 0.03f64;
    let p_week = 1.0 - (1.0 - p_day).powi(7);
    let daily_probs = vec![p_day; daily.len()];
    let weekly_probs = vec![p_week; weekly.len()];

    let post_daily = srm::model::poisson_posterior(300.0, &daily_probs, daily);
    let post_weekly = srm::model::poisson_posterior(300.0, &weekly_probs, &weekly);
    assert!(
        (post_daily.mean() - post_weekly.mean()).abs() < 1e-9,
        "{} vs {}",
        post_daily.mean(),
        post_weekly.mean()
    );
    assert!((post_daily.sd() - post_weekly.sd()).abs() < 1e-9);
}

#[test]
fn fitted_posterior_consistent_across_aggregation() {
    // With μ *estimated*, the two views are different datasets, but
    // the posterior of N must land in the same place.
    let sim = DetectionSimulator::new(400, vec![0.025; 84]);
    let project = sim.run(61_002);
    let daily = project.data.clone();
    let weekly = daily.aggregated(7);
    assert_eq!(weekly.len(), 12);

    let fit_view = |data: &BugCountData, seed: u64| {
        let fit = Fit::try_run(
            PriorSpec::Poisson {
                lambda_max: 4_000.0,
            },
            DetectionModel::Constant,
            data,
            &FitConfig {
                mcmc: McmcConfig {
                    chains: 2,
                    burn_in: 600,
                    samples: 2_500,
                    thin: 1,
                    seed,
                },
                ..FitConfig::default()
            },
            &RunOptions::none(),
        )
        .unwrap()
        .fit;
        fit.residual.mean + data.total() as f64 // posterior mean of N
    };
    let n_daily = fit_view(&daily, 61_003);
    let n_weekly = fit_view(&weekly, 61_004);
    assert!(
        (n_daily - n_weekly).abs() < 0.35 * n_daily.max(50.0),
        "daily N {n_daily} vs weekly N {n_weekly}"
    );
    // And both should be in the neighbourhood of the truth.
    assert!(
        (n_daily - 400.0).abs() < 200.0,
        "daily posterior N mean {n_daily}"
    );
}
