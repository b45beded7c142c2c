//! Paper-shape assertions on the full pipeline: the qualitative
//! claims of §5 must hold on the reproduction dataset. (Absolute
//! numbers differ — synthetic data, different sampler — but who wins,
//! by what order, and where mass collapses must match.)

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::core::{Experiment, ExperimentConfig};
use srm::data::{datasets, ObservationPlan};
use srm::mcmc::runner::{McmcConfig, RunOptions};
use srm::model::DetectionModel;
use srm::obs::NOOP;

fn run_reduced_experiment(seed: u64) -> srm::core::ExperimentResults {
    let mut config = ExperimentConfig::paper_design(McmcConfig {
        chains: 3,
        burn_in: 600,
        samples: 1_500,
        thin: 1,
        seed,
    });
    // All five models, both priors, at four key observation points.
    config.models = DetectionModel::ALL.to_vec();
    Experiment::new(datasets::musa_cc96(), config)
        .with_plan(ObservationPlan::from_days(&[48, 96, 116, 146]))
        .try_run(&RunOptions::none(), &NOOP)
        .unwrap()
}

#[test]
fn paper_shape_claims_hold() {
    let results = run_reduced_experiment(12_021);

    // --- Table I shape: model1 attains the smallest WAIC at every
    // observation point, under both priors; model3 is the worst.
    for prior in ["poisson", "negbinom"] {
        for day in results.days() {
            let waic = |m| results.get(prior, m, day).unwrap().fit.waic.total();
            let w1 = waic(DetectionModel::PadgettSpurrier);
            let w3 = waic(DetectionModel::Pareto);
            for m in DetectionModel::ALL {
                let wm = waic(m);
                // MC slack: model2's bimodal μ can transiently deflate
                // its WAIC on short chains, so it gets a wider band.
                let slack = if m == DetectionModel::LogLogistic {
                    8.0
                } else {
                    2.0
                };
                assert!(
                    w1 <= wm + slack,
                    "{prior} {day}d: model1 ({w1:.1}) beaten by {m} ({wm:.1})"
                );
                assert!(
                    w3 >= wm - 2.0,
                    "{prior} {day}d: model3 ({w3:.1}) better than {m} ({wm:.1})"
                );
            }
        }
    }

    // --- Figs. 2–3 shape: under virtual testing the model1 posterior
    // collapses toward zero.
    for prior in ["poisson", "negbinom"] {
        let mean_at = |day| {
            results
                .get(prior, DetectionModel::PadgettSpurrier, day)
                .unwrap()
                .fit
                .residual
                .mean
        };
        assert!(
            mean_at(146) < mean_at(96),
            "{prior}: no collapse ({} -> {})",
            mean_at(96),
            mean_at(146)
        );
        assert!(
            mean_at(146) < 10.0,
            "{prior}: residual should be nearly exhausted at 146d, got {}",
            mean_at(146)
        );
    }

    // --- Table V shape: model1's posterior sd is far smaller than
    // model3's everywhere.
    for prior in ["poisson", "negbinom"] {
        for day in results.days() {
            let sd = |m| results.get(prior, m, day).unwrap().fit.residual.sd;
            assert!(
                sd(DetectionModel::PadgettSpurrier) < sd(DetectionModel::Pareto),
                "{prior} {day}d: sd ordering violated"
            );
        }
    }

    // --- Headline (Table V): the Poisson prior predicts with less
    // variability than the NB prior. In the paper this shows up two
    // ways: (a) per-model sd margins, which for the well-fitting
    // model1 are tiny (90.3 vs 97.8 at 48d, 1.42 vs 1.44 at 136d) and
    // therefore within MC noise here, and (b) the NB column blowing
    // up by an order of magnitude for the diffuse models (10019.2 for
    // model3 at 86d). We assert the robust forms: the geometric-mean
    // sd ratio across all cells favours Poisson, and the worst-case
    // NB sd dwarfs the worst-case Poisson sd at the full-data point.
    let mut log_ratio_sum = 0.0;
    let mut cells = 0usize;
    for day in results.days() {
        for m in DetectionModel::ALL {
            let sd_p = results.get("poisson", m, day).unwrap().fit.residual.sd;
            let sd_nb = results.get("negbinom", m, day).unwrap().fit.residual.sd;
            cells += 1;
            log_ratio_sum += (sd_nb.max(1e-9) / sd_p.max(1e-9)).ln();
        }
    }
    assert!(
        log_ratio_sum / cells as f64 > 0.0,
        "geometric-mean sd ratio favours NB: {:.3}",
        (log_ratio_sum / cells as f64).exp()
    );
    let max_sd = |prior: &str, day: usize| {
        DetectionModel::ALL
            .iter()
            .map(|&m| results.get(prior, m, day).unwrap().fit.residual.sd)
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_sd("negbinom", 96) > 2.0 * max_sd("poisson", 96),
        "NB worst-case sd ({}) should dwarf Poisson's ({}) at 96d",
        max_sd("negbinom", 96),
        max_sd("poisson", 96)
    );
}

#[test]
fn observation_plan_matches_paper_protocol() {
    let data = datasets::musa_cc96();
    let plan = ObservationPlan::paper_default(&data);
    let days: Vec<usize> = plan.points().iter().map(|p| p.day()).collect();
    assert_eq!(days, vec![48, 67, 86, 96, 106, 116, 126, 136, 146]);
}
