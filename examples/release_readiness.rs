//! Release readiness: combine the fitted posterior with the
//! reliability function `R(h) = E[(Π q)^R]` to answer the operational
//! question — *if we ship today, what is the probability that no bug
//! surfaces in the next h days?*
//!
//! ```text
//! cargo run --release --example release_readiness
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use srm::model::reliability::{days_until_reliability_below, reliability_curve};
use srm::prelude::*;
use srm::report::Table;

fn main() {
    let base = datasets::musa_cc96();
    let mcmc = McmcConfig {
        chains: 2,
        burn_in: 500,
        samples: 2_000,
        thin: 1,
        seed: 23,
    };

    let mut table = Table::new(
        "Reliability of release — model1 plug-in posterior at each observation point",
        &["R(10 days)", "R(30 days)", "R(50 days)", "days to R<0.9"],
    );

    for observe_at in [96usize, 116, 146] {
        let window = ObservationPoint::new(observe_at)
            .window(&base)
            .expect("valid observation point");
        for (label, prior) in [
            (
                "poisson",
                PriorSpec::Poisson {
                    lambda_max: 2_000.0,
                },
            ),
            ("negbinom", PriorSpec::NegBinomial { alpha_max: 100.0 }),
        ] {
            let fit = srm::core::Fit::try_run(
                prior,
                DetectionModel::PadgettSpurrier,
                &window,
                &srm::core::FitConfig {
                    mcmc,
                    ..srm::core::FitConfig::default()
                },
                &RunOptions::none(),
            )
            .expect("at least one chain survives")
            .fit;

            // Plug-in analytic posterior at the posterior-mean
            // hyper-parameters (the draws give the full mixture; the
            // plug-in is the usual reporting device).
            let mean_of = |name: &str| {
                let d = fit.output.pooled(name);
                d.iter().sum::<f64>() / d.len() as f64
            };
            let zeta = [mean_of("mu"), mean_of("theta")];
            let horizon = 50;
            let k = window.len();
            let future: Vec<f64> = ((k + 1) as u64..=(k + horizon) as u64)
                .map(|i| {
                    DetectionModel::PadgettSpurrier
                        .prob(&zeta, i)
                        .expect("valid")
                })
                .collect();
            let schedule = DetectionModel::PadgettSpurrier
                .probs(&zeta, k)
                .expect("valid");
            let posterior = match prior {
                PriorSpec::Poisson { .. } => {
                    srm::model::poisson_posterior(mean_of("lambda0"), &schedule, &window)
                }
                PriorSpec::NegBinomial { .. } => srm::model::nb_posterior(
                    mean_of("alpha0"),
                    mean_of("beta0").clamp(1e-9, 1.0 - 1e-9),
                    &schedule,
                    &window,
                ),
            };

            let curve = reliability_curve(&posterior, &future, horizon);
            let crossing =
                days_until_reliability_below(&posterior, &future, 0.9).map_or(-1.0, |d| d as f64);
            table.row(
                &format!("{observe_at}d {label}"),
                &[curve[9], curve[29], curve[49], crossing],
            );
        }
    }
    println!("{}", table.render());
    println!("(-1 in the last column: reliability never drops below 0.9 within 50 days.)");
    println!("At day 96 dozens of bugs plausibly remain, so any release horizon is");
    println!("risky (R ≈ 0); each block of quiet virtual-testing days collapses the");
    println!("posterior and pushes the reliability of shipping toward 1.");
}
