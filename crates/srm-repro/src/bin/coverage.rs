//! Coverage audit: do the posterior credible intervals of the
//! residual bug count actually contain the true residual? The paper
//! compares point summaries only; this extension quantifies interval
//! calibration per model and prior across the in-data observation
//! points (where a nonzero ground truth exists).

#![allow(clippy::unwrap_used, clippy::expect_used)] // reproduction script

use srm_data::{datasets, ObservationPoint};
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::PosteriorSummary;
use srm_model::DetectionModel;
use srm_report::Table;

fn main() {
    let data = datasets::musa_cc96();
    let mcmc = srm_repro::mcmc_config();
    // Points with a meaningful (nonzero) true residual.
    let days = [48usize, 67, 86];

    for (label, prior) in [
        (
            "poisson",
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
        ),
        ("negbinom", PriorSpec::NegBinomial { alpha_max: 100.0 }),
    ] {
        let mut table = Table::new(
            &format!("95% credible-interval coverage of the true residual — {label} prior"),
            &["truth", "lo", "hi", "covered", "width"],
        );
        for model in DetectionModel::ALL {
            for day in days {
                let point = ObservationPoint::new(day);
                let window = point.window(&data).expect("valid day");
                let truth = point.true_residual(&data);
                let fit = srm_repro::fit(prior, model, &window, mcmc);
                let (lo, hi) = PosteriorSummary::credible_interval(&fit.residual_draws, 0.05);
                let covered = (lo..=hi).contains(&(truth as f64));
                table.row(
                    &format!("{} {day}d", model.name()),
                    &[
                        truth as f64,
                        lo,
                        hi,
                        if covered { 1.0 } else { 0.0 },
                        hi - lo,
                    ],
                );
            }
        }
        println!("{}", table.render());
    }
    println!("Reading: at 48 days most intervals cover; by 67-86 days they all sit");
    println!("ABOVE the truth — every model overestimates mid-test, exactly the");
    println!("overestimation the paper itself flags ('the result tends to");
    println!("overestimate the actual software bug counts', §5.1) and the reason it");
    println!("introduces virtual testing. model1's intervals are an order of");
    println!("magnitude narrower than the rest, so it recovers fastest once the");
    println!("zero-count days arrive.");
}
