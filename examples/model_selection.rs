//! Model selection: WAIC comparison of all 2 × 5 prior/model
//! combinations at one observation point (a one-row slice of the
//! paper's Table I).
//!
//! ```text
//! cargo run --release --example model_selection
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use srm::prelude::*;
use srm::report::Table;

fn main() {
    let data = datasets::musa_cc96().truncated(48).expect("valid day");
    let mcmc = McmcConfig {
        chains: 2,
        burn_in: 500,
        samples: 1_500,
        thin: 1,
        seed: 7,
    };

    let mut table = Table::new(
        "WAIC at the 50% observation point (48 days)",
        &DetectionModel::ALL
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>(),
    );

    for (label, prior) in [
        (
            "poisson",
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
        ),
        ("negbinom", PriorSpec::NegBinomial { alpha_max: 100.0 }),
    ] {
        let mut row = Vec::new();
        for model in DetectionModel::ALL {
            let sampler = GibbsSampler::new(prior, model, ZetaBounds::default(), &data);
            let run = run_chains_fault_tolerant_traced(&sampler, &mcmc, &RunOptions::none(), &NOOP)
                .expect("at least one chain survives");
            let waic =
                waic_from_output_traced(&sampler, &run.output, &NOOP).expect("stored draws replay");
            row.push(waic.total());
        }
        table.row(label, &row);
    }

    println!("{}", table.render());
    println!("Smaller is better. The paper's finding: model1 (Padgett–Spurrier)");
    println!("gives the smallest WAIC at every observation point, under both priors.");
}
