//! Posterior predictive checks of the fitted models on the primary
//! dataset: can each (prior, model) reproduce the observable features
//! of the data? Extreme p-values (< 0.025 or > 0.975) flag model
//! misfit the WAIC ranking only shows indirectly.

use srm_core::posterior_predictive_check;
use srm_data::datasets;
use srm_mcmc::gibbs::PriorSpec;
use srm_model::DetectionModel;
use srm_report::Table;

fn main() {
    let data = datasets::musa_cc96();
    let mcmc = srm_repro::mcmc_config();
    let n_rep = if srm_repro::fast_mode() { 100 } else { 400 };

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
            &format!("Posterior predictive p-values ({n_rep} replicates) — {label} prior"),
            &[
                "total_bugs",
                "max_daily",
                "zero_fraction",
                "dispersion",
                "laplace_trend",
                "first_half_share",
            ],
        );
        for model in DetectionModel::ALL {
            let fit = srm_repro::fit(prior, model, &data, mcmc);
            let results = posterior_predictive_check(&fit, &data, n_rep, srm_repro::seed() + 17);
            let row: Vec<f64> = results.iter().map(|r| r.p_value).collect();
            table.row(model.name(), &row);
        }
        println!("{}", table.render());
    }
    println!("p-values near 0.5 mean the model reproduces that feature of the data;");
    println!("near 0 or 1 means it cannot. Expect the time-aware models to track the");
    println!("Laplace trend far better than the homogeneous model0.");
}
