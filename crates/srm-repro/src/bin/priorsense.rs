//! Extension experiment 2: sensitivity of WAIC and the posterior
//! residual mean to the hyper-prior upper limits (the quantities the
//! paper tunes by WAIC minimisation).

#![allow(clippy::unwrap_used, clippy::expect_used)] // reproduction script

use srm_data::datasets;
use srm_mcmc::runner::McmcConfig;
use srm_model::DetectionModel;
use srm_report::Table;
use srm_select::grid::GridSearch;

fn main() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let base = srm_repro::mcmc_config();
    let search = GridSearch {
        prior_limits: vec![250.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0],
        theta_maxes: vec![1.0, 10.0, 100.0],
        mcmc: McmcConfig {
            chains: 2,
            burn_in: base.burn_in.min(500),
            samples: base.samples.min(1_500),
            thin: 1,
            seed: srm_repro::seed(),
        },
    };

    for (label, poisson) in [("poisson", true), ("negbinom", false)] {
        let result = search
            .run(poisson, DetectionModel::PadgettSpurrier, &data)
            .expect("every grid cell scores");
        let mut table = Table::new(
            &format!("Hyper-prior sensitivity at 48 days — {label} prior, model1"),
            &["theta_max", "WAIC total", "T_k", "V_k"],
        );
        for cell in &result.cells {
            table.row(
                &format!("limit={}", cell.prior_limit),
                &[
                    cell.theta_max,
                    cell.waic.total(),
                    cell.waic.learning_loss,
                    cell.waic.functional_variance,
                ],
            );
        }
        println!("{}", table.render());
        println!(
            "best: limit = {}, theta_max = {}, WAIC = {:.3}\n",
            result.best.prior_limit,
            result.best.theta_max,
            result.best.waic.total()
        );
    }
}
