//! Model-selection criteria side by side: WAIC (the paper's choice),
//! DIC and IS-LOO for all five detection models under both priors at
//! the 50 % observation point — demonstrating that the paper's
//! model1-wins conclusion is criterion-robust.

#![allow(clippy::unwrap_used, clippy::expect_used)] // reproduction script

use srm_data::datasets;
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
use srm_model::{DetectionModel, ZetaBounds};
use srm_report::Table;
use srm_select::dic::dic_from_output;
use srm_select::loo::LooAccumulator;
use srm_select::waic::{replay_draws, WaicAccumulator};

fn main() {
    let data = datasets::musa_cc96().truncated(48).expect("valid day");
    let mcmc = srm_repro::mcmc_config();

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
            &format!("Selection criteria at 48 days — {label} prior"),
            &["WAIC", "-elpd_loo", "DIC", "p_waic", "p_D"],
        );
        for model in DetectionModel::ALL {
            let sampler = GibbsSampler::new(prior, model, ZetaBounds::default(), &data);
            let mut waic_acc = WaicAccumulator::new(&data);
            let mut loo_acc = LooAccumulator::new(&data);
            let output = srm_repro::draws(&sampler, &mcmc);
            replay_draws(&sampler, &output, |n, probs| {
                waic_acc.add_draw(n, probs);
                loo_acc.add_draw(n, probs);
            })
            .expect("every chain kept");
            let waic = waic_acc.finish();
            let loo = loo_acc.finish();
            let dic = dic_from_output(&output, model, &data);
            table.row(
                model.name(),
                &[
                    waic.total(),
                    loo.information_criterion(),
                    dic.value(),
                    waic.p_waic(),
                    dic.p_d,
                ],
            );
        }
        println!("{}", table.render());
    }
    println!("All three criteria are computed from the same posterior draws; the");
    println!("model ranking (model1 best, model3 worst) should agree across them,");
    println!("with WAIC ≈ -elpd_loo (Watanabe's asymptotic equivalence).");
}
