//! Extension experiment 1 (the paper's §6 future work): compare the
//! Poisson and negative-binomial priors across several datasets with
//! different growth shapes, using the WAIC-best model1.

#![allow(clippy::unwrap_used, clippy::expect_used)] // reproduction script

use srm_core::multidata::compare_across_datasets;
use srm_core::FitConfig;
use srm_data::datasets;
use srm_mcmc::gibbs::PriorSpec;
use srm_model::DetectionModel;
use srm_report::Table;

fn main() {
    let named = datasets::all_named();
    let named_refs: Vec<(&str, srm_data::BugCountData)> =
        named.iter().map(|(n, d)| (*n, d.clone())).collect();
    let priors = [
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        PriorSpec::NegBinomial { alpha_max: 100.0 },
    ];
    let config = FitConfig {
        mcmc: srm_repro::mcmc_config(),
        ..FitConfig::default()
    };
    let results = compare_across_datasets(
        &named_refs,
        &priors,
        DetectionModel::PadgettSpurrier,
        &config,
    )
    .expect("every fit succeeds");

    let mut table = Table::new(
        "Extension: prior comparison across datasets (model1, 100% observation point)",
        &[
            "total",
            "poisson mean",
            "poisson sd",
            "negbinom mean",
            "negbinom sd",
        ],
    );
    for d in &results.datasets {
        let pois = d.fit("poisson").expect("poisson fitted");
        let nb = d.fit("negbinom").expect("negbinom fitted");
        table.row(
            &d.name,
            &[
                d.total as f64,
                pois.residual.mean,
                pois.residual.sd,
                nb.residual.mean,
                nb.residual.sd,
            ],
        );
    }
    println!("{}", table.render());
    println!(
        "Poisson-prior sd is smaller on {}/{} datasets; mean log sd ratio {:.3} (> 0 favours Poisson).",
        results.sd_wins_of_first_prior(),
        results.datasets.len(),
        results.mean_log_sd_ratio()
    );
    println!("Reading: on clear growth shapes the two priors' sds are near-ties; on");
    println!("ill-identified shapes (plateau, late surge) the NB prior's adaptive");
    println!("shrinkage gives *smaller* sds — the paper's sd headline is a property");
    println!("of the diffuse models on growth data, not a universal dominance.");
}
