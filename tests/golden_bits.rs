//! Golden draw-derived values: the exact `f64` bits of the residual
//! mean, residual sd and WAIC total of one `McmcConfig::smoke` fit per
//! (detection curve × prior) cell on the first 48 days of Musa's CC96.
//!
//! Any change to the sampler, the chain runner or the WAIC replay that
//! moves a single draw or a single accumulation step moves these bits.
//! A refactor that claims bit-identity must leave them alone; a
//! numerical change must re-pin them and say so.

use srm::core::{Fit, FitConfig};
use srm::data::datasets;
use srm::mcmc::gibbs::PriorSpec;
use srm::mcmc::runner::{McmcConfig, RunOptions};
use srm::model::DetectionModel::{self, *};

/// `(prior, model, residual mean, residual sd, WAIC total)` bits.
#[rustfmt::skip]
const GOLDEN: [(&str, DetectionModel, u64, u64, u64); 10] = [
    ("poisson", Constant, 0x4087a0c8b439580f, 0x407fae846ec5331a, 0x404dc487734e7a4c),
    ("poisson", PadgettSpurrier, 0x404cc04189374bc6, 0x40518a2628fae708, 0x404cd2e7a1463fce),
    ("poisson", LogLogistic, 0x40785153f7ced919, 0x407bb3808c74fdeb, 0x404ee3dfeaad4888),
    ("poisson", Pareto, 0x408d63a3d70a3d74, 0x407f186a3ada9046, 0x40553ff33da33b43),
    ("poisson", Weibull, 0x408c73f5c28f5c30, 0x407e29e5c22d9810, 0x404e6323a33ebc6e),
    ("negbinom", Constant, 0x4072d1eb851eb847, 0x4082227515c08b5a, 0x404e2f94b6631010),
    ("negbinom", PadgettSpurrier, 0x40411cac083126e3, 0x403ba07982841c84, 0x404cb94cde1b6191),
    ("negbinom", LogLogistic, 0x4067110624dd2f1b, 0x4076d09b6cc5fc23, 0x404e41bf93864cf8),
    ("negbinom", Pareto, 0x408022d70a3d70ab, 0x407d93920519d492, 0x405577820d332dde),
    ("negbinom", Weibull, 0x406ddd5810624dd2, 0x4071503c84321285, 0x404eb149cf7c832c),
];

#[test]
fn smoke_fits_reproduce_their_golden_bits() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let config = FitConfig {
        mcmc: McmcConfig::smoke(2024),
        ..FitConfig::default()
    };
    let mut mismatches = Vec::new();
    for (label, model, mean, sd, waic) in GOLDEN {
        let prior = match label {
            "poisson" => PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            _ => PriorSpec::NegBinomial { alpha_max: 100.0 },
        };
        let fit = Fit::try_run(prior, model, &data, &config, &RunOptions::none())
            .unwrap()
            .fit;
        let got = (
            fit.residual.mean.to_bits(),
            fit.residual.sd.to_bits(),
            fit.waic.total().to_bits(),
        );
        if got != (mean, sd, waic) {
            mismatches.push(format!(
                "{label}/{model:?}: got ({:#018x}, {:#018x}, {:#018x}) = ({}, {}, {})",
                got.0,
                got.1,
                got.2,
                fit.residual.mean,
                fit.residual.sd,
                fit.waic.total()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
