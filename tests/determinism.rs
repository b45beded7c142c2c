//! Reproducibility: identical seeds must give bit-identical results
//! through every layer of the stack, and the runner on four worker
//! threads must match the runner on one.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::core::{Experiment, ExperimentConfig};
use srm::data::{datasets, ObservationPlan};
use srm::mcmc::runner::McmcOutput;
use srm::prelude::*;

fn draws(sampler: &GibbsSampler, config: &McmcConfig, threads: usize) -> McmcOutput {
    run_chains_fault_tolerant_traced(sampler, config, &RunOptions::with_threads(threads), &NOOP)
        .unwrap()
        .output
}

fn small_config(seed: u64) -> McmcConfig {
    McmcConfig {
        chains: 3,
        burn_in: 200,
        samples: 300,
        thin: 2,
        seed,
    }
}

#[test]
fn sampler_is_bit_reproducible() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = GibbsSampler::new(
        PriorSpec::NegBinomial { alpha_max: 80.0 },
        DetectionModel::Weibull,
        ZetaBounds::default(),
        &data,
    );
    let a = draws(&sampler, &small_config(555), 0);
    let b = draws(&sampler, &small_config(555), 0);
    assert_eq!(a, b);
    let c = draws(&sampler, &small_config(556), 0);
    assert_ne!(a, c);
}

#[test]
fn parallel_equals_serial() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 1_500.0,
        },
        DetectionModel::LogLogistic,
        ZetaBounds::default(),
        &data,
    );
    let ser = draws(&sampler, &small_config(777), 1);
    let par = draws(&sampler, &small_config(777), 4);
    assert_eq!(par, ser);
}

#[test]
fn experiment_reproducible_end_to_end() {
    let mut config = ExperimentConfig::smoke(888);
    config.models = vec![DetectionModel::Constant, DetectionModel::PadgettSpurrier];
    config.mcmc = McmcConfig {
        chains: 1,
        burn_in: 100,
        samples: 200,
        thin: 1,
        seed: 888,
    };
    let build = || {
        Experiment::new(datasets::musa_cc96(), config.clone())
            .with_plan(ObservationPlan::from_days(&[48, 96]))
            .try_run(&RunOptions::none(), &NOOP)
            .unwrap()
    };
    let a = build();
    let b = build();
    assert!(a.failures().is_empty());
    assert_eq!(a.cells().len(), b.cells().len());
    for (ca, cb) in a.cells().iter().zip(b.cells()) {
        assert_eq!(ca.fit.residual, cb.fit.residual, "{:?}", ca.key);
        assert_eq!(ca.fit.waic, cb.fit.waic, "{:?}", ca.key);
    }
}

#[test]
fn waic_deterministic_from_stored_draws() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::Constant,
        ZetaBounds::default(),
        &data,
    );
    let waic = || {
        let output = draws(&sampler, &small_config(999), 0);
        waic_from_output_traced(&sampler, &output, &NOOP).unwrap()
    };
    assert_eq!(waic(), waic());
}
