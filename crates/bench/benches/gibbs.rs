//! Benchmarks of full Gibbs runs, including **ablation-a** from
//! DESIGN.md: the collapsed sweep (N marginalised out of the hyper
//! and ζ updates) versus the naive textbook sweep. The collapsed
//! sweep costs slightly more per iteration but buys an order of
//! magnitude in effective samples; the per-sweep cost comparison
//! lives here, the mixing comparison in `diagnostics`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench setup

use srm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srm_data::datasets;
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec, SweepKind, ZetaKernel};
use srm_mcmc::{FaultInjector, RetryPolicy};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::NOOP;
use srm_rand::Xoshiro256StarStar;
use std::hint::black_box;

fn run_sweeps(sampler: &GibbsSampler, sweeps: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let (chain, _) = sampler
        .try_run_chain(
            &mut rng,
            0,
            sweeps,
            1,
            &RetryPolicy::none(),
            &mut FaultInjector::empty(),
            0,
            &NOOP,
            0,
        )
        .unwrap();
    chain.draws("residual").unwrap().iter().sum()
}

fn bench_sweep_cost_by_model(c: &mut Criterion) {
    let data = datasets::musa_cc96();
    let mut group = c.benchmark_group("gibbs/100_sweeps_poisson");
    group.sample_size(20);
    for model in DetectionModel::ALL {
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            model,
            ZetaBounds::default(),
            &data,
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(model.name()),
            &sampler,
            |b, s| {
                b.iter(|| black_box(run_sweeps(s, 100, 11)));
            },
        );
    }
    group.finish();
}

fn bench_sweep_cost_by_prior(c: &mut Criterion) {
    let data = datasets::musa_cc96();
    let mut group = c.benchmark_group("gibbs/100_sweeps_model1");
    group.sample_size(20);
    for (label, prior) in [
        (
            "poisson",
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
        ),
        ("negbinom", PriorSpec::NegBinomial { alpha_max: 100.0 }),
    ] {
        let sampler = GibbsSampler::new(
            prior,
            DetectionModel::PadgettSpurrier,
            ZetaBounds::default(),
            &data,
        );
        group.bench_with_input(BenchmarkId::from_parameter(label), &sampler, |b, s| {
            b.iter(|| black_box(run_sweeps(s, 100, 12)));
        });
    }
    group.finish();
}

fn bench_ablation_collapsed_vs_naive(c: &mut Criterion) {
    let data = datasets::musa_cc96();
    let mut group = c.benchmark_group("gibbs/ablation_sweep_kind");
    group.sample_size(20);
    for (label, kind) in [
        ("collapsed", SweepKind::Collapsed),
        ("naive", SweepKind::Naive),
    ] {
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        )
        .with_sweep_kind(kind);
        group.bench_with_input(BenchmarkId::from_parameter(label), &sampler, |b, s| {
            b.iter(|| black_box(run_sweeps(s, 100, 13)));
        });
    }
    group.finish();
}

fn bench_ablation_zeta_kernel(c: &mut Criterion) {
    let data = datasets::musa_cc96();
    let mut group = c.benchmark_group("gibbs/ablation_zeta_kernel");
    group.sample_size(20);
    for (label, kernel) in [
        ("slice", ZetaKernel::Slice),
        ("adaptive_rw", ZetaKernel::AdaptiveRw),
    ] {
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::PadgettSpurrier,
            ZetaBounds::default(),
            &data,
        )
        .with_zeta_kernel(kernel);
        group.bench_with_input(BenchmarkId::from_parameter(label), &sampler, |b, s| {
            b.iter(|| black_box(run_sweeps(s, 100, 14)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_cost_by_model,
    bench_sweep_cost_by_prior,
    bench_ablation_collapsed_vs_naive,
    bench_ablation_zeta_kernel
);
criterion_main!(benches);
