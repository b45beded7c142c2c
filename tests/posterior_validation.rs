//! End-to-end validation of the Gibbs sampler against brute-force
//! numerical posteriors.
//!
//! For the Poisson prior with the constant detection model, the
//! marginal posterior of the residual count has a semi-analytic form:
//! integrating `λ0` out of `Uniform(0, λ_max) × Poisson(N; λ0)` gives
//! `P(N+1, λ_max)` (regularised incomplete gamma), so
//!
//! ```text
//! p(R = r | x) ∝ P(s_k + r + 1, λ_max) · ∫_0^1 L(x | s_k + r, μ) dμ
//! ```
//!
//! which one-dimensional quadrature evaluates to machine precision.
//! The MCMC estimate must agree within Monte-Carlo error.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::math::incgamma::inc_gamma_p;
use srm::math::quadrature::integrate;
use srm::mcmc::{FaultInjector, RetryPolicy};
use srm::model::GroupedLikelihood;
use srm::prelude::*;
use srm::rand::Xoshiro256StarStar;

/// Simulated project with a clearly identified posterior.
fn test_data() -> BugCountData {
    DetectionSimulator::new(200, vec![0.05; 60]).run(4242).data
}

/// Brute-force residual posterior by quadrature; returns unnormalised
/// log-masses for r = 0..len.
fn quadrature_posterior(data: &BugCountData, lambda_max: f64, max_r: u64) -> Vec<f64> {
    let lik = GroupedLikelihood::new(data);
    let k = data.len();
    let s_k = data.total();
    (0..=max_r)
        .map(|r| {
            let n = s_k + r;
            // Scan for the peak and the effective support of the
            // log-integrand over μ (the peak is narrow: seeding the
            // adaptive quadrature at {0, 0.5, 1} would miss it).
            let grid = 2_000;
            let ll = |mu: f64| lik.ln_likelihood(n, &vec![mu; k]);
            let mut shift = f64::NEG_INFINITY;
            for i in 1..grid {
                shift = shift.max(ll(i as f64 / grid as f64));
            }
            if shift == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            let mut lo = 1.0f64;
            let mut hi = 0.0f64;
            for i in 1..grid {
                let mu = i as f64 / grid as f64;
                if ll(mu) > shift - 45.0 {
                    lo = lo.min(mu);
                    hi = hi.max(mu);
                }
            }
            lo = (lo - 1.0 / grid as f64).max(1e-12);
            hi = (hi + 1.0 / grid as f64).min(1.0 - 1e-12);
            let integral = integrate(|mu| (ll(mu) - shift).exp(), lo, hi, 1e-12);
            shift + integral.ln() + inc_gamma_p(n as f64 + 1.0, lambda_max).ln()
        })
        .collect()
}

fn moments_from_log_masses(log_masses: &[f64]) -> (f64, f64) {
    let z = srm::math::log_sum_exp(log_masses);
    let mut mean = 0.0;
    let mut second = 0.0;
    for (r, &lm) in log_masses.iter().enumerate() {
        let p = (lm - z).exp();
        mean += r as f64 * p;
        second += (r as f64) * (r as f64) * p;
    }
    (mean, (second - mean * mean).sqrt())
}

fn gibbs_residual_moments(
    data: &BugCountData,
    kind: srm::mcmc::gibbs::SweepKind,
    seed: u64,
) -> (f64, f64) {
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::Constant,
        ZetaBounds::default(),
        data,
    )
    .with_sweep_kind(kind);
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let chain = sampler
        .try_run_chain(
            &mut rng,
            1_000,
            6_000,
            1,
            &RetryPolicy::none(),
            &mut FaultInjector::empty(),
            0,
            &NOOP,
            0,
        )
        .unwrap()
        .0;
    let draws = chain.draws("residual").expect("column exists");
    let mean = draws.iter().sum::<f64>() / draws.len() as f64;
    let sd = (draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / draws.len() as f64).sqrt();
    (mean, sd)
}

#[test]
fn collapsed_gibbs_matches_quadrature_posterior() {
    let data = test_data();
    let exact = quadrature_posterior(&data, 2_000.0, 700);
    let (exact_mean, exact_sd) = moments_from_log_masses(&exact);
    let (mcmc_mean, mcmc_sd) =
        gibbs_residual_moments(&data, srm::mcmc::gibbs::SweepKind::Collapsed, 101);
    assert!(
        (mcmc_mean - exact_mean).abs() < 0.12 * exact_mean.max(10.0),
        "mean: mcmc {mcmc_mean} vs exact {exact_mean}"
    );
    assert!(
        (mcmc_sd - exact_sd).abs() < 0.25 * exact_sd.max(5.0),
        "sd: mcmc {mcmc_sd} vs exact {exact_sd}"
    );
}

#[test]
fn naive_gibbs_targets_the_same_posterior() {
    let data = test_data();
    let exact = quadrature_posterior(&data, 2_000.0, 700);
    let (exact_mean, _) = moments_from_log_masses(&exact);
    let (naive_mean, _) = gibbs_residual_moments(&data, srm::mcmc::gibbs::SweepKind::Naive, 102);
    // The naive sweep mixes far more slowly, so allow a wider band —
    // but it must still be in the neighbourhood of the true mean.
    assert!(
        (naive_mean - exact_mean).abs() < 0.35 * exact_mean.max(10.0),
        "mean: naive {naive_mean} vs exact {exact_mean}"
    );
}

#[test]
fn collapsed_and_naive_agree_for_nb_prior() {
    // No quadrature reference here (3 hyper-parameters); instead the
    // two sweeps — which share only the exact-N conditional — must
    // agree on the posterior they sample.
    let data = test_data();
    let run = |kind, seed| {
        let sampler = GibbsSampler::new(
            PriorSpec::NegBinomial { alpha_max: 60.0 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        )
        .with_sweep_kind(kind);
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let chain = sampler
            .try_run_chain(
                &mut rng,
                1_500,
                8_000,
                1,
                &RetryPolicy::none(),
                &mut FaultInjector::empty(),
                0,
                &NOOP,
                0,
            )
            .unwrap()
            .0;
        let draws = chain.draws("residual").unwrap();
        draws.iter().sum::<f64>() / draws.len() as f64
    };
    let collapsed = run(srm::mcmc::gibbs::SweepKind::Collapsed, 103);
    let naive = run(srm::mcmc::gibbs::SweepKind::Naive, 104);
    assert!(
        (collapsed - naive).abs() < 0.3 * collapsed.max(10.0),
        "collapsed {collapsed} vs naive {naive}"
    );
}

#[test]
fn analytic_posterior_consistent_with_known_parameter_slice() {
    // Conditioning the Gibbs state on fixed (λ0, μ) is Prop. 1
    // exactly; verify the sampler's exact-N step through the public
    // analytic posterior on the same data.
    let data = test_data();
    let probs = vec![0.05; data.len()];
    let post = poisson_posterior(200.0, &probs, &data);
    // 200 · 0.95^60 ≈ 9.2 expected residual bugs.
    let expected = 200.0 * 0.95f64.powi(60);
    assert!((post.mean() - expected).abs() < 1e-9);
    // The p.m.f. must normalise.
    let total: f64 = (0..200).map(|r| post.ln_pmf(r).exp()).sum();
    assert!((total - 1.0).abs() < 1e-9);
}
