//! Sampler-correctness battery: conjugate golden tests and a Geweke
//! joint-distribution test.
//!
//! The conjugate tests pin every non-conjugate parameter with
//! [`FixedParams`], which reduces the Gibbs sweep to its exact
//! conjugate N-step — the kept draws are then *iid* from the
//! closed-form posteriors of Propositions 1–2, so their moments must
//! match the analytic values within plain Monte-Carlo error.
//!
//! The Geweke test checks the full (non-conjugate) transition kernel:
//! the marginal-conditional simulator draws `(θ, x)` by composing the
//! prior with the data model, while the successive-conditional
//! simulator alternates the sampler's sweep with the same data model.
//! If the sweep leaves `p(θ | x)` invariant, both chains share the
//! joint `p(θ, x)` and every test statistic agrees to sampling error
//! (Geweke 2004, "Getting it right").

#![allow(clippy::unwrap_used, clippy::expect_used)]

use srm::data::{datasets, BugCountData, DetectionSimulator};
use srm::mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
use srm::mcmc::{FixedParams, GibbsSampler, PriorSpec};
use srm::model::{nb_posterior, poisson_posterior, DetectionModel, ZetaBounds};
use srm::obs::NOOP;
use srm::rand::{Rng, SplitMix64};

/// Sample mean of a draw vector.
fn mean(draws: &[f64]) -> f64 {
    draws.iter().sum::<f64>() / draws.len() as f64
}

/// Unbiased sample variance.
fn variance(draws: &[f64]) -> f64 {
    let m = mean(draws);
    draws.iter().map(|d| (d - m).powi(2)).sum::<f64>() / (draws.len() - 1) as f64
}

/// Builds a `model0` sampler with everything except the N-step pinned.
fn pinned_sampler(prior: PriorSpec, data: &BugCountData, fixed: FixedParams) -> GibbsSampler {
    GibbsSampler::new(prior, DetectionModel::Constant, ZetaBounds::default(), data)
        .with_fixed(fixed)
}

/// Pools the named parameter across every chain of a run.
fn pooled_draws(sampler: &GibbsSampler, config: &McmcConfig, name: &str) -> Vec<f64> {
    let out = run_chains_fault_tolerant_traced(sampler, config, &RunOptions::none(), &NOOP)
        .unwrap()
        .output;
    let mut draws = Vec::new();
    for chain in &out.chains {
        draws.extend_from_slice(chain.draws(name).unwrap());
    }
    draws
}

#[test]
fn pinned_poisson_gibbs_matches_proposition_one() {
    // Fixed p and λ0: the residual draws are iid Poisson(λ_k) with
    // λ_k = λ0 (1 − p)^k — Proposition 1 with a constant schedule.
    let data = datasets::musa_cc96().truncated(20).unwrap();
    let p = 0.05;
    let lambda0 = 150.0;
    let sampler = pinned_sampler(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        &data,
        FixedParams {
            zeta: Some(vec![p]),
            lambda0: Some(lambda0),
            ..FixedParams::default()
        },
    );
    let config = McmcConfig {
        chains: 2,
        burn_in: 50,
        samples: 3_000,
        thin: 1,
        seed: 20_240,
    };
    let draws = pooled_draws(&sampler, &config, "residual");
    let m = draws.len() as f64;

    let probs = vec![p; data.len()];
    let analytic = poisson_posterior(lambda0, &probs, &data);

    // iid draws: SE(mean) = sd/√M; SE(s²) ≈ √((μ4 − σ⁴)/M) with the
    // Poisson fourth central moment μ4 = λ(1 + 3λ).
    let se_mean = analytic.sd() / m.sqrt();
    assert!(
        (mean(&draws) - analytic.mean()).abs() < 5.0 * se_mean,
        "mean {} vs analytic {} (se {se_mean})",
        mean(&draws),
        analytic.mean()
    );
    let lambda_k = analytic.mean();
    let mu4 = lambda_k * (1.0 + 3.0 * lambda_k);
    let se_var = ((mu4 - analytic.variance().powi(2)) / m).sqrt();
    assert!(
        (variance(&draws) - analytic.variance()).abs() < 5.0 * se_var,
        "variance {} vs analytic {} (se {se_var})",
        variance(&draws),
        analytic.variance()
    );

    // The pinned hyper-parameter is recorded verbatim in every draw.
    let lambda_draws = pooled_draws(&sampler, &config, "lambda0");
    assert!(lambda_draws
        .iter()
        .all(|l| l.to_bits() == lambda0.to_bits()));
}

#[test]
fn pinned_nb_gibbs_matches_proposition_two() {
    // Fixed p, α0 and β0: residual draws are iid NB(α0 + s_k, β_k)
    // with 1 − β_k = (1 − β0)(1 − p)^k — corrected Proposition 2.
    let data = datasets::musa_cc96().truncated(20).unwrap();
    let p = 0.04;
    let alpha0 = 12.0;
    let beta0 = 0.35;
    let sampler = pinned_sampler(
        PriorSpec::NegBinomial { alpha_max: 100.0 },
        &data,
        FixedParams {
            zeta: Some(vec![p]),
            alpha0: Some(alpha0),
            beta0: Some(beta0),
            ..FixedParams::default()
        },
    );
    let config = McmcConfig {
        chains: 2,
        burn_in: 50,
        samples: 3_000,
        thin: 1,
        seed: 20_241,
    };
    let draws = pooled_draws(&sampler, &config, "residual");
    let m = draws.len() as f64;

    let probs = vec![p; data.len()];
    let analytic = nb_posterior(alpha0, beta0, &probs, &data);

    let se_mean = analytic.sd() / m.sqrt();
    assert!(
        (mean(&draws) - analytic.mean()).abs() < 5.0 * se_mean,
        "mean {} vs analytic {} (se {se_mean})",
        mean(&draws),
        analytic.mean()
    );
    // The NB fourth moment is unwieldy; the sample variance of ~6k
    // iid draws concentrates within a few percent, so a 10 % band is
    // already a ≳4σ test.
    let rel = (variance(&draws) - analytic.variance()).abs() / analytic.variance();
    assert!(
        rel < 0.10,
        "variance {} vs analytic {} (rel {rel})",
        variance(&draws),
        analytic.variance()
    );
}

// ---------------------------------------------------------------------------
// Geweke joint-distribution test
// ---------------------------------------------------------------------------

/// Days of simulated testing per Geweke iteration.
const HORIZON: usize = 10;
/// Upper bound of the uniform λ0 hyper-prior.
const LAMBDA_MAX: f64 = 30.0;
/// Marginal-conditional (iid prior) draws.
const M_MARGINAL: usize = 40_000;
/// Successive-conditional sweeps kept after warm-up.
const M_SUCCESSIVE: usize = 4_000;
/// Successive-conditional warm-up sweeps.
const WARM_UP: usize = 200;
/// Batches for the batch-means standard error.
const BATCHES: usize = 40;

/// One parameter point of the Constant-model Poisson hierarchy.
#[derive(Clone, Copy)]
struct Theta {
    lambda0: f64,
    p: f64,
    n: u64,
}

/// The test statistics `g(θ)` compared between the two simulators.
fn statistics(theta: Theta) -> [f64; 5] {
    let n = theta.n as f64;
    [theta.lambda0, theta.p, n, n * n, theta.lambda0 * theta.p]
}

/// Draws `θ = (λ0, p, N)` from the prior the sampler assumes:
/// `λ0 ~ U(0, λ_max)`, `p ~ U(bounds)`, `N | λ0 ~ Poisson(λ0)`.
fn prior_draw(rng: &mut SplitMix64, p_bounds: (f64, f64)) -> Theta {
    let lambda0 = (rng.next_f64() * LAMBDA_MAX).max(1e-9);
    let p = p_bounds.0 + (p_bounds.1 - p_bounds.0) * rng.next_f64();
    let n = srm::rand::Poisson::new(lambda0)
        .unwrap()
        .quantile(rng.next_f64().clamp(1e-12, 1.0 - 1e-12));
    Theta { lambda0, p, n }
}

/// Simulates `x | θ` through the exact binomial-thinning data model.
fn simulate_data(rng: &mut SplitMix64, theta: Theta) -> BugCountData {
    DetectionSimulator::new(theta.n, vec![theta.p; HORIZON])
        .run_with(rng)
        .data
}

/// Batch-means standard error of a (possibly autocorrelated) series.
fn batch_means_se(series: &[f64]) -> f64 {
    let batch_len = series.len() / BATCHES;
    let means: Vec<f64> = (0..BATCHES)
        .map(|b| mean(&series[b * batch_len..(b + 1) * batch_len]))
        .collect();
    (variance(&means) / BATCHES as f64).sqrt()
}

#[test]
fn geweke_joint_distribution_test() {
    let prior = PriorSpec::Poisson {
        lambda_max: LAMBDA_MAX,
    };
    // The ζ support is a property of the model, not the data; read it
    // off a throwaway sampler.
    let p_bounds = {
        let data = BugCountData::new(vec![1; HORIZON]).unwrap();
        GibbsSampler::new(
            prior,
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        )
        .zeta_bounds()[0]
    };

    // --- Marginal-conditional: iid draws from the prior ----------------
    let mut rng = SplitMix64::seed_from(0x6E3E_4E01);
    let mut marginal: Vec<Vec<f64>> = (0..5).map(|_| Vec::with_capacity(M_MARGINAL)).collect();
    for _ in 0..M_MARGINAL {
        let g = statistics(prior_draw(&mut rng, p_bounds));
        for (col, &v) in marginal.iter_mut().zip(&g) {
            col.push(v);
        }
    }

    // --- Successive-conditional: sweep ∘ simulate ----------------------
    let mut rng = SplitMix64::seed_from(0x6E3E_4E02);
    let mut theta = prior_draw(&mut rng, p_bounds);
    let mut data = simulate_data(&mut rng, theta);
    let mut successive: Vec<Vec<f64>> = (0..5).map(|_| Vec::with_capacity(M_SUCCESSIVE)).collect();
    for sweep in 0..WARM_UP + M_SUCCESSIVE {
        let sampler = GibbsSampler::new(
            prior,
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let mut state = sampler.init_state().unwrap();
        state.set_zeta(&[theta.p]);
        state.set_lambda0(theta.lambda0);
        state.set_n(theta.n);
        sampler.sweep_state(&mut state, &mut rng).unwrap();
        theta = Theta {
            lambda0: state.lambda0(),
            p: state.zeta()[0],
            n: state.n(),
        };
        data = simulate_data(&mut rng, theta);
        if sweep >= WARM_UP {
            let g = statistics(theta);
            for (col, &v) in successive.iter_mut().zip(&g) {
                col.push(v);
            }
        }
    }

    // Guard against a vacuous pass: a stuck or degenerate chain would
    // collapse N far away from its prior mean λ_max/2.
    let n_mean = mean(&successive[2]);
    assert!(
        (LAMBDA_MAX * 0.3..LAMBDA_MAX * 0.7).contains(&n_mean),
        "successive chain looks degenerate: E[N] = {n_mean}"
    );

    // --- Z-scores ------------------------------------------------------
    let names = ["lambda0", "p", "N", "N^2", "lambda0*p"];
    for ((name, mc), sc) in names.iter().zip(&marginal).zip(&successive) {
        let se_mc = (variance(mc) / mc.len() as f64).sqrt();
        let se_sc = batch_means_se(sc);
        let z = (mean(mc) - mean(sc)) / se_mc.hypot(se_sc);
        assert!(
            z.abs() < 4.5,
            "{name}: marginal {} vs successive {} (z = {z})",
            mean(mc),
            mean(sc)
        );
    }
}
