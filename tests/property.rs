//! Property-based tests of cross-crate invariants.
//!
//! The original suite used `proptest`; this build environment has no
//! crates.io access, so the same properties run under a hand-rolled
//! harness: every `#[test]` draws `CASES` random inputs from a seeded
//! [`SplitMix64`] stream, making each property deterministic and
//! shrink-free but otherwise equivalent in coverage.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use srm::data::BugCountData;
use srm::model::detection::OPEN_EPS;
use srm::model::{
    nb_posterior, poisson_posterior, CollapsedKernel, DetectionModel, GroupedLikelihood, ZetaBounds,
};
use srm::rand::{Rng, SplitMix64};

const CASES: usize = 128;

/// Uniform draw in `[lo, hi)`.
fn f64_in(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Uniform integer draw in `[lo, hi)`.
fn usize_in(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.next_below((hi - lo) as u64) as usize
}

/// Random count vector with entries in `[0, max_count)` and a length
/// in `[min_len, max_len)`.
fn counts(rng: &mut SplitMix64, min_len: usize, max_len: usize, max_count: u64) -> Vec<u64> {
    let len = usize_in(rng, min_len, max_len);
    (0..len).map(|_| rng.next_below(max_count)).collect()
}

/// One random detection model with parameters drawn from the same
/// boxes the proptest strategies used.
fn detection_model(rng: &mut SplitMix64) -> (DetectionModel, Vec<f64>) {
    match rng.next_below(5) {
        0 => (DetectionModel::Constant, vec![f64_in(rng, 0.01, 0.99)]),
        1 => (
            DetectionModel::PadgettSpurrier,
            vec![f64_in(rng, 0.01, 0.99), f64_in(rng, 0.01, 20.0)],
        ),
        2 => (
            DetectionModel::LogLogistic,
            vec![f64_in(rng, 0.01, 0.99), f64_in(rng, -5.0, 5.0)],
        ),
        3 => (DetectionModel::Pareto, vec![f64_in(rng, 0.01, 0.99)]),
        _ => (
            DetectionModel::Weibull,
            vec![f64_in(rng, 0.01, 0.99), f64_in(rng, 0.01, 0.99)],
        ),
    }
}

/// Every detection model yields probabilities strictly inside (0, 1)
/// on any day.
#[test]
fn detection_probabilities_in_open_unit_interval() {
    let mut rng = SplitMix64::seed_from(0x5EED_0001);
    for _ in 0..CASES {
        let (model, zeta) = detection_model(&mut rng);
        let day = 1 + rng.next_below(9_999);
        let p = model.prob(&zeta, day).unwrap();
        assert!(p > 0.0 && p < 1.0, "{model} day {day}: {p}");
    }
}

/// The joint likelihood factorises into the pointwise binomial terms
/// (Eq. (2) == product of Eq. (1)).
#[test]
fn likelihood_factorisation() {
    let mut rng = SplitMix64::seed_from(0x5EED_0002);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 40, 6)).unwrap();
        let (model, zeta) = detection_model(&mut rng);
        let extra = rng.next_below(200);
        let lik = GroupedLikelihood::new(&data);
        let n = data.total() + extra;
        let probs = model.probs(&zeta, data.len()).unwrap();
        let joint = lik.ln_likelihood(n, &probs);
        let pointwise: f64 = lik.ln_pointwise_all(n, &probs).iter().sum();
        assert!(
            (joint - pointwise).abs() < 1e-7 * joint.abs().max(1.0),
            "joint {joint} vs pointwise {pointwise}"
        );
    }
}

/// Proposition 1 against brute-force Bayes on random data and random
/// schedules.
#[test]
fn poisson_posterior_proposition() {
    let mut rng = SplitMix64::seed_from(0x5EED_0003);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 15, 4)).unwrap();
        let lambda0 = f64_in(&mut rng, 5.0, 80.0);
        let (model, zeta) = detection_model(&mut rng);
        let probs = model.probs(&zeta, data.len()).unwrap();
        let lik = GroupedLikelihood::new(&data);
        let s_k = data.total();
        let post = poisson_posterior(lambda0, &probs, &data);
        // Brute-force over residual r.
        let logs: Vec<f64> = (0..400u64)
            .map(|r| {
                let n = s_k + r;
                let prior = n as f64 * lambda0.ln() - lambda0 - srm::math::ln_factorial(n);
                prior + lik.ln_likelihood(n, &probs)
            })
            .collect();
        let z = srm::math::log_sum_exp(&logs);
        for r in [0u64, 1, 3, 10, 30] {
            let brute = (logs[r as usize] - z).exp();
            let analytic = post.ln_pmf(r).exp();
            assert!(
                (brute - analytic).abs() < 1e-6,
                "r = {r}: brute {brute} vs analytic {analytic}"
            );
        }
    }
}

/// Corrected Proposition 2 against brute-force Bayes.
#[test]
fn nb_posterior_proposition() {
    let mut rng = SplitMix64::seed_from(0x5EED_0004);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 12, 4)).unwrap();
        let alpha0 = f64_in(&mut rng, 0.5, 20.0);
        let beta0 = f64_in(&mut rng, 0.05, 0.95);
        let (model, zeta) = detection_model(&mut rng);
        let probs = model.probs(&zeta, data.len()).unwrap();
        let lik = GroupedLikelihood::new(&data);
        let s_k = data.total();
        let post = nb_posterior(alpha0, beta0, &probs, &data);
        let logs: Vec<f64> = (0..3_000u64)
            .map(|r| {
                let n = s_k + r;
                let prior = srm::math::special::ln_nb_coeff(alpha0, n)
                    + alpha0 * beta0.ln()
                    + n as f64 * (1.0 - beta0).ln();
                prior + lik.ln_likelihood(n, &probs)
            })
            .collect();
        let z = srm::math::log_sum_exp(&logs);
        for r in [0u64, 1, 5, 20] {
            let brute = (logs[r as usize] - z).exp();
            let analytic = post.ln_pmf(r).exp();
            assert!(
                (brute - analytic).abs() < 1e-5,
                "r = {r}: brute {brute} vs analytic {analytic}"
            );
        }
    }
}

/// Posterior summaries are order-consistent for any draw set.
#[test]
fn summary_orderings() {
    let mut rng = SplitMix64::seed_from(0x5EED_0005);
    for _ in 0..CASES {
        let len = usize_in(&mut rng, 1, 400);
        let draws: Vec<f64> = (0..len).map(|_| f64_in(&mut rng, -1e6, 1e6)).collect();
        let s = srm::mcmc::PosteriorSummary::from_draws(&draws);
        assert!(s.min <= s.q1 + 1e-9);
        assert!(s.q1 <= s.median + 1e-9);
        assert!(s.median <= s.q3 + 1e-9);
        assert!(s.q3 <= s.max + 1e-9);
        assert!(s.sd >= 0.0);
        assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        assert_eq!(s.nan_draws, 0);
    }
}

/// Virtual testing (zero-count extension) never increases the
/// analytic posterior mean, for any model and prior parameters.
#[test]
fn virtual_testing_monotone() {
    let mut rng = SplitMix64::seed_from(0x5EED_0006);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 3, 20, 5)).unwrap();
        let lambda0 = f64_in(&mut rng, 10.0, 200.0);
        let (model, zeta) = detection_model(&mut rng);
        let extra = usize_in(&mut rng, 1, 40);
        let extended = data.extended_with_zeros(extra);
        let probs_short = model.probs(&zeta, data.len()).unwrap();
        let probs_long = model.probs(&zeta, extended.len()).unwrap();
        let short = poisson_posterior(lambda0, &probs_short, &data).mean();
        let long = poisson_posterior(lambda0, &probs_long, &extended).mean();
        assert!(
            long <= short + 1e-9,
            "extension raised mean: {short} -> {long}"
        );
    }
}

/// CSV round-trips arbitrary datasets.
#[test]
fn csv_round_trip() {
    let mut rng = SplitMix64::seed_from(0x5EED_0007);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 40, 6)).unwrap();
        let mut buf = Vec::new();
        srm::data::csv::write_counts(&data, &mut buf).unwrap();
        let back = srm::data::csv::read_counts(buf.as_slice()).unwrap();
        assert_eq!(back, data);
    }
}

/// Poisson CDF/quantile are mutually inverse for any mean.
#[test]
fn poisson_quantile_inverts_cdf() {
    let mut rng = SplitMix64::seed_from(0x5EED_0008);
    for _ in 0..CASES {
        let mean = f64_in(&mut rng, 0.1, 500.0);
        let p = f64_in(&mut rng, 0.001, 0.999);
        let d = srm::rand::Poisson::new(mean).unwrap();
        let k = d.quantile(p);
        assert!(d.cdf(k) >= p);
        if k > 0 {
            assert!(d.cdf(k - 1) < p);
        }
    }
}

/// NB CDF/quantile are mutually inverse for any parameters.
#[test]
fn nb_quantile_inverts_cdf() {
    let mut rng = SplitMix64::seed_from(0x5EED_0009);
    for _ in 0..CASES {
        let r = f64_in(&mut rng, 0.2, 60.0);
        let beta = f64_in(&mut rng, 0.05, 0.95);
        let p = f64_in(&mut rng, 0.001, 0.999);
        let d = srm::rand::NegativeBinomial::new(r, beta).unwrap();
        let k = d.quantile(p);
        assert!(d.cdf(k) >= p - 1e-12);
        if k > 0 {
            assert!(d.cdf(k - 1) < p + 1e-12);
        }
    }
}

/// The reliability PGF is monotone in z and respects the endpoint
/// identities for both posterior families.
#[test]
fn pgf_monotone_and_bounded() {
    use srm::model::posterior::ResidualPosterior;
    use srm::model::reliability::pgf;
    let mut rng = SplitMix64::seed_from(0x5EED_000A);
    for _ in 0..CASES {
        let lambda = f64_in(&mut rng, 0.01, 200.0);
        let alpha = f64_in(&mut rng, 0.2, 50.0);
        let beta = f64_in(&mut rng, 0.05, 0.95);
        let z1 = rng.next_f64();
        let z2 = rng.next_f64();
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        for post in [
            ResidualPosterior::Poisson { lambda_k: lambda },
            ResidualPosterior::NegBinomial {
                alpha_k: alpha,
                beta_k: beta,
            },
        ] {
            let a = pgf(&post, lo);
            let b = pgf(&post, hi);
            assert!(a <= b + 1e-12);
            assert!((0.0..=1.0).contains(&a));
            assert!((pgf(&post, 1.0) - 1.0).abs() < 1e-9);
        }
    }
}

/// The forward filter agrees with Proposition 1 for arbitrary data,
/// schedules and Poisson priors.
#[test]
fn forward_filter_matches_proposition_one() {
    use srm::model::markov::{forward_filter, truncated_prior_pmf};
    let mut rng = SplitMix64::seed_from(0x5EED_000B);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 8, 3)).unwrap();
        let lambda0 = f64_in(&mut rng, 2.0, 40.0);
        let mu = f64_in(&mut rng, 0.05, 0.6);
        let probs = vec![mu; data.len()];
        let prior = srm::model::BugPrior::poisson(lambda0).unwrap();
        let pmf = truncated_prior_pmf(&prior, 400);
        let filtered = forward_filter(&pmf, &probs, &data).unwrap();
        let analytic = poisson_posterior(lambda0, &probs, &data);
        assert!((filtered.mean() - analytic.mean()).abs() < 1e-6);
        for r in [0usize, 1, 5] {
            assert!((filtered.residual_pmf[r] - analytic.ln_pmf(r as u64).exp()).abs() < 1e-8);
        }
    }
}

/// Weekly aggregation preserves totals and shrinks length.
#[test]
fn aggregation_invariants() {
    let mut rng = SplitMix64::seed_from(0x5EED_000C);
    for _ in 0..CASES {
        let d = BugCountData::new(counts(&mut rng, 1, 120, 9)).unwrap();
        let width = usize_in(&mut rng, 1, 15);
        let agg = d.aggregated(width);
        assert_eq!(agg.total(), d.total());
        assert_eq!(agg.len(), d.len().div_ceil(width));
    }
}

/// The detection simulator conserves bugs for any schedule.
#[test]
fn simulator_conserves_bugs() {
    let mut rng = SplitMix64::seed_from(0x5EED_000D);
    for _ in 0..CASES {
        let n0 = rng.next_below(500);
        let (model, zeta) = detection_model(&mut rng);
        let horizon = usize_in(&mut rng, 1, 50);
        let seed = rng.next_below(1_000);
        let probs = model.probs(&zeta, horizon).unwrap();
        let project = srm::data::DetectionSimulator::new(n0, probs).run(seed);
        assert_eq!(project.data.total() + project.true_residual, n0);
        assert_eq!(project.data.len(), horizon);
    }
}

/// One random (prior, model) sampler pairing for the MCMC properties.
fn random_sampler(rng: &mut SplitMix64, data: &BugCountData) -> srm::mcmc::GibbsSampler {
    let prior = if rng.next_below(2) == 0 {
        srm::mcmc::PriorSpec::Poisson {
            lambda_max: f64_in(rng, 500.0, 4_000.0),
        }
    } else {
        srm::mcmc::PriorSpec::NegBinomial {
            alpha_max: f64_in(rng, 20.0, 200.0),
        }
    };
    let model = DetectionModel::ALL[rng.next_below(5) as usize];
    srm::mcmc::GibbsSampler::new(prior, model, srm::model::ZetaBounds::default(), data)
}

/// Four worker threads give the bits one worker gives for any seed
/// and prior/model pairing: chain `i` is a pure function of
/// `(seed, i)` regardless of scheduling.
#[test]
fn parallel_chains_bit_identical_to_serial() {
    use srm::mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
    use srm::obs::NOOP;
    let mut rng = SplitMix64::seed_from(0x5EED_000E);
    // MCMC is orders of magnitude costlier than the closed-form
    // properties above, so this property draws fewer cases.
    for _ in 0..6 {
        let data = BugCountData::new(counts(&mut rng, 10, 30, 6)).unwrap();
        if data.total() == 0 {
            continue;
        }
        let sampler = random_sampler(&mut rng, &data);
        let config = McmcConfig {
            chains: 3,
            burn_in: 60,
            samples: 80,
            thin: 1,
            seed: rng.next_below(1 << 40),
        };
        let run = |threads| {
            run_chains_fault_tolerant_traced(
                &sampler,
                &config,
                &RunOptions::with_threads(threads),
                &NOOP,
            )
            .unwrap()
            .output
        };
        let (serial, parallel) = (run(1), run(4));
        assert_eq!(parallel.chains.len(), serial.chains.len());
        for (ca, cb) in serial.chains.iter().zip(&parallel.chains) {
            for name in ca.names() {
                let da = ca.draws(name).unwrap();
                let db = cb.draws(name).unwrap();
                assert!(
                    da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "param {name}"
                );
            }
        }
    }
}

/// The sufficient-statistics cache is exact: cached and uncached
/// sweeps agree to the bit (0 ULP) on random datasets, because the
/// memoised quantities are recomputed in the identical sequential
/// accumulation order.
#[test]
fn cached_sweeps_bit_identical_to_uncached() {
    use srm::mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
    use srm::obs::NOOP;
    let mut rng = SplitMix64::seed_from(0x5EED_000F);
    for _ in 0..6 {
        let data = BugCountData::new(counts(&mut rng, 10, 30, 6)).unwrap();
        if data.total() == 0 {
            continue;
        }
        let cached = random_sampler(&mut rng, &data);
        let uncached = cached.clone().with_cached_stats(false);
        let config = McmcConfig {
            chains: 2,
            burn_in: 60,
            samples: 80,
            thin: 1,
            seed: rng.next_below(1 << 40),
        };
        let run = |sampler| {
            run_chains_fault_tolerant_traced(sampler, &config, &RunOptions::none(), &NOOP)
                .unwrap()
                .output
        };
        let (a, b) = (run(&cached), run(&uncached));
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            for name in ca.names() {
                let da = ca.draws(name).unwrap();
                let db = cb.draws(name).unwrap();
                assert!(
                    da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "param {name}"
                );
            }
        }
    }
}

/// `|kernel − reference| ≤ 1e-12 · max(1, |reference|)` on both
/// collapsed statistics, or bit-equality where the kernel declines
/// its closed forms.
fn assert_kernel_matches_reference(kernel: &CollapsedKernel, zeta: &[f64], what: &str) {
    let fast = kernel.stats(zeta);
    let reference = kernel.reference_stats(zeta);
    if !kernel.fast_path(zeta) {
        assert_eq!(
            (fast.0.to_bits(), fast.1.to_bits()),
            (reference.0.to_bits(), reference.1.to_bits()),
            "{what}: reference path must return the reference value"
        );
        return;
    }
    for (f, r) in [(fast.0, reference.0), (fast.1, reference.1)] {
        assert!(
            (f - r).abs() <= 1e-12 * r.abs().max(1.0),
            "{what} at {zeta:?}: kernel {fast:?} vs reference {reference:?}"
        );
    }
}

/// The closed-form collapsed kernel matches the per-day reference loop
/// for every model over the registry, seeded random datasets and the
/// edge shapes (a single day, an all-zero tail, no bugs at all), at ζ
/// drawn uniformly over the sampler's boxes.
#[test]
fn collapsed_kernel_matches_reference_loop() {
    let mut rng = SplitMix64::seed_from(0x5EED_0010);
    let mut sets: Vec<(String, Vec<u64>)> = srm::data::datasets::all_named()
        .into_iter()
        .map(|(name, data)| (name.to_owned(), data.counts().to_vec()))
        .collect();
    for case in 0..24 {
        let max_count = 1 + rng.next_below(60);
        sets.push((
            format!("random-{case}"),
            counts(&mut rng, 1, 400, max_count),
        ));
    }
    sets.push(("single-day".into(), vec![7]));
    let mut zero_tail = vec![9, 4, 6, 2, 1];
    zero_tail.resize(300, 0);
    sets.push(("zero-tail".into(), zero_tail));
    sets.push(("no-bugs".into(), vec![0; 30]));
    let limits = ZetaBounds::default();
    for (name, series) in &sets {
        for model in DetectionModel::ALL {
            let kernel = CollapsedKernel::new(model, series);
            let bounds = model.bounds(&limits);
            for _ in 0..48 {
                let zeta: Vec<f64> = bounds
                    .iter()
                    .map(|&(lo, hi)| f64_in(&mut rng, lo, hi))
                    .collect();
                assert_kernel_matches_reference(&kernel, &zeta, &format!("{model} on {name}"));
            }
        }
    }
}

/// Wherever the clamp into `[OPEN_EPS, 1 − OPEN_EPS]` binds on some
/// day, the kernel takes the reference path. Probed at every corner of
/// each sampler box (and one step inside it) on a short and a long
/// series, plus pinned values outside model0's box.
#[test]
fn collapsed_kernel_routes_clamp_binding_zeta_to_reference() {
    let limits = ZetaBounds::default();
    let binds = |model: DetectionModel, zeta: &[f64], k: usize| {
        (1..=k as u64).any(|day| {
            let p = model.prob_unchecked(zeta, day);
            p == OPEN_EPS || p == 1.0 - OPEN_EPS
        })
    };
    for series in [vec![3u64; 12], vec![2u64; 500]] {
        let k = series.len();
        for model in DetectionModel::ALL {
            let kernel = CollapsedKernel::new(model, &series);
            let bounds = model.bounds(&limits);
            let mut corners: Vec<Vec<f64>> = vec![Vec::new()];
            for &(lo, hi) in &bounds {
                let inner = 1e-3 * (hi - lo);
                corners = corners
                    .into_iter()
                    .flat_map(|c| {
                        [lo, lo + inner, hi - inner, hi].map(|v| {
                            let mut next = c.clone();
                            next.push(v);
                            next
                        })
                    })
                    .collect();
            }
            if model == DetectionModel::Constant {
                // Pinned parameters may leave the sampler's box.
                corners.extend([vec![1e-12], vec![1.0 - 1e-12]]);
            }
            let mut binding = 0;
            for zeta in &corners {
                if binds(model, zeta, k) {
                    binding += 1;
                    assert!(!kernel.fast_path(zeta), "{model} k={k} at {zeta:?}");
                }
                assert_kernel_matches_reference(&kernel, zeta, &format!("{model} k={k}"));
            }
            if k == 500 {
                assert!(binding > 0, "{model}: no corner binds the clamp");
            }
        }
    }
}

/// The round-off the reference loop itself carries near the clamp, as
/// a term to add to `1e-12 · max(1, |ref|)`: with `m_i = min(p_i, q_i)`
/// and `r_i = s_k − s_i`, `4ε Σ_i (x_i + r_i)/m_i` for `Σ x_i ln w_i`
/// and `4ε Σ_i 1/m_i` for `ln Q` (DESIGN.md §4).
fn reference_round_off(model: DetectionModel, series: &[u64], zeta: &[f64]) -> (f64, f64) {
    let total: u64 = series.iter().sum();
    let mut seen = 0;
    let (mut weighted, mut plain) = (0.0, 0.0);
    for (day, &x) in (1..).zip(series) {
        let p = model.prob_unchecked(zeta, day);
        let m = p.min(1.0 - p);
        seen += x;
        weighted += (x + (total - seen)) as f64 / m;
        plain += 1.0 / m;
    }
    (4.0 * f64::EPSILON * weighted, 4.0 * f64::EPSILON * plain)
}

/// Just inside the clamp, where `p_1`, `p_k`, `q_1` or `q_k` lies in
/// `(OPEN_EPS, 1e-6)`, the closed forms still run but the reference
/// loses `≈ ε / min(p, q)` to cancellation in `1 − μ^a` and `ln(1 − p)`.
/// There the kernel meets `1e-12 · max(1, |ref|)` plus that round-off.
/// ζ is placed in the band by bisecting `μ` against the target.
#[test]
fn collapsed_kernel_near_the_clamp_meets_the_round_off_bound() {
    let mut mixed = vec![50u64, 0, 0, 1, 30, 2, 0, 9];
    mixed.resize(40, 0);
    let sets = [vec![7u64], vec![3; 12], vec![2; 500], mixed];
    let cases: [(DetectionModel, &[f64]); 7] = [
        (DetectionModel::Constant, &[]),
        (DetectionModel::LogLogistic, &[0.0]),
        (DetectionModel::LogLogistic, &[-5.0]),
        (DetectionModel::LogLogistic, &[5.0]),
        (DetectionModel::Pareto, &[]),
        (DetectionModel::Weibull, &[0.2]),
        (DetectionModel::Weibull, &[0.9]),
    ];
    let mut in_band = [0usize; 5];
    for series in &sets {
        let k = series.len() as u64;
        for (model, rest) in cases {
            let kernel = CollapsedKernel::new(model, series);
            let zeta_at = |mu: f64| [&[mu][..], rest].concat();
            for target in [2e-9, 1e-8, 1e-7, 5e-7] {
                for (day, of_q) in [(1, false), (k, false), (1, true), (k, true)] {
                    let end = |mu: f64| {
                        let p = model.prob_unchecked(&zeta_at(mu), day);
                        if of_q {
                            1.0 - p
                        } else {
                            p
                        }
                    };
                    let (mut lo, mut hi) = (1e-12, 1.0 - 1e-15);
                    let below_at_lo = end(lo) < target;
                    for _ in 0..200 {
                        let mid = 0.5 * (lo + hi);
                        if (end(mid) < target) == below_at_lo {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    let zeta = zeta_at(lo);
                    let reached = end(lo);
                    if !(reached > OPEN_EPS && reached < 1e-6 && kernel.fast_path(&zeta)) {
                        continue;
                    }
                    in_band[model.id()] += 1;
                    let fast = kernel.stats(&zeta);
                    let reference = kernel.reference_stats(&zeta);
                    let (slack_w, slack_q) = reference_round_off(model, series, &zeta);
                    for (f, r, slack) in [
                        (fast.0, reference.0, slack_w),
                        (fast.1, reference.1, slack_q),
                    ] {
                        assert!(
                            (f - r).abs() <= 1e-12 * r.abs().max(1.0) + slack,
                            "{model} k={k} at {zeta:?}: kernel {fast:?} vs reference {reference:?}"
                        );
                    }
                }
            }
        }
    }
    for model in [
        DetectionModel::LogLogistic,
        DetectionModel::Pareto,
        DetectionModel::Weibull,
    ] {
        assert!(in_band[model.id()] > 0, "{model}: no ζ reached the band");
    }
}

/// `DetectionModel::probs_into`, which carries model4's `(i−1)^ω` over
/// from day `i−1`, equals the day-by-day `prob_unchecked` schedule bit
/// for bit, for any dataset length and ζ in the sampler's boxes, also
/// when the buffer is reused.
#[test]
fn probs_into_bit_identical_to_per_day_schedule() {
    let mut rng = SplitMix64::seed_from(0x5EED_0011);
    let limits = ZetaBounds::default();
    let mut buf = Vec::new();
    for _ in 0..CASES {
        let horizon = 1 + rng.next_below(300) as usize;
        let model = DetectionModel::ALL[rng.next_below(5) as usize];
        let zeta: Vec<f64> = model
            .bounds(&limits)
            .iter()
            .map(|&(lo, hi)| f64_in(&mut rng, lo, hi))
            .collect();
        model.probs_into(&zeta, horizon, &mut buf).unwrap();
        assert_eq!(buf.len(), horizon);
        assert!(
            buf.iter()
                .zip(1..)
                .all(|(p, day)| p.to_bits() == model.prob_unchecked(&zeta, day).to_bits()),
            "{model} at {zeta:?}"
        );
    }
}

/// The pointwise WAIC term, through the shared ln-factorial cache or
/// an accumulator's private table, equals Eq. (1) written out with
/// `ln_binomial` bit for bit, zero-count days included.
#[test]
fn tabled_pointwise_bit_identical() {
    use srm::math::special::ln_binomial;
    let mut rng = SplitMix64::seed_from(0x5EED_0012);
    let mut table = Vec::new();
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 60, 5)).unwrap();
        let (model, zeta) = detection_model(&mut rng);
        let probs = model.probs(&zeta, data.len()).unwrap();
        let lik = GroupedLikelihood::new(&data);
        let n = data.total() + rng.next_below(400);
        while table.len() as u64 <= n {
            table.push(srm::math::special::ln_factorial(table.len() as u64));
        }
        for day in 1..=data.len() {
            let x = data.counts()[day - 1];
            let s_prev = if day == 1 {
                0
            } else {
                data.cumulative()[day - 2]
            };
            let trials = n - s_prev;
            let p = probs[day - 1];
            let eq1 =
                ln_binomial(trials, x) + x as f64 * p.ln() + (trials - x) as f64 * (1.0 - p).ln();
            let cached = lik.ln_pointwise(n, &probs, day);
            let tabled = lik.ln_pointwise_tabled(n, &probs, day, &table);
            assert_eq!(eq1.to_bits(), cached.to_bits(), "{model} day {day}");
            assert_eq!(eq1.to_bits(), tabled.to_bits(), "{model} day {day}");
        }
    }
}
