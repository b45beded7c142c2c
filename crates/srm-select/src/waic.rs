//! WAIC (Eqs. (23)–(25)) computed by streaming over MCMC draws.
//!
//! The pointwise model probability is the binomial factor of Eq. (1),
//! `p(x_i | ω) = Binom(x_i; N − s_{i−1}, p_i)`, evaluated at each
//! posterior draw `ω = (N, ζ)`. Two accumulators run per observation:
//! a streaming log-sum-exp for `ln Ê_ω[p(x_i | ω)]` (learning loss)
//! and Welford moments of `ln p(x_i | ω)` (functional variance).
//!
//! Scaling note: Eq. (23) defines `WAIC = T_k + V_k/k` with the
//! *average* learning loss `T_k`. The values in the paper's Table I
//! grow with `k` and are consistent with the *total* scale
//! `k·T_k + V_k`; [`Waic::total`] reports that (what our Table I
//! regenerator prints) and [`Waic::per_observation`] reports the
//! literal Eq. (23).

use srm_math::accum::RunningMoments;
use srm_math::logsumexp::StreamingLogSumExp;
use srm_math::special::ln_factorial;
use srm_mcmc::gibbs::GibbsSampler;
use srm_mcmc::runner::McmcOutput;
use srm_mcmc::SrmError;
use srm_model::GroupedLikelihood;
use srm_obs::{Event, Recorder, Span};

/// Largest `N` (exclusive) whose `ln n!` values an accumulator copies
/// into its private table (8 MiB at the limit); larger `N` read the
/// shared cache.
const LN_FACT_TABLE_LIMIT: u64 = 1 << 20;

/// Streaming WAIC accumulator over posterior draws.
#[derive(Debug, Clone)]
pub struct WaicAccumulator {
    lik: GroupedLikelihood,
    predictive: Vec<StreamingLogSumExp>,
    log_terms: Vec<RunningMoments>,
    /// `ln n!` for `n` up to the largest `N` seen so far, bit-identical
    /// to the shared cache but read without its lock.
    ln_fact: Vec<f64>,
}

impl WaicAccumulator {
    /// Creates an accumulator for the given data window.
    #[must_use]
    pub fn new(data: &srm_data::BugCountData) -> Self {
        let lik = GroupedLikelihood::new(data);
        let k = lik.horizon();
        Self {
            lik,
            predictive: vec![StreamingLogSumExp::new(); k],
            log_terms: vec![RunningMoments::new(); k],
            ln_fact: Vec::new(),
        }
    }

    /// Feeds one posterior draw: the current `N` and detection
    /// schedule.
    pub fn add_draw(&mut self, n: u64, probs: &[f64]) {
        let tabled = n < LN_FACT_TABLE_LIMIT;
        if tabled {
            // Grows once per new largest `N`; each entry is the shared
            // cache's value, so the table reproduces its bits.
            while self.ln_fact.len() as u64 <= n {
                self.ln_fact.push(ln_factorial(self.ln_fact.len() as u64));
            }
        }
        for day in 1..=self.lik.horizon() {
            let ln_p = if tabled {
                self.lik.ln_pointwise_tabled(n, probs, day, &self.ln_fact)
            } else {
                self.lik.ln_pointwise(n, probs, day)
            };
            self.predictive[day - 1].add(ln_p);
            // A −inf pointwise term would put zero predictive mass on
            // observed data; it cannot arise from valid sampler states
            // (N ≥ s_k) but is clamped defensively for the variance.
            self.log_terms[day - 1].push(ln_p.max(-1e300));
        }
    }

    /// Number of draws consumed.
    #[must_use]
    pub fn draws(&self) -> u64 {
        self.predictive.first().map_or(0, StreamingLogSumExp::count)
    }

    /// Finalises the criterion.
    ///
    /// # Panics
    ///
    /// Panics when no draws were fed.
    #[must_use]
    pub fn finish(&self) -> Waic {
        assert!(self.draws() > 0, "WAIC requires at least one draw");
        let k = self.lik.horizon() as f64;
        let mut learning_loss_total = 0.0; // Σ −ln Ê[p(x_i)]
        let mut functional_variance = 0.0; // Σ Var[ln p(x_i)]
        let mut lppd = 0.0;
        let mut pointwise = Vec::with_capacity(self.lik.horizon());
        for (pred, moments) in self.predictive.iter().zip(&self.log_terms) {
            let ln_mean = pred.log_mean();
            learning_loss_total -= ln_mean;
            lppd += ln_mean;
            let var_i = moments.population_variance();
            functional_variance += var_i;
            // Per-observation contribution on the total scale:
            // −ln Ê[p(x_i)] + Var[ln p(x_i)].
            pointwise.push(-ln_mean + var_i);
        }
        Waic {
            learning_loss: learning_loss_total / k,
            functional_variance,
            observations: self.lik.horizon(),
            lppd,
            pointwise,
        }
    }
}

/// The finalised WAIC decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Waic {
    /// `T_k`: average learning loss (Eq. (24)).
    pub learning_loss: f64,
    /// `V_k`: total functional variance (Eq. (25)).
    pub functional_variance: f64,
    /// Number of observations `k`.
    pub observations: usize,
    /// Log pointwise predictive density `Σ ln Ê[p(x_i)]` (Gelman's
    /// `lppd`, for cross-checks).
    pub lppd: f64,
    /// Per-observation contributions on the total scale
    /// (`Σ pointwise = total()`), used for the standard error.
    pub pointwise: Vec<f64>,
}

impl Waic {
    /// The literal Eq. (23): `T_k + V_k / k`.
    #[must_use]
    pub fn per_observation(&self) -> f64 {
        self.learning_loss + self.functional_variance / self.observations as f64
    }

    /// The table scale: `k·T_k + V_k` (matches the magnitudes of the
    /// paper's Table I).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.observations as f64 * self.per_observation()
    }

    /// The effective number of parameters in Gelman's convention
    /// (`p_waic = V_k`).
    #[must_use]
    pub fn p_waic(&self) -> f64 {
        self.functional_variance
    }

    /// Standard error of [`Waic::total`] over observations
    /// (`√(k · Var(pointwise))`, Vehtari–Gelman–Gabry convention):
    /// WAIC differences smaller than a couple of SEs are noise.
    #[must_use]
    pub fn se(&self) -> f64 {
        let k = self.pointwise.len() as f64;
        if k < 2.0 {
            return 0.0;
        }
        let mean = self.pointwise.iter().sum::<f64>() / k;
        let var = self
            .pointwise
            .iter()
            .map(|v| (v - mean).powi(2))
            .sum::<f64>()
            / (k - 1.0);
        (k * var).sqrt()
    }
}

/// Computes WAIC by replaying the stored draws of `output` (see
/// [`replay_draws`]), under a `waic` phase span, and emits an
/// [`Event::Waic`] on success. Pass [`srm_obs::NOOP`] as the recorder
/// for an untraced evaluation; the criterion is bit-identical for any
/// recorder.
///
/// # Errors
///
/// Propagates the replay errors of [`replay_draws`].
pub fn waic_from_output_traced(
    sampler: &GibbsSampler,
    output: &McmcOutput,
    recorder: &dyn Recorder,
) -> Result<Waic, SrmError> {
    let span = Span::enter(recorder, "waic");
    let result = {
        let _profile = srm_obs::profile::span("waic");
        let mut acc = WaicAccumulator::new(&reconstruct_data(sampler));
        replay_draws(sampler, output, |n, probs| acc.add_draw(n, probs))
            .map(|draws| (acc.finish(), draws))
    };
    span.end();
    let (waic, draws) = result?;
    if recorder.enabled() {
        recorder.record(&Event::Waic {
            model: sampler.model().name().to_owned(),
            total: waic.total(),
            p_waic: waic.p_waic(),
            draws,
        });
    }
    Ok(waic)
}

/// Replays recorded chains draw by draw, in chain order and then draw
/// order: each draw's detection schedule `p_1..p_k` is rebuilt from
/// its stored `ζ` and handed to `add_draw` with its `N`. Returns the
/// number of draws replayed.
///
/// The schedule is a deterministic function of `ζ`, so any
/// accumulator fed this way sees the same values for any thread count
/// the chains ran on, and the fault-tolerant pipeline can score
/// whatever chains survived a degraded run.
///
/// # Errors
///
/// Returns [`SrmError::MissingParameter`] when a chain lacks `n` or a
/// detection parameter, [`SrmError::DegeneratePosterior`] when a
/// stored `ζ` is outside the model's domain, and
/// [`SrmError::InvalidConfig`] when `output` holds no draws at all.
pub fn replay_draws(
    sampler: &GibbsSampler,
    output: &McmcOutput,
    mut add_draw: impl FnMut(u64, &[f64]),
) -> Result<usize, SrmError> {
    let zeta_names = sampler.model().param_names();
    let horizon = sampler.likelihood().horizon();
    let mut zeta = vec![0.0; zeta_names.len()];
    let mut probs = Vec::with_capacity(horizon);
    let mut draws = 0;
    for (ci, chain) in output.chains.iter().enumerate() {
        let n_draws = chain.draws("n").ok_or_else(|| SrmError::MissingParameter {
            parameter: "n".into(),
            chain: ci,
        })?;
        let zeta_cols: Vec<&[f64]> = zeta_names
            .iter()
            .map(|nm| {
                chain.draws(nm).ok_or_else(|| SrmError::MissingParameter {
                    parameter: (*nm).to_owned(),
                    chain: ci,
                })
            })
            .collect::<Result<_, _>>()?;
        for t in 0..n_draws.len() {
            for (j, col) in zeta_cols.iter().enumerate() {
                zeta[j] = col[t];
            }
            sampler
                .model()
                .probs_into(&zeta, horizon, &mut probs)
                .map_err(|e| SrmError::DegeneratePosterior {
                    detail: format!("replayed zeta outside model domain: {e:?}"),
                    sweep: t,
                })?;
            add_draw(n_draws[t] as u64, &probs);
        }
        draws += n_draws.len();
    }
    if draws == 0 {
        return Err(SrmError::InvalidConfig {
            detail: "draw replay over empty output".into(),
        });
    }
    Ok(draws)
}

/// The sampler holds its data only through the likelihood evaluator;
/// rebuild an equivalent `BugCountData` for an accumulator.
pub(crate) fn reconstruct_data(sampler: &GibbsSampler) -> srm_data::BugCountData {
    // The sampler can only be built from non-empty data.
    srm_data::BugCountData::new(sampler.likelihood().counts().to_vec())
        .unwrap_or_else(|_| unreachable!())
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;
    use srm_mcmc::gibbs::PriorSpec;
    use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
    use srm_model::{DetectionModel, ZetaBounds};
    use srm_obs::NOOP;

    fn waic_at(sampler: &GibbsSampler, config: &McmcConfig, threads: usize) -> Waic {
        let run = run_chains_fault_tolerant_traced(
            sampler,
            config,
            &RunOptions::with_threads(threads),
            &NOOP,
        )
        .unwrap();
        waic_from_output_traced(sampler, &run.output, &NOOP).unwrap()
    }

    fn smoke_waic(prior: PriorSpec, model: DetectionModel, day: usize, seed: u64) -> Waic {
        let data = datasets::musa_cc96().truncated(day).unwrap();
        let sampler = GibbsSampler::new(prior, model, ZetaBounds::default(), &data);
        waic_at(&sampler, &McmcConfig::smoke(seed), 0)
    }

    #[test]
    fn accumulator_counts_draws() {
        let data = datasets::musa_cc96().truncated(10).unwrap();
        let mut acc = WaicAccumulator::new(&data);
        let probs = vec![0.05; 10];
        acc.add_draw(200, &probs);
        acc.add_draw(210, &probs);
        assert_eq!(acc.draws(), 2);
        let waic = acc.finish();
        assert_eq!(waic.observations, 10);
        assert!(waic.total().is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one draw")]
    fn empty_accumulator_panics() {
        let data = datasets::musa_cc96().truncated(5).unwrap();
        let _ = WaicAccumulator::new(&data).finish();
    }

    #[test]
    fn single_parameter_draw_has_zero_variance() {
        // Identical draws ⇒ functional variance 0, learning loss =
        // −(1/k) Σ ln p(x_i | ω).
        let data = datasets::musa_cc96().truncated(10).unwrap();
        let mut acc = WaicAccumulator::new(&data);
        let probs = vec![0.05; 10];
        for _ in 0..50 {
            acc.add_draw(200, &probs);
        }
        let waic = acc.finish();
        assert!(waic.functional_variance.abs() < 1e-18);
        let lik = GroupedLikelihood::new(&data);
        let direct: f64 = lik.ln_pointwise_all(200, &probs).iter().sum();
        assert!((waic.lppd - direct).abs() < 1e-9);
        assert!((waic.total() + direct).abs() < 1e-9);
    }

    #[test]
    fn table_scale_consistency() {
        let w = Waic {
            learning_loss: 3.5,
            functional_variance: 12.0,
            observations: 48,
            lppd: -168.0,
            pointwise: vec![3.75; 48],
        };
        assert!((w.per_observation() - (3.5 + 0.25)).abs() < 1e-12);
        assert!((w.total() - 48.0 * 3.75).abs() < 1e-12);
        assert_eq!(w.p_waic(), 12.0);
        // Identical pointwise terms ⇒ zero standard error.
        assert_eq!(w.se(), 0.0);
    }

    #[test]
    fn pointwise_sums_to_total_and_se_positive() {
        let data = datasets::musa_cc96().truncated(20).unwrap();
        let mut acc = WaicAccumulator::new(&data);
        let probs = vec![0.05; 20];
        for n in 0..200u64 {
            acc.add_draw(150 + (n % 60), &probs);
        }
        let w = acc.finish();
        let sum: f64 = w.pointwise.iter().sum();
        assert!((sum - w.total()).abs() < 1e-9, "{sum} vs {}", w.total());
        assert!(w.se() > 0.0);
    }

    #[test]
    fn waic_magnitude_matches_paper_order() {
        // Table I reports ~170 for 48 days. The absolute level scales
        // with the dispersion of the daily counts (our synthetic
        // stand-in is smoother than the real Musa dailies), so assert
        // the same order of magnitude — tens to a few hundred nats —
        // rather than the exact level.
        let w = smoke_waic(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            48,
            11,
        );
        let total = w.total();
        assert!(
            (20.0..400.0).contains(&total),
            "WAIC total = {total} out of expected band"
        );
        // Per-observation loss must be a small positive number of nats.
        let per = w.per_observation();
        assert!((0.2..8.0).contains(&per), "per-obs = {per}");
    }

    #[test]
    fn waic_is_bit_identical_across_thread_counts() {
        let data = datasets::musa_cc96().truncated(20).unwrap();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let config = McmcConfig {
            chains: 3,
            burn_in: 80,
            samples: 120,
            thin: 1,
            seed: 707,
        };
        let serial = waic_at(&sampler, &config, 1);
        let parallel = waic_at(&sampler, &config, 4);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn replay_of_empty_output_is_a_typed_error() {
        let data = datasets::musa_cc96().truncated(20).unwrap();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let empty = McmcOutput { chains: Vec::new() };
        let err = waic_from_output_traced(&sampler, &empty, &NOOP).unwrap_err();
        assert!(matches!(err, SrmError::InvalidConfig { .. }));
    }

    #[test]
    fn model1_beats_model3_on_musa_data() {
        // The paper's central ranking: the Padgett–Spurrier model
        // dominates the Pareto model at every observation point.
        let w1 = smoke_waic(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::PadgettSpurrier,
            48,
            21,
        );
        let w3 = smoke_waic(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Pareto,
            48,
            22,
        );
        assert!(
            w1.total() < w3.total(),
            "model1 {} should beat model3 {}",
            w1.total(),
            w3.total()
        );
    }
}
