//! The five bug-detection-probability models (Eqs. (3)–(7)).
//!
//! Each model maps a small parameter vector `ζ` and a testing day
//! `i ≥ 1` to the probability `p_i` that any given remaining bug is
//! detected on that day. `model0` is the homogeneous environment; the
//! rest describe heterogeneous testing with time-varying probability.

/// Error raised when a detection model is evaluated with an invalid
/// parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The parameter vector has the wrong length.
    WrongDimension {
        /// The model whose evaluation failed.
        model: DetectionModel,
        /// Expected parameter count.
        expected: usize,
        /// Received parameter count.
        got: usize,
    },
    /// A parameter violates its admissible range.
    OutOfRange {
        /// Name of the parameter.
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongDimension {
                model,
                expected,
                got,
            } => write!(
                f,
                "{} expects {expected} parameters, got {got}",
                model.name()
            ),
            Self::OutOfRange {
                name,
                value,
                constraint,
            } => write!(f, "parameter `{name}` = {value} {constraint}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Upper limits of the uniform hyper-priors on the detection-model
/// parameters (the paper's `θ_max`, plus a symmetric bound for
/// model2's real-valued `γ` which the paper leaves implicit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZetaBounds {
    /// Upper limit for model1's `θ` (`θ ~ Uniform(0, θ_max)`).
    pub theta_max: f64,
    /// Symmetric limit for model2's `γ` (`γ ~ Uniform(−γ_max, γ_max)`).
    pub gamma_max: f64,
}

impl Default for ZetaBounds {
    fn default() -> Self {
        Self {
            theta_max: 10.0,
            gamma_max: 10.0,
        }
    }
}

/// Numerical margin keeping `μ`, `ω` strictly inside their open
/// intervals during sampling/optimisation.
pub const OPEN_EPS: f64 = 1e-9;

/// The five detection-probability models of the paper.
///
/// # Examples
///
/// ```
/// use srm_model::DetectionModel;
///
/// // model0: homogeneous testing, p_i = μ on every day.
/// let p = DetectionModel::Constant.prob(&[0.3], 17).unwrap();
/// assert_eq!(p, 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionModel {
    /// model0: `p_i = μ` (homogeneous testing).
    Constant,
    /// model1: `p_i = 1 − μ/(θ i + 1)` (Padgett–Spurrier).
    PadgettSpurrier,
    /// model2: `p_i = (1 − μ)/(μ^{ln i − γ + 1} + 1)` (discrete
    /// log-logistic hazard).
    LogLogistic,
    /// model3: `p_i = 1 − μ^{ln((i+2)/(i+1))}` (discrete Pareto
    /// hazard).
    Pareto,
    /// model4: `p_i = 1 − μ^{i^ω − (i−1)^ω}` (discrete Weibull
    /// hazard).
    Weibull,
}

impl DetectionModel {
    /// All five models in paper order (`model0`…`model4`).
    pub const ALL: [Self; 5] = [
        Self::Constant,
        Self::PadgettSpurrier,
        Self::LogLogistic,
        Self::Pareto,
        Self::Weibull,
    ];

    /// The paper's index (0–4).
    #[must_use]
    pub fn id(&self) -> usize {
        match self {
            Self::Constant => 0,
            Self::PadgettSpurrier => 1,
            Self::LogLogistic => 2,
            Self::Pareto => 3,
            Self::Weibull => 4,
        }
    }

    /// The paper's label, `"model0"`…`"model4"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Constant => "model0",
            Self::PadgettSpurrier => "model1",
            Self::LogLogistic => "model2",
            Self::Pareto => "model3",
            Self::Weibull => "model4",
        }
    }

    /// Number of parameters in `ζ`.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Self::Constant | Self::Pareto => 1,
            Self::PadgettSpurrier | Self::LogLogistic | Self::Weibull => 2,
        }
    }

    /// Parameter names, in the order `ζ` is laid out.
    #[must_use]
    pub fn param_names(&self) -> &'static [&'static str] {
        match self {
            Self::Constant | Self::Pareto => &["mu"],
            Self::PadgettSpurrier => &["mu", "theta"],
            Self::LogLogistic => &["mu", "gamma"],
            Self::Weibull => &["mu", "omega"],
        }
    }

    /// Box bounds of the uniform priors on `ζ`, given the
    /// hyper-parameter limits.
    #[must_use]
    pub fn bounds(&self, limits: &ZetaBounds) -> Vec<(f64, f64)> {
        let unit = (OPEN_EPS, 1.0 - OPEN_EPS);
        match self {
            Self::Constant | Self::Pareto => vec![unit],
            Self::PadgettSpurrier => vec![unit, (OPEN_EPS, limits.theta_max)],
            Self::LogLogistic => vec![unit, (-limits.gamma_max, limits.gamma_max)],
            Self::Weibull => vec![unit, unit],
        }
    }

    /// Validates a parameter vector against dimension and ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] describing the first violation found.
    pub fn validate(&self, zeta: &[f64]) -> Result<(), ModelError> {
        if zeta.len() != self.dim() {
            return Err(ModelError::WrongDimension {
                model: *self,
                expected: self.dim(),
                got: zeta.len(),
            });
        }
        let mu = zeta[0];
        if !(mu > 0.0 && mu < 1.0 && mu.is_finite()) {
            return Err(ModelError::OutOfRange {
                name: "mu",
                value: mu,
                constraint: "must be in (0, 1)",
            });
        }
        match self {
            Self::PadgettSpurrier => {
                let theta = zeta[1];
                if !(theta > 0.0 && theta.is_finite()) {
                    return Err(ModelError::OutOfRange {
                        name: "theta",
                        value: theta,
                        constraint: "must be > 0",
                    });
                }
            }
            Self::LogLogistic => {
                let gamma = zeta[1];
                if !gamma.is_finite() {
                    return Err(ModelError::OutOfRange {
                        name: "gamma",
                        value: gamma,
                        constraint: "must be finite",
                    });
                }
            }
            Self::Weibull => {
                let omega = zeta[1];
                if !(omega > 0.0 && omega < 1.0 && omega.is_finite()) {
                    return Err(ModelError::OutOfRange {
                        name: "omega",
                        value: omega,
                        constraint: "must be in (0, 1)",
                    });
                }
            }
            Self::Constant | Self::Pareto => {}
        }
        Ok(())
    }

    /// Detection probability `p_i` on (1-based) day `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `zeta` is invalid or `day` is 0.
    pub fn prob(&self, zeta: &[f64], day: u64) -> Result<f64, ModelError> {
        self.validate(zeta)?;
        if day == 0 {
            return Err(ModelError::OutOfRange {
                name: "day",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(self.prob_unchecked(zeta, day))
    }

    /// Detection probability without validation; parameters must have
    /// passed [`DetectionModel::validate`] and `day >= 1`. Hot path of
    /// the samplers.
    #[must_use]
    pub fn prob_unchecked(&self, zeta: &[f64], day: u64) -> f64 {
        // Keep strictly inside (0, 1): the likelihood takes ln p and
        // ln q, and boundary values only arise from round-off here.
        self.raw_prob(zeta, day).clamp(OPEN_EPS, 1.0 - OPEN_EPS)
    }

    /// `p_i` before the clamp into `[OPEN_EPS, 1 − OPEN_EPS]`; the
    /// collapsed kernel reads it at the two ends of the schedule to
    /// decide whether the clamp binds anywhere.
    pub(crate) fn raw_prob(&self, zeta: &[f64], day: u64) -> f64 {
        let i = day as f64;
        let mu = zeta[0];
        match self {
            Self::Constant => mu,
            Self::PadgettSpurrier => 1.0 - mu / (zeta[1] * i + 1.0),
            Self::LogLogistic => {
                let gamma = zeta[1];
                (1.0 - mu) / (mu.powf(i.ln() - gamma + 1.0) + 1.0)
            }
            Self::Pareto => 1.0 - mu.powf(((i + 2.0) / (i + 1.0)).ln()),
            Self::Weibull => {
                let omega = zeta[1];
                1.0 - mu.powf(i.powf(omega) - (i - 1.0).powf(omega))
            }
        }
    }

    /// The probability schedule `p_1, …, p_horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `zeta` is invalid.
    pub fn probs(&self, zeta: &[f64], horizon: usize) -> Result<Vec<f64>, ModelError> {
        let mut buf = Vec::with_capacity(horizon);
        self.probs_into(zeta, horizon, &mut buf)?;
        Ok(buf)
    }

    /// [`DetectionModel::probs`] written into `buf` (cleared first), so
    /// a loop over many draws can reuse one buffer. model4 carries
    /// `(i−1)^ω` over from day `i−1` instead of recomputing it; the
    /// values are the bits [`DetectionModel::prob_unchecked`] gives.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `zeta` is invalid.
    pub fn probs_into(
        &self,
        zeta: &[f64],
        horizon: usize,
        buf: &mut Vec<f64>,
    ) -> Result<(), ModelError> {
        self.validate(zeta)?;
        buf.clear();
        if *self == Self::Weibull {
            let (mu, omega) = (zeta[0], zeta[1]);
            let mut pow_prev = 0.0f64.powf(omega);
            buf.extend((1..=horizon).map(|i| {
                let pow_here = (i as f64).powf(omega);
                let p = 1.0 - mu.powf(pow_here - pow_prev);
                pow_prev = pow_here;
                p.clamp(OPEN_EPS, 1.0 - OPEN_EPS)
            }));
        } else {
            buf.extend((1..=horizon as u64).map(|i| self.prob_unchecked(zeta, i)));
        }
        Ok(())
    }
}

impl std::fmt::Display for DetectionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_names_dims_consistent() {
        for (idx, m) in DetectionModel::ALL.iter().enumerate() {
            assert_eq!(m.id(), idx);
            assert_eq!(m.name(), format!("model{idx}"));
            assert_eq!(m.dim(), m.param_names().len());
            assert_eq!(m.dim(), m.bounds(&ZetaBounds::default()).len());
        }
    }

    #[test]
    fn constant_model_flat_schedule() {
        let probs = DetectionModel::Constant.probs(&[0.42], 10).unwrap();
        assert!(probs.iter().all(|&p| (p - 0.42).abs() < 1e-12));
    }

    #[test]
    fn padgett_spurrier_increases_to_one() {
        let m = DetectionModel::PadgettSpurrier;
        let zeta = [0.9, 0.5];
        let probs = m.probs(&zeta, 200).unwrap();
        for w in probs.windows(2) {
            assert!(w[1] >= w[0], "schedule must be nondecreasing");
        }
        // p_1 = 1 − 0.9/1.5 = 0.4; p_∞ → 1.
        assert!((probs[0] - 0.4).abs() < 1e-12);
        assert!(probs[199] > 0.98);
    }

    #[test]
    fn pareto_hazard_decays() {
        let m = DetectionModel::Pareto;
        let probs = m.probs(&[0.3], 100).unwrap();
        for w in probs.windows(2) {
            assert!(w[1] <= w[0], "Pareto hazard must decay");
        }
        // p_1 = 1 − 0.3^{ln(3/2)}.
        let expected = 1.0 - 0.3f64.powf((3.0f64 / 2.0).ln());
        assert!((probs[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn weibull_hazard_decays_for_omega_below_one() {
        let probs = DetectionModel::Weibull.probs(&[0.5, 0.4], 50).unwrap();
        for w in probs.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // p_1 = 1 − μ.
        assert!((probs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log_logistic_limits() {
        let m = DetectionModel::LogLogistic;
        let zeta = [0.4, 0.0];
        let probs = m.probs(&zeta, 2_000).unwrap();
        // As i → ∞ the hazard rises to 1 − μ.
        assert!((probs[1_999] - 0.6).abs() < 0.02);
        // Finite everywhere and inside (0, 1).
        assert!(probs.iter().all(|&p| p > 0.0 && p < 1.0));
    }

    #[test]
    fn gamma_shifts_log_logistic_curve() {
        let m = DetectionModel::LogLogistic;
        let lo = m.prob(&[0.4, -2.0], 5).unwrap();
        let hi = m.prob(&[0.4, 2.0], 5).unwrap();
        // Larger γ shrinks the exponent of μ^{ln i − γ + 1}; with
        // μ < 1 that grows the denominator, lowering p.
        assert!(hi < lo, "hi = {hi}, lo = {lo}");
    }

    #[test]
    fn probabilities_always_in_open_unit_interval() {
        let cases: Vec<(DetectionModel, Vec<f64>)> = vec![
            (DetectionModel::Constant, vec![1.0 - 1e-12]),
            (DetectionModel::PadgettSpurrier, vec![0.999_999, 1e-6]),
            (DetectionModel::LogLogistic, vec![0.001, 9.0]),
            (DetectionModel::Pareto, vec![0.999_999]),
            (DetectionModel::Weibull, vec![0.999_999, 0.999_999]),
        ];
        for (m, zeta) in cases {
            for day in [1u64, 2, 10, 1_000] {
                let p = m.prob_unchecked(&zeta, day);
                assert!(p > 0.0 && p < 1.0, "{m} day {day}: p = {p}");
            }
        }
    }

    #[test]
    fn validation_rejects_wrong_dimension() {
        let err = DetectionModel::PadgettSpurrier
            .validate(&[0.5])
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::WrongDimension {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(DetectionModel::Constant.validate(&[0.0]).is_err());
        assert!(DetectionModel::Constant.validate(&[1.0]).is_err());
        assert!(DetectionModel::PadgettSpurrier
            .validate(&[0.5, 0.0])
            .is_err());
        assert!(DetectionModel::Weibull.validate(&[0.5, 1.0]).is_err());
        assert!(DetectionModel::LogLogistic
            .validate(&[0.5, f64::INFINITY])
            .is_err());
    }

    #[test]
    fn day_zero_rejected() {
        let err = DetectionModel::Constant.prob(&[0.5], 0).unwrap_err();
        assert!(err.to_string().contains("day"));
    }

    #[test]
    fn bounds_respect_limits() {
        let limits = ZetaBounds {
            theta_max: 25.0,
            gamma_max: 3.0,
        };
        let b1 = DetectionModel::PadgettSpurrier.bounds(&limits);
        assert_eq!(b1[1].1, 25.0);
        let b2 = DetectionModel::LogLogistic.bounds(&limits);
        assert_eq!(b2[1], (-3.0, 3.0));
    }

    #[test]
    fn display_uses_paper_labels() {
        assert_eq!(DetectionModel::Pareto.to_string(), "model3");
    }
}
