//! Closed-form collapsed-likelihood kernel.
//!
//! The collapsed Gibbs sweep needs, at every candidate `ζ`, the two
//! sufficient statistics
//!
//! ```text
//! (Σ_i x_i ln w_i,  ln Q)   with  w_i = p_i Π_{j<i} q_j,  ln Q = Σ_i ln q_i
//! ```
//!
//! Writing `C_i = Σ_{j≤i} ln q_j` and `r_j = s_k − s_j`, the first one
//! splits as `Σ_i x_i ln p_i + Σ_i x_i C_{i−1}`, and exchanging the
//! double sum gives `Σ_i x_i C_{i−1} = Σ_j r_j ln q_j`. Every curve of
//! Eqs. (3)–(7) is a discretised survival function, so `ln q_j` is a
//! difference that telescopes:
//!
//! | curve  | `ln q_j`                          | `ln Q`                | `Σ_j r_j ln q_j`                 |
//! |--------|-----------------------------------|-----------------------|----------------------------------|
//! | model0 | `ln(1−μ)`                         | `k ln(1−μ)`           | `ln(1−μ) Σ_i x_i (i−1)`          |
//! | model3 | `ln μ · ln((j+2)/(j+1))`          | `ln μ · ln((k+2)/2)`  | `ln μ Σ_j r_j ln((j+2)/(j+1))`   |
//! | model4 | `ln μ · (j^ω − (j−1)^ω)`          | `ln μ · k^ω`          | `ln μ Σ_i x_i (i−1)^ω`           |
//!
//! so model0 costs O(1) and model3/model4 a pass over the days with
//! `x_i > 0` only (for `ln p_i`). model2 keeps a per-day loop over a
//! `ln i` table. model1's `ln q_j = ln(μ/(θj+1))` does not telescope,
//! so it always runs the reference loop. [`CollapsedKernel`] holds the
//! day tables, built once per dataset.
//!
//! The reference loop ([`CollapsedKernel::reference_stats`]) evaluates
//! the clamped `p_i` of [`DetectionModel::prob_unchecked`] day by day.
//! The closed forms are used only when `ζ` is in the model's domain
//! and the clamp cannot bind: every curve is monotone in `i`, so it is
//! enough that `p_1` and `p_k` lie strictly inside
//! `(OPEN_EPS, 1 − OPEN_EPS)`. Otherwise the kernel returns the
//! reference loop's value. Where they run, the closed forms agree with
//! the reference to `1e-12 · max(1, |ref|)` while every `p_i` and `q_i`
//! is well above `1e-3`; closer to the clamp the reference's own
//! cancellation in `1 − μ^a` and `ln(1 − p)`, `≈ ε / min(p, q)`, widens
//! the gap (DESIGN.md §4 states the full bound).

use crate::detection::{DetectionModel, OPEN_EPS};

/// Day-constant tables of one dataset for evaluating the collapsed
/// statistics of one detection model.
///
/// # Examples
///
/// ```
/// use srm_model::{CollapsedKernel, DetectionModel};
///
/// let kernel = CollapsedKernel::new(DetectionModel::Pareto, &[4, 0, 3, 1]);
/// let (fast, reference) = (kernel.stats(&[0.6]), kernel.reference_stats(&[0.6]));
/// assert!((fast.0 - reference.0).abs() < 1e-12 * reference.0.abs().max(1.0));
/// assert!((fast.1 - reference.1).abs() < 1e-12 * reference.1.abs().max(1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CollapsedKernel {
    model: DetectionModel,
    /// `x_i` as exact `f64`s (values < 2^53).
    counts: Vec<f64>,
    /// `ln i`, day `i = 1..=k` at index `i − 1`.
    ln_day: Vec<f64>,
    /// `ln((i+2)/(i+1))`, model3's per-day exponent.
    pareto_exp: Vec<f64>,
    /// 0-based indices of the days with `x_i > 0`.
    nonzero: Vec<usize>,
    /// `s_k`.
    total: f64,
    /// `Σ_i x_i (i−1) = Σ_j r_j`.
    day_weight: f64,
    /// `Σ_j r_j ln((j+2)/(j+1))`.
    pareto_weight: f64,
    /// `ln((k+2)/2) = Σ_j ln((j+2)/(j+1))`.
    pareto_total: f64,
}

impl CollapsedKernel {
    /// Builds the tables for `model` over the daily counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    #[must_use]
    pub fn new(model: DetectionModel, counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "kernel needs at least one day");
        let k = counts.len();
        let counts: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let ln_day: Vec<f64> = (1..=k).map(|i| (i as f64).ln()).collect();
        // The same expression as `DetectionModel::raw_prob`, so table
        // reads reproduce its bits.
        let pareto_exp: Vec<f64> = (1..=k)
            .map(|i| {
                let i = i as f64;
                ((i + 2.0) / (i + 1.0)).ln()
            })
            .collect();
        let nonzero = (0..k).filter(|&d| counts[d] > 0.0).collect();
        let total: f64 = counts.iter().sum();
        let mut day_weight = 0.0;
        let mut pareto_weight = 0.0;
        let mut cum = 0.0;
        for d in 0..k {
            cum += counts[d];
            let r = total - cum;
            day_weight += r;
            pareto_weight += r * pareto_exp[d];
        }
        Self {
            model,
            counts,
            ln_day,
            pareto_exp,
            nonzero,
            total,
            day_weight,
            pareto_weight,
            pareto_total: ((k as f64 + 2.0) / 2.0).ln(),
        }
    }

    /// Number of days `k`.
    fn horizon(&self) -> usize {
        self.counts.len()
    }

    /// Whether [`CollapsedKernel::stats`] takes the closed forms at
    /// `zeta` (otherwise it runs the reference loop): the model has
    /// them (all but model1), `ζ` is valid for it and `p_1`, `p_k` lie
    /// strictly inside `(OPEN_EPS, 1 − OPEN_EPS)`, so the clamp binds
    /// on no day.
    #[must_use]
    pub fn fast_path(&self, zeta: &[f64]) -> bool {
        let inside = |p: f64| p > OPEN_EPS && p < 1.0 - OPEN_EPS;
        self.model != DetectionModel::PadgettSpurrier
            && self.model.validate(zeta).is_ok()
            && inside(self.model.raw_prob(zeta, 1))
            && inside(self.model.raw_prob(zeta, self.horizon() as u64))
    }

    /// `(Σ x_i ln w_i, ln Π q_i)` at `zeta`: the closed forms where
    /// [`CollapsedKernel::fast_path`] holds, the reference loop
    /// elsewhere.
    #[must_use]
    pub fn stats(&self, zeta: &[f64]) -> (f64, f64) {
        let mu = zeta[0];
        match self.model {
            // model1's `ln q_i` does not telescope: its per-day loop is
            // the reference loop, which needs no clamp guard.
            DetectionModel::PadgettSpurrier => self.reference_stats(zeta),
            _ if !self.fast_path(zeta) => self.reference_stats(zeta),
            DetectionModel::Constant => {
                let ln_q = (1.0 - mu).ln();
                (
                    self.total * mu.ln() + ln_q * self.day_weight,
                    self.horizon() as f64 * ln_q,
                )
            }
            DetectionModel::LogLogistic => self.log_logistic(mu, zeta[1]),
            DetectionModel::Pareto => {
                let ln_mu = mu.ln();
                let mut sum_x_ln_p = 0.0;
                for &d in &self.nonzero {
                    sum_x_ln_p += self.counts[d] * (-(ln_mu * self.pareto_exp[d]).exp()).ln_1p();
                }
                (
                    sum_x_ln_p + ln_mu * self.pareto_weight,
                    ln_mu * self.pareto_total,
                )
            }
            DetectionModel::Weibull => self.weibull(mu.ln(), zeta[1]),
        }
    }

    /// model2: with `e_i = μ^{ln i − γ + 1}`, `ln q_i = ln(e_i + μ) −
    /// ln(1 + e_i)` and `ln p_i = ln(1 − μ) − ln(1 + e_i)`.
    fn log_logistic(&self, mu: f64, gamma: f64) -> (f64, f64) {
        let ln_mu = mu.ln();
        let ln_1m_mu = (1.0 - mu).ln();
        let mut cum_ln_q = 0.0;
        let mut sum_x_ln_w = 0.0;
        for (&x, &ln_i) in self.counts.iter().zip(&self.ln_day) {
            let e = (ln_mu * (ln_i - gamma + 1.0)).exp();
            let ln_1p_e = e.ln_1p();
            if x > 0.0 {
                sum_x_ln_w += x * (ln_1m_mu - ln_1p_e + cum_ln_q);
            }
            cum_ln_q += (e + mu).ln() - ln_1p_e;
        }
        (sum_x_ln_w, cum_ln_q)
    }

    /// model4: `ln Q = ln μ · k^ω` and `Σ_j r_j ln q_j = ln μ Σ_i x_i
    /// (i−1)^ω`; `i^ω = exp(ω ln i)` is only formed on days with
    /// `x_i > 0`, reusing day `i−1`'s power on consecutive days.
    fn weibull(&self, ln_mu: f64, omega: f64) -> (f64, f64) {
        let pow = |d: usize| (omega * self.ln_day[d]).exp();
        let mut sum_x_ln_p = 0.0;
        let mut sum_x_pow_prev = 0.0;
        // (day index, its power) of the last nonzero day visited.
        let mut last: Option<(usize, f64)> = None;
        for &d in &self.nonzero {
            let pow_prev = match (d, last) {
                (0, _) => 0.0,
                (_, Some((l, p))) if l + 1 == d => p,
                _ => pow(d - 1),
            };
            let pow_here = pow(d);
            last = Some((d, pow_here));
            let x = self.counts[d];
            sum_x_ln_p += x * (-(ln_mu * (pow_here - pow_prev)).exp()).ln_1p();
            sum_x_pow_prev += x * pow_prev;
        }
        (
            sum_x_ln_p + ln_mu * sum_x_pow_prev,
            ln_mu * pow(self.horizon() - 1),
        )
    }

    /// The reference oracle: one pass over the clamped schedule of
    /// [`DetectionModel::prob_unchecked`], accumulating
    /// `Σ x_i (ln p_i + C_{i−1})` and `C_k` day by day.
    #[must_use]
    pub fn reference_stats(&self, zeta: &[f64]) -> (f64, f64) {
        let mut cum_ln_q = 0.0;
        let mut sum_x_ln_w = 0.0;
        for (i, &x) in self.counts.iter().enumerate() {
            let p = self.model.prob_unchecked(zeta, (i + 1) as u64);
            if x > 0.0 {
                sum_x_ln_w += x * (p.ln() + cum_ln_q);
            }
            cum_ln_q += (1.0 - p).ln();
        }
        (sum_x_ln_w, cum_ln_q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    #[test]
    fn closed_forms_match_reference_on_a_small_series() {
        let counts = [5u64, 0, 3, 3, 0, 0, 1, 2, 0, 1];
        let cases: [(DetectionModel, &[f64]); 5] = [
            (DetectionModel::Constant, &[0.12]),
            (DetectionModel::PadgettSpurrier, &[0.8, 0.3]),
            (DetectionModel::LogLogistic, &[0.4, 1.5]),
            (DetectionModel::Pareto, &[0.3]),
            (DetectionModel::Weibull, &[0.6, 0.4]),
        ];
        for (model, zeta) in cases {
            let kernel = CollapsedKernel::new(model, &counts);
            assert_eq!(
                kernel.fast_path(zeta),
                model != DetectionModel::PadgettSpurrier,
                "{model}"
            );
            let (fast, reference) = (kernel.stats(zeta), kernel.reference_stats(zeta));
            assert!(
                close(fast.0, reference.0),
                "{model}: {fast:?} vs {reference:?}"
            );
            assert!(
                close(fast.1, reference.1),
                "{model}: {fast:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn clamp_binding_zeta_takes_the_reference_path() {
        let counts = [2u64; 200];
        let kernel = CollapsedKernel::new(DetectionModel::Weibull, &counts);
        // ω → 0 drives p_k towards 0, far past the clamp.
        let zeta = [0.5, OPEN_EPS];
        assert!(!kernel.fast_path(&zeta));
        assert_eq!(kernel.stats(&zeta), kernel.reference_stats(&zeta));
    }
}
