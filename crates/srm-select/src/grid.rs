//! Hyper-parameter grid search minimising WAIC.
//!
//! The paper tunes the uniform hyper-prior upper limits
//! (`λ_max`, `α_max`, `θ_max`) "so as to minimise WAIC". This module
//! runs the Gibbs sampler for every candidate combination (one cell
//! after another, each cell's chains on the runner's bounded pool)
//! and returns the winner with the full score table.

use crate::waic::{waic_from_output_traced, Waic};
use srm_data::BugCountData;
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
use srm_mcmc::SrmError;
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::NOOP;

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Candidate prior limit (`λ_max` or `α_max`).
    pub prior_limit: f64,
    /// Candidate `θ_max` (also bounds model2's `γ` symmetric range).
    pub theta_max: f64,
    /// The WAIC obtained with these limits.
    pub waic: Waic,
}

/// The grid-search outcome: the winning cell plus the whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Best (minimum total-WAIC) cell.
    pub best: GridCell,
    /// All evaluated cells, in grid order.
    pub cells: Vec<GridCell>,
}

/// Grid-search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// Candidate values for the prior limit (`λ_max` for the Poisson
    /// prior, `α_max` for the NB prior).
    pub prior_limits: Vec<f64>,
    /// Candidate values for `θ_max` (ignored for models without a
    /// second bounded-above parameter — the grid collapses to the
    /// first value).
    pub theta_maxes: Vec<f64>,
    /// MCMC run length per cell (short smoke runs are customary —
    /// WAIC differences across limits are coarse).
    pub mcmc: McmcConfig,
}

impl GridSearch {
    /// The default paper-style candidate grid.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        Self {
            prior_limits: vec![500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0],
            theta_maxes: vec![1.0, 10.0, 100.0],
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 500,
                samples: 1_000,
                thin: 1,
                seed,
            },
        }
    }

    /// Whether `model` has a `θ`-like bounded parameter, i.e. whether
    /// the `θ_max` axis matters.
    fn theta_axis_active(model: DetectionModel) -> bool {
        matches!(
            model,
            DetectionModel::PadgettSpurrier | DetectionModel::LogLogistic
        )
    }

    /// Runs the search for one (prior family, detection model, data)
    /// combination. Cells are scored in grid order; each cell's chains
    /// run on the runner's bounded worker pool, so the result does not
    /// depend on the thread count.
    ///
    /// # Errors
    ///
    /// Returns the first cell's error when every chain of that cell is
    /// lost or its WAIC replay fails.
    ///
    /// # Panics
    ///
    /// Panics if either candidate list is empty.
    pub fn run(
        &self,
        poisson_prior: bool,
        model: DetectionModel,
        data: &BugCountData,
    ) -> Result<GridSearchResult, SrmError> {
        assert!(!self.prior_limits.is_empty(), "empty prior-limit grid");
        assert!(!self.theta_maxes.is_empty(), "empty theta grid");
        let thetas: &[f64] = if Self::theta_axis_active(model) {
            &self.theta_maxes
        } else {
            &self.theta_maxes[..1]
        };
        let mut cells = Vec::with_capacity(self.prior_limits.len() * thetas.len());
        for &limit in &self.prior_limits {
            for &theta_max in thetas {
                let prior = if poisson_prior {
                    PriorSpec::Poisson { lambda_max: limit }
                } else {
                    PriorSpec::NegBinomial { alpha_max: limit }
                };
                let bounds = ZetaBounds {
                    theta_max,
                    gamma_max: theta_max.max(1.0),
                };
                let sampler = GibbsSampler::new(prior, model, bounds, data);
                let run = run_chains_fault_tolerant_traced(
                    &sampler,
                    &self.mcmc,
                    &RunOptions::none(),
                    &NOOP,
                )?;
                cells.push(GridCell {
                    prior_limit: limit,
                    theta_max,
                    waic: waic_from_output_traced(&sampler, &run.output, &NOOP)?,
                });
            }
        }

        // The grid always has at least one cell; the fallback index
        // is unreachable.
        let best = cells
            .iter()
            .min_by(|a, b| a.waic.total().total_cmp(&b.waic.total()))
            .unwrap_or_else(|| unreachable!())
            .clone();
        Ok(GridSearchResult { best, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;

    fn tiny_grid(seed: u64) -> GridSearch {
        GridSearch {
            prior_limits: vec![500.0, 3_000.0],
            theta_maxes: vec![1.0, 20.0],
            mcmc: McmcConfig {
                chains: 1,
                burn_in: 150,
                samples: 300,
                thin: 1,
                seed,
            },
        }
    }

    #[test]
    fn grid_collapses_theta_axis_for_one_parameter_models() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let r = tiny_grid(41)
            .run(true, DetectionModel::Constant, &data)
            .unwrap();
        assert_eq!(r.cells.len(), 2); // θ axis inert for model0
        let r = tiny_grid(42)
            .run(true, DetectionModel::PadgettSpurrier, &data)
            .unwrap();
        assert_eq!(r.cells.len(), 4);
    }

    #[test]
    fn best_cell_is_argmin() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let r = tiny_grid(43)
            .run(false, DetectionModel::Constant, &data)
            .unwrap();
        let min = r
            .cells
            .iter()
            .map(|c| c.waic.total())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(r.best.waic.total(), min);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let a = tiny_grid(44)
            .run(true, DetectionModel::Constant, &data)
            .unwrap();
        let b = tiny_grid(44)
            .run(true, DetectionModel::Constant, &data)
            .unwrap();
        assert_eq!(a, b);
    }
}
