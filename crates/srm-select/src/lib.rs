//! Model selection for the Bayesian discrete-time SRMs.
//!
//! The paper's §4: AIC/BIC are invalid for the Bayesian fits (no
//! maximum-likelihood estimate exists under the hierarchical priors),
//! so the widely applicable information criterion (WAIC, Watanabe
//! 2010) drives both the detection-model ranking (Table I) and the
//! choice of the hyper-prior limits `λ_max`, `α_max`, `θ_max`.
//!
//! * [`waic`] — WAIC accumulated over the stored MCMC draws
//!   (Eqs. (23)–(25)), and the one replay loop over those draws;
//! * [`loo`] — importance-sampling LOO-CV over the same replay;
//! * [`dic`] — the deviance information criterion, as a secondary
//!   check;
//! * [`grid`] — hyper-parameter grid search minimising WAIC.
//!
//! # Examples
//!
//! ```
//! use srm_data::datasets;
//! use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
//! use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, RunOptions};
//! use srm_model::{DetectionModel, ZetaBounds};
//! use srm_obs::NOOP;
//! use srm_select::waic::waic_from_output_traced;
//!
//! let data = datasets::musa_cc96().truncated(48).unwrap();
//! let sampler = GibbsSampler::new(
//!     PriorSpec::Poisson { lambda_max: 1000.0 },
//!     DetectionModel::Constant,
//!     ZetaBounds::default(),
//!     &data,
//! );
//! let run = run_chains_fault_tolerant_traced(&sampler, &McmcConfig::smoke(1), &RunOptions::none(), &NOOP)
//!     .unwrap();
//! let waic = waic_from_output_traced(&sampler, &run.output, &NOOP).unwrap();
//! assert!(waic.total().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dic;
pub mod grid;
pub mod loo;
pub mod waic;

pub use grid::{GridSearch, GridSearchResult};
pub use loo::{loo_from_output, Loo, LooAccumulator};
pub use waic::{replay_draws, waic_from_output_traced, Waic, WaicAccumulator};
