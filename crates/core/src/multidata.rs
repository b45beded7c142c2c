//! Multi-dataset comparison (the paper's §6: "the comparison between
//! the Poisson and negative binomial priors should be made with more
//! data sets").
//!
//! Runs the same (prior × model) design on several datasets and
//! aggregates per-dataset results, so the prior comparison can be
//! read across growth shapes rather than from one sample.

use crate::fit::{Fit, FitConfig};
use srm_data::BugCountData;
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::RunOptions;
use srm_mcmc::SrmError;
use srm_model::DetectionModel;

/// One dataset's results: a fit per prior.
#[derive(Debug, Clone)]
pub struct DatasetComparison {
    /// Dataset name.
    pub name: String,
    /// Total bugs in the dataset.
    pub total: u64,
    /// One fit per prior, in the order supplied.
    pub fits: Vec<Fit>,
}

impl DatasetComparison {
    /// The fit whose prior has the given label.
    #[must_use]
    pub fn fit(&self, prior_label: &str) -> Option<&Fit> {
        self.fits.iter().find(|f| f.prior.label() == prior_label)
    }
}

/// Aggregated outcome of a multi-dataset run.
#[derive(Debug, Clone)]
pub struct MultiDatasetResults {
    /// Per-dataset comparisons, in input order.
    pub datasets: Vec<DatasetComparison>,
}

impl MultiDatasetResults {
    /// Number of datasets on which the first prior's posterior sd is
    /// at most the second prior's (the paper's headline, counted
    /// across datasets).
    ///
    /// # Panics
    ///
    /// Panics if any dataset has fewer than two fits.
    #[must_use]
    pub fn sd_wins_of_first_prior(&self) -> usize {
        self.datasets
            .iter()
            .filter(|d| {
                assert!(d.fits.len() >= 2, "need two priors per dataset");
                d.fits[0].residual.sd <= d.fits[1].residual.sd
            })
            .count()
    }

    /// Mean (over datasets) of the log sd ratio
    /// `ln(sd_second / sd_first)`; positive favours the first prior.
    #[must_use]
    pub fn mean_log_sd_ratio(&self) -> f64 {
        let mut acc = 0.0;
        for d in &self.datasets {
            acc += (d.fits[1].residual.sd.max(1e-12) / d.fits[0].residual.sd.max(1e-12)).ln();
        }
        acc / self.datasets.len() as f64
    }
}

/// Fits `model` with every prior on every named dataset.
///
/// # Errors
///
/// Returns the first fit's error (see [`Fit::try_run`]).
///
/// # Panics
///
/// Panics if `priors` or `datasets` is empty.
pub fn compare_across_datasets(
    datasets: &[(&str, BugCountData)],
    priors: &[PriorSpec],
    model: DetectionModel,
    config: &FitConfig,
) -> Result<MultiDatasetResults, SrmError> {
    assert!(!datasets.is_empty(), "no datasets supplied");
    assert!(!priors.is_empty(), "no priors supplied");
    let comparisons = datasets
        .iter()
        .map(|(name, data)| {
            let fits = priors
                .iter()
                .map(|&prior| {
                    Fit::try_run(prior, model, data, config, &RunOptions::none()).map(|r| r.fit)
                })
                .collect::<Result<_, _>>()?;
            Ok(DatasetComparison {
                name: (*name).to_owned(),
                total: data.total(),
                fits,
            })
        })
        .collect::<Result<_, SrmError>>()?;
    Ok(MultiDatasetResults {
        datasets: comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_mcmc::runner::McmcConfig;

    fn quick_config(seed: u64) -> FitConfig {
        FitConfig {
            mcmc: McmcConfig {
                chains: 1,
                burn_in: 150,
                samples: 400,
                thin: 1,
                seed,
            },
            ..FitConfig::default()
        }
    }

    fn two_priors() -> Vec<PriorSpec> {
        vec![
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            PriorSpec::NegBinomial { alpha_max: 100.0 },
        ]
    }

    #[test]
    fn runs_over_all_datasets_and_priors() {
        let named: Vec<(&str, BugCountData)> = srm_data::datasets::all_named()
            .into_iter()
            .take(3)
            .collect();
        let results = compare_across_datasets(
            &named,
            &two_priors(),
            DetectionModel::Constant,
            &quick_config(901),
        )
        .unwrap();
        assert_eq!(results.datasets.len(), 3);
        for d in &results.datasets {
            assert_eq!(d.fits.len(), 2);
            assert!(d.fit("poisson").is_some());
            assert!(d.fit("negbinom").is_some());
            assert!(d.fit("nonsense").is_none());
            assert!(d.total > 0);
        }
        let wins = results.sd_wins_of_first_prior();
        assert!(wins <= 3);
        assert!(results.mean_log_sd_ratio().is_finite());
    }

    #[test]
    #[should_panic(expected = "no datasets")]
    fn empty_datasets_panic() {
        let _ = compare_across_datasets(
            &[],
            &two_priors(),
            DetectionModel::Constant,
            &quick_config(902),
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let named: Vec<(&str, BugCountData)> = srm_data::datasets::all_named()
            .into_iter()
            .take(1)
            .collect();
        let a = compare_across_datasets(
            &named,
            &two_priors(),
            DetectionModel::Constant,
            &quick_config(903),
        )
        .unwrap();
        let b = compare_across_datasets(
            &named,
            &two_priors(),
            DetectionModel::Constant,
            &quick_config(903),
        )
        .unwrap();
        assert_eq!(
            a.datasets[0].fits[0].residual,
            b.datasets[0].fits[0].residual
        );
    }
}
