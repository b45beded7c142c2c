//! `srm predict` — release-readiness prediction: reliability and
//! expected detections over a future horizon.

use crate::args::{ArgError, Args};
use crate::commands::{load_data, parse_mcmc, parse_model, parse_prior};
use srm_core::{predict_from_fit, Fit, FitConfig};
use srm_mcmc::runner::RunOptions;

const FLAGS: &[&str] = &[
    "data",
    "dataset",
    "model",
    "prior",
    "horizon",
    "chains",
    "samples",
    "burn-in",
    "thin",
    "seed",
    "lambda-max",
    "alpha-max",
];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags or unreadable data.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(raw, FLAGS, &[])?;
    let data = load_data(&args)?;
    let model = parse_model(&args)?;
    let prior = parse_prior(&args)?;
    let mcmc = parse_mcmc(&args)?;
    let horizon: usize = args.get_parsed("horizon", 30usize)?;
    if horizon == 0 {
        return Err(ArgError("`--horizon` must be positive".into()));
    }

    let fit = Fit::try_run(
        prior,
        model,
        &data,
        &FitConfig {
            mcmc,
            ..FitConfig::default()
        },
        &RunOptions::none(),
    )
    .map_err(|e| ArgError(format!("fit failed: {e}")))?
    .fit;

    let prediction = predict_from_fit(&fit, &data, horizon)
        .map_err(|e| ArgError(format!("prediction failed: {e}")))?;
    let curve = &prediction.reliability;
    let expected = prediction.expected_detections;

    let mut out = String::new();
    out.push_str(&format!(
        "posterior residual after day {}: mean {:.2}, sd {:.2}\n",
        data.len(),
        fit.residual.mean,
        fit.residual.sd
    ));
    out.push_str(&format!(
        "expected detections in the next {horizon} days: {expected:.2}\n\n"
    ));
    out.push_str("reliability R(h) = P(no detection within h days):\n");
    for (h, r) in curve.iter().enumerate() {
        if (h + 1) % 5 == 0 || h == 0 || h + 1 == horizon {
            out.push_str(&format!("  h = {:3}: {:.4}\n", h + 1, r));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn predict_reports_reliability() {
        let path = std::env::temp_dir().join("srm_cli_predict_test.csv");
        let mut f = std::fs::File::create(&path).unwrap();
        for (day, count) in srm_data::datasets::musa_cc96().iter() {
            writeln!(f, "{day},{count}").unwrap();
        }
        let raw: Vec<String> = [
            "predict",
            "--data",
            path.to_str().unwrap(),
            "--model",
            "model1",
            "--horizon",
            "10",
            "--chains",
            "1",
            "--samples",
            "300",
            "--burn-in",
            "100",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = run(&raw).unwrap();
        assert!(out.contains("reliability R(h)"));
        assert!(out.contains("h =  10"));
    }

    #[test]
    fn zero_horizon_rejected() {
        let raw: Vec<String> = ["predict", "--data", "x.csv", "--horizon", "0"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        // The data flag is checked after horizon parsing? No: data is
        // loaded first, so use an existing file to reach the check.
        let path = std::env::temp_dir().join("srm_cli_predict_zero.csv");
        std::fs::write(&path, "1,2\n2,1\n").unwrap();
        let raw2: Vec<String> = [
            "predict",
            "--data",
            path.to_str().unwrap(),
            "--horizon",
            "0",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(run(&raw2).is_err());
        let _ = raw;
    }
}
