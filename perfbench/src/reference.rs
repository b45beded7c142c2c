//! Reference posterior means of the `fit-grid` cells on `musa_cc96`:
//! `(cell, mean of the residual's posterior mean, its standard
//! deviation)` over [`REFERENCE_RUNS`] independent fits at the grid's
//! run length.
//!
//! Regenerate with `cargo run --release -- reference`; it prints the
//! table.

/// Independent seeds behind each reference entry.
pub const REFERENCE_RUNS: usize = 40;

pub const GRID_REFERENCE: [(&str, f64, f64); 10] = [
    ("model0-poisson", 1189.3941, 52.1723941034892),
    ("model0-negbinom", 3392.3435124999946, 9722.352792666637),
    ("model1-poisson", 69.09650000000002, 13.335189078389929),
    ("model1-negbinom", 54.21616250000003, 1.801893033719799),
    ("model2-poisson", 920.4130374999999, 348.52548985443525),
    ("model2-negbinom", 1277.6999999999998, 652.0245184862633),
    ("model3-poisson", 1524.1170125, 15.254677253512098),
    ("model3-negbinom", 6826.5611875, 3160.481028388244),
    ("model4-poisson", 1212.0118874999998, 60.82118704242652),
    ("model4-negbinom", 1913.6339999999993, 767.8361554192904),
];
