//! # wavm3-stats — numerical substrate
//!
//! Everything the WAVM3 regression methodology needs, implemented from
//! scratch: dense matrices with QR and Cholesky factorisations, ordinary
//! least squares, Levenberg–Marquardt non-linear least squares (the paper's
//! "Non Linear Least Square algorithm", §VI-F), the paper's error metrics
//! (MAE / RMSE / NRMSE), descriptive statistics, and the repetition
//! stopping rule (variance delta < 10 %, §V-B).

//! ## Example
//!
//! ```
//! use wavm3_stats::{fit_ols, nrmse, Matrix};
//!
//! // Fit y = 2 + 3x and score the fit.
//! let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| 2.0 + 3.0 * r[1]).collect();
//! let fit = fit_ols(&Matrix::from_nested(rows.clone()), &y).unwrap();
//! assert!((fit.coefficients[1] - 3.0).abs() < 1e-9);
//! let pred: Vec<f64> = rows.iter().map(|r| fit.predict(r)).collect();
//! assert!(nrmse(&pred, &y) < 1e-12);
//! ```

pub mod descriptive;
pub mod matrix;
pub mod metrics;
pub mod nlls;
pub mod ols;

pub use descriptive::{Summary, VarianceStopper};
pub use matrix::Matrix;
pub use metrics::{mae, max_abs_error, nrmse, nrmse_range, r_squared, rmse, ErrorReport};
pub use nlls::{levenberg_marquardt, LmOptions, LmOutcome};
pub use ols::{fit_ols, OlsFit};
