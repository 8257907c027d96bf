//! Ordinary least squares on a design matrix.

use crate::matrix::Matrix;
use crate::metrics::ErrorReport;
use serde::{Deserialize, Serialize};

/// A fitted linear model `y ≈ X β` (the caller decides whether `X` contains
/// an intercept column).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OlsFit {
    /// Fitted coefficients, one per design-matrix column.
    pub coefficients: Vec<f64>,
    /// In-sample error report.
    pub training_error: ErrorReport,
}

impl OlsFit {
    /// Predict for one feature row. Panics on length mismatch.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature length mismatch"
        );
        features
            .iter()
            .zip(&self.coefficients)
            .map(|(x, b)| x * b)
            .sum()
    }
}

/// Fit `y ≈ X β` by QR least squares. Returns `None` when `X` is
/// rank-deficient (e.g. a feature is constant *and* an intercept column is
/// present, or two features are collinear).
pub fn fit_ols(x: &Matrix, y: &[f64]) -> Option<OlsFit> {
    let coefficients = x.solve_least_squares(y)?;
    let pred = x.matvec(&coefficients);
    let training_error = ErrorReport::compute(&pred, y);
    Some(OlsFit {
        coefficients,
        training_error,
    })
}

/// Prepend an intercept column of ones to raw feature rows.
pub fn design_with_intercept(rows: &[Vec<f64>]) -> Matrix {
    let augmented: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            let mut v = Vec::with_capacity(r.len() + 1);
            v.push(1.0);
            v.extend_from_slice(r);
            v
        })
        .collect();
    Matrix::from_nested(augmented)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_law() {
        // y = 10 + 2 a − 3 b.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let a = i as f64 * 0.1;
                let b = (i as f64 * 0.37).sin();
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 + 2.0 * r[0] - 3.0 * r[1])
            .collect();
        let x = design_with_intercept(&rows);
        let fit = fit_ols(&x, &y).unwrap();
        assert!((fit.coefficients[0] - 10.0).abs() < 1e-9);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[2] + 3.0).abs() < 1e-9);
        assert!(fit.training_error.rmse < 1e-9);
        assert!((fit.predict(&[1.0, 5.0, 0.0]) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_is_unbiased_enough() {
        // Deterministic pseudo-noise, zero-mean.
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 * 0.05]).collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 4.0 + 1.5 * r[0] + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let x = design_with_intercept(&rows);
        let fit = fit_ols(&x, &y).unwrap();
        assert!((fit.coefficients[0] - 4.0).abs() < 0.05);
        assert!((fit.coefficients[1] - 1.5).abs() < 0.02);
        assert!(fit.training_error.r_squared > 0.98);
    }

    #[test]
    fn collinear_features_rejected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let x = Matrix::from_nested(rows);
        assert!(fit_ols(&x, &y).is_none());
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn predict_wrong_arity_panics() {
        let x = design_with_intercept(&[vec![1.0], vec![2.0]]);
        let fit = fit_ols(&x, &[1.0, 2.0]).unwrap();
        fit.predict(&[1.0, 2.0, 3.0]);
    }
}
