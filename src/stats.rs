//! Small numeric helpers for the experiment harnesses.

/// Result of an ordinary-least-squares line fit `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept.
    pub a: f64,
    /// Slope.
    pub b: f64,
    /// Coefficient of determination, in [0, 1].
    pub r2: f64,
}

/// Least-squares fit over `(x, y)` samples.
///
/// # Panics
/// Panics if fewer than two samples are given or all x are equal.
pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate x values");
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a + b * p.0)).powi(2)).sum();
    let r2 = if ss_tot <= 1e-12 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    LinearFit { a, b, r2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_fits_exactly() {
        let pts: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 + 2.0 * x as f64)).collect();
        let f = linear_fit(&pts);
        assert!((f.a - 3.0).abs() < 1e-9);
        assert!((f.b - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let pts = vec![(0.0, 0.0), (1.0, 5.0), (2.0, 1.0), (3.0, 8.0)];
        let f = linear_fit(&pts);
        assert!(f.r2 < 0.9);
    }

    #[test]
    fn flat_data_r2_is_one() {
        let pts = vec![(0.0, 4.0), (1.0, 4.0), (2.0, 4.0)];
        let f = linear_fit(&pts);
        assert!(f.b.abs() < 1e-9);
        assert_eq!(f.r2, 1.0);
    }
}
