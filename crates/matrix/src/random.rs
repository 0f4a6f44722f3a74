//! Deterministic workload generators.
//!
//! The paper evaluates on dense random matrices ("the Hessenberg reduction
//! algorithm is application agnostic"). Every generator here takes an
//! explicit seed so that experiments, tests and fault-injection campaigns
//! are bit-for-bit reproducible.

use crate::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-1.0, 1.0);
    Matrix::from_fn(rows, cols, |_, _| dist.sample(&mut rng))
}

/// Standard Gaussian random matrix (Box–Muller; avoids a `rand_distr`
/// dependency).
pub fn gaussian(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(f64::EPSILON, 1.0);
    let mut spare: Option<f64> = None;
    Matrix::from_fn(rows, cols, |_, _| {
        if let Some(v) = spare.take() {
            return v;
        }
        let u1: f64 = dist.sample(&mut rng);
        let u2: f64 = dist.sample(&mut rng);
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        spare = Some(r * s);
        r * c
    })
}

/// Symmetric random matrix `(B + Bᵀ) / 2` with `B` uniform.
pub fn symmetric(n: usize, seed: u64) -> Matrix {
    let b = uniform(n, n, seed);
    Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]))
}

/// Diagonally dominant random matrix (well conditioned; every eigenvalue
/// bounded away from zero).
pub fn diag_dominant(n: usize, seed: u64) -> Matrix {
    let mut a = uniform(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] = row_sum + 1.0;
    }
    a
}

/// Random upper Hessenberg matrix (already reduced; useful for testing the
/// eigensolver and for no-op reduction edge cases).
pub fn hessenberg(n: usize, seed: u64) -> Matrix {
    let mut a = uniform(n, n, seed);
    for j in 0..n {
        for i in (j + 2)..n {
            a[(i, j)] = 0.0;
        }
    }
    a
}

/// A matrix with known real eigenvalues: `P D P⁻¹` is expensive without a
/// solver, so instead we return an upper triangular matrix with the given
/// diagonal plus random strictly-upper content. Its eigenvalues are exactly
/// `diag`.
pub fn triangular_with_eigenvalues(diag: &[f64], seed: u64) -> Matrix {
    let n = diag.len();
    let mut a = uniform(n, n, seed);
    for j in 0..n {
        for i in j..n {
            a[(i, j)] = if i == j { diag[i] } else { 0.0 };
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = uniform(16, 16, 42);
        let b = uniform(16, 16, 42);
        let c = uniform(16, 16, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_range() {
        let a = uniform(50, 50, 7);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn gaussian_moments_roughly_standard() {
        let a = gaussian(100, 100, 11);
        let n = (a.rows() * a.cols()) as f64;
        let mean: f64 = a.as_slice().iter().sum::<f64>() / n;
        let var: f64 = a
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn symmetric_is_symmetric() {
        let a = symmetric(20, 3);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }

    #[test]
    fn hessenberg_is_hessenberg() {
        assert!(hessenberg(30, 5).is_upper_hessenberg());
    }

    #[test]
    fn triangular_eigenvalues_on_diagonal() {
        let d = [3.0, -1.0, 0.5];
        let t = triangular_with_eigenvalues(&d, 1);
        assert!(t.is_upper_triangular_tol(0.0));
        for (i, &v) in d.iter().enumerate() {
            assert_eq!(t[(i, i)], v);
        }
    }

    #[test]
    fn diag_dominant_dominates() {
        let a = diag_dominant(25, 9);
        for i in 0..25 {
            let off: f64 = (0..25).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(a[(i, i)].abs() > off);
        }
    }
}
