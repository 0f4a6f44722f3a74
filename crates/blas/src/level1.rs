//! Level-1 BLAS: vector–vector operations.
//!
//! Contiguous-slice versions are the workhorses (columns of a column-major
//! matrix are contiguous); `_strided` variants cover rows (stride = `lda`).

use crate::flops::{model, record};

/// Dot product `xᵀy`. Panics on length mismatch.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(
        x.len(),
        y.len(),
        "dot: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    record(model::dot(x.len()));
    // Four-way unrolled accumulation: faster and slightly more accurate than
    // a single running sum (partial sums reduce error growth).
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let b = c * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dot product over strided vectors: `Σ x[i·incx] · y[i·incy]`, `n` terms.
pub fn dot_strided(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
    assert!(incx > 0 && incy > 0, "dot_strided: zero stride");
    if n > 0 {
        assert!(x.len() > (n - 1) * incx, "dot_strided: x too short");
        assert!(y.len() > (n - 1) * incy, "dot_strided: y too short");
    }
    record(model::dot(n));
    let mut s = 0.0;
    for i in 0..n {
        s += x[i * incx] * y[i * incy];
    }
    s
}

/// `y ← αx + y`. Panics on length mismatch.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    record(model::axpy(x.len()));
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Strided `y[i·incy] ← α·x[i·incx] + y[i·incy]` for `n` terms.
pub fn axpy_strided(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
    assert!(incx > 0 && incy > 0, "axpy_strided: zero stride");
    if n > 0 {
        assert!(x.len() > (n - 1) * incx, "axpy_strided: x too short");
        assert!(y.len() > (n - 1) * incy, "axpy_strided: y too short");
    }
    record(model::axpy(n));
    for i in 0..n {
        y[i * incy] += alpha * x[i * incx];
    }
}

/// `x ← αx`.
pub fn scal(alpha: f64, x: &mut [f64]) {
    record(x.len() as u64);
    for v in x {
        *v *= alpha;
    }
}

/// `y ← x`. Panics on length mismatch.
pub fn copy(x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "copy: length mismatch");
    y.copy_from_slice(x);
}

/// Swaps the contents of two equal-length vectors.
pub fn swap(x: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "swap: length mismatch");
    x.swap_with_slice(y);
}

/// Euclidean norm with overflow/underflow-safe scaling (LAPACK `dnrm2`).
pub fn nrm2(x: &[f64]) -> f64 {
    record(model::dot(x.len()));
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let absv = v.abs();
            if scale < absv {
                ssq = 1.0 + ssq * (scale / absv).powi(2);
                scale = absv;
            } else {
                ssq += (absv / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Sum of absolute values.
pub fn asum(x: &[f64]) -> f64 {
    record(x.len() as u64);
    x.iter().map(|v| v.abs()).sum()
}

/// Sum of elements (plain accumulation). Used by the checksum encoders.
pub fn sum(x: &[f64]) -> f64 {
    record(x.len().saturating_sub(1) as u64);
    x.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // length > 4 exercises the unrolled path + tail
        let x: Vec<f64> = (1..=7).map(|v| v as f64).collect();
        let y = vec![1.0; 7];
        assert_eq!(dot(&x, &y), 28.0);
    }

    #[test]
    fn dot_strided_picks_every_kth() {
        let x = [1.0, -9.0, 2.0, -9.0, 3.0];
        let y = [1.0, 1.0, 1.0];
        assert_eq!(dot_strided(3, &x, 2, &y, 1), 6.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn axpy_strided_updates() {
        let mut y = [0.0; 5];
        axpy_strided(3, 1.0, &[1.0, 2.0, 3.0], 1, &mut y, 2);
        assert_eq!(y, [1.0, 0.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn scal_copy_swap() {
        let mut x = [1.0, -2.0];
        scal(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
        let mut y = [0.0, 0.0];
        copy(&x, &mut y);
        assert_eq!(y, x);
        let mut z = [7.0, 8.0];
        swap(&mut y, &mut z);
        assert_eq!(y, [7.0, 8.0]);
        assert_eq!(z, [-3.0, 6.0]);
    }

    #[test]
    fn nrm2_safe_scaling() {
        assert_eq!(nrm2(&[3.0, 4.0]), 5.0);
        assert_eq!(nrm2(&[]), 0.0);
        // Would overflow a naive sum of squares.
        let big = 1e200;
        assert!((nrm2(&[big, big]) - big * 2.0f64.sqrt()).abs() / big < 1e-14);
        // Would underflow a naive sum of squares.
        let small = 1e-200;
        assert!((nrm2(&[small, small]) - small * 2.0f64.sqrt()).abs() / small < 1e-14);
    }

    #[test]
    fn asum_sums_absolute_values() {
        assert_eq!(asum(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn flop_recording() {
        let g = crate::flops::FlopGuard::new();
        let _ = dot(&[1.0; 10], &[2.0; 10]);
        assert_eq!(g.count(), 19);
        let mut y = [0.0; 10];
        axpy(1.0, &[1.0; 10], &mut y);
        assert_eq!(g.count(), 39);
    }
}
