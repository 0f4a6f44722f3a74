//! The checksum sweeps against naive references written here, bit for
//! bit, under the serial and the threaded backend.
//!
//! The sweeps walk columns and run several independent sums side by
//! side; each sum must still see the same initial value, the same terms
//! and the same order as the one-sum-at-a-time loop below. The inputs
//! carry an all-(−0.0) row and column, whose sums keep the sign of zero
//! only if the initial value is right (−0.0 where the sweep replaced an
//! `Iterator::sum`, +0.0 where it replaced an explicit loop), and a NaN
//! that the frontier mask hides at some frontiers.

use ft_blas::{with_backend, Backend, SumScheme};
use ft_hessenberg::encode::{extend_v, ExtMatrix};
use ft_matrix::Matrix;

const BACKENDS: [Backend; 2] = [Backend::Serial, Backend::Threaded(4)];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A uniform `n × n` matrix with row 5 and column 9 all −0.0 and a NaN
/// at `(n − 3, 3)`, below the sub-diagonal of column 3.
fn input(n: usize, seed: u64) -> Matrix {
    let mut a = ft_matrix::random::uniform(n, n, seed);
    for j in 0..n {
        a[(5, j)] = -0.0;
    }
    for i in 0..n {
        a[(i, 9)] = -0.0;
    }
    a[(n - 3, 3)] = f64::NAN;
    a
}

/// Sum of `terms` from `init`, in order.
fn fold(init: f64, terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(init, |s, v| s + v)
}

/// Rows `0..lim` of column `j` survive the frontier mask.
fn math_len(n: usize, j: usize, frontier: usize) -> usize {
    if j < frontier {
        (j + 2).min(n)
    } else {
        n
    }
}

/// Sizes below and above the memory-bound fork gate (`n² ≥ 128 Ki`), so
/// `Threaded(4)` really splits the threaded sweeps.
const SIZES: [usize; 2] = [37, 365];

#[test]
fn naive_encode_matches_row_order_reference() {
    for n in SIZES {
        let a = input(n, n as u64);
        let rows: Vec<f64> = (0..n)
            .map(|i| fold(-0.0, (0..n).map(|j| a[(i, j)])))
            .collect();
        let cols: Vec<f64> = (0..n)
            .map(|j| fold(-0.0, a.col(j).iter().copied()))
            .collect();
        let corner = fold(-0.0, cols.iter().copied());
        for backend in BACKENDS {
            let e = with_backend(backend, || ExtMatrix::encode_with(&a, SumScheme::Naive));
            assert_eq!(
                bits(e.chk_col()),
                bits(&rows),
                "n={n} {backend:?}: row sums"
            );
            assert_eq!(
                bits(&e.chk_row_to_vec()),
                bits(&cols),
                "n={n} {backend:?}: column sums"
            );
            assert_eq!(
                e.corner().to_bits(),
                corner.to_bits(),
                "n={n} {backend:?}: corner"
            );
            assert_eq!(e.real_to_matrix().as_slice().len(), n * n);
        }
        // The all-(−0.0) row and column keep their sign.
        let e = ExtMatrix::encode(&a);
        assert_eq!(e.chk_col()[5].to_bits(), (-0.0f64).to_bits());
        assert_eq!(e.chk_row(9).to_bits(), (-0.0f64).to_bits());
    }
}

#[test]
fn accurate_encode_schemes_keep_their_sums() {
    let n = 37;
    let a = input(n, 3);
    for scheme in [SumScheme::Superblock, SumScheme::Compensated] {
        let e = ExtMatrix::encode_with(&a, scheme);
        for i in 0..n {
            let row: Vec<f64> = (0..n).map(|j| a[(i, j)]).collect();
            assert_eq!(
                e.chk_col()[i].to_bits(),
                scheme.sum(&row).to_bits(),
                "{scheme:?} row {i}"
            );
        }
        for j in 0..n {
            assert_eq!(
                e.chk_row(j).to_bits(),
                scheme.sum(a.col(j)).to_bits(),
                "{scheme:?} col {j}"
            );
        }
    }
}

#[test]
fn math_sums_and_refresh_match_row_order_reference() {
    for n in SIZES {
        let e = ExtMatrix::encode(&input(n, 7 + n as u64));
        let data = e.raw();
        for frontier in [0, 3, 4, 10, n / 2 + 1, n - 2] {
            // Row sums were an explicit loop from +0.0.
            let rows: Vec<f64> = (0..n)
                .map(|i| {
                    let mut s = 0.0;
                    for j in 0..n {
                        if !(j < frontier && i > j + 1) {
                            s += data[(i, j)];
                        }
                    }
                    s
                })
                .collect();
            // Column sums were an `Iterator::sum`, from −0.0.
            let cols: Vec<f64> = (0..n)
                .map(|j| {
                    fold(
                        -0.0,
                        data.col(j)[..math_len(n, j, frontier)].iter().copied(),
                    )
                })
                .collect();
            for backend in BACKENDS {
                let label = format!("n={n} frontier={frontier} {backend:?}");
                let got_rows = with_backend(backend, || e.math_row_sums(frontier));
                let got_cols = with_backend(backend, || e.math_col_sums(frontier));
                assert_eq!(bits(&got_rows), bits(&rows), "{label}: math_row_sums");
                assert_eq!(bits(&got_cols), bits(&cols), "{label}: math_col_sums");
                for (c0, c1) in [
                    (0, n),
                    (frontier.saturating_sub(5), frontier),
                    (2, 9),
                    (n - 1, n + 4),
                ] {
                    let mut f = e.clone();
                    with_backend(backend, || f.refresh_chk_row(c0, c1, frontier));
                    let mut want = e.chk_row_to_vec();
                    want[c0..c1.min(n)].copy_from_slice(&cols[c0..c1.min(n)]);
                    assert_eq!(
                        bits(&f.chk_row_to_vec()),
                        bits(&want),
                        "{label}: refresh_chk_row({c0}, {c1})"
                    );
                    assert_eq!(
                        bits(f.chk_col()),
                        bits(e.chk_col()),
                        "{label}: refresh touched the row sums"
                    );
                }
            }
        }
    }
}

#[test]
fn extend_v_matches_column_order_reference() {
    for (m, ib) in [(36, 1), (36, 7), (364, 32), (5, 9)] {
        let mut v = ft_matrix::random::uniform(m, ib, m as u64);
        for j in 0..ib {
            v[(0, j)] = -0.0;
        }
        for i in 0..m {
            v[(i, ib / 2)] = -0.0;
        }
        v[(m - 1, ib - 1)] = f64::NAN;
        for backend in BACKENDS {
            let vx = with_backend(backend, || extend_v(&v));
            for j in 0..ib {
                let want = fold(-0.0, v.col(j).iter().copied());
                assert_eq!(
                    vx[(m, j)].to_bits(),
                    want.to_bits(),
                    "m={m} ib={ib} col {j}"
                );
                assert_eq!(
                    bits(&vx.col(j)[..m]),
                    bits(v.col(j)),
                    "m={m} ib={ib} copy {j}"
                );
            }
        }
    }
}
