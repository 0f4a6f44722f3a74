//! Checksum encoding (paper §IV-B): the extended matrix `Afe` and the
//! checksum-extended reflector block `Vce`.
//!
//! The `n × n` input is embedded into an `(n+1) × (n+1)` extended matrix:
//! column `n` holds row checksums (`Ar_chk`), row `n` holds column
//! checksums (`Ac_chk`), and the corner tracks the grand sum. The two-sided
//! block updates are applied to the extended matrix with the reflector
//! block `V` extended by one extra row holding its column sums — the
//! paper's `Vce = eᵀV` — which is exactly what makes Theorem 1 hold:
//! row/column checksums remain valid at the end of every iteration.
//!
//! One subtlety the paper leaves implicit: after a panel is reduced, its
//! columns store Householder tails below the sub-diagonal, while the
//! checksums track the *mathematical* matrix in which those entries are
//! exactly zero. All consistency computations here therefore apply the
//! Hessenberg mask to reduced columns ([`ExtMatrix::math_at`]).

use ft_blas::SumScheme;
use ft_matrix::{MatView, Matrix};

/// An `(n+1) × (n+1)` checksum-extended matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtMatrix {
    data: Matrix,
    n: usize,
    scheme: SumScheme,
}

impl ExtMatrix {
    /// Encodes `a` (paper Algorithm 3 line 2): appends the row-checksum
    /// column and column-checksum row, plus the grand-sum corner.
    pub fn encode(a: &Matrix) -> Self {
        ExtMatrix::encode_with(a, SumScheme::Naive)
    }

    /// [`ExtMatrix::encode`] with an explicit accumulation scheme for the
    /// checksum sums. Superblock or compensated summation (reference 27
    /// of the paper) reduces the roundoff drift of `Sre`/`Sce` and hence
    /// the smallest corruption the detector can distinguish from noise —
    /// quantified by the `ablations` harness.
    pub fn encode_with(a: &Matrix, scheme: SumScheme) -> Self {
        assert!(a.is_square(), "encode: matrix must be square");
        let n = a.rows();
        let mut data = Matrix::zeros(n + 1, n + 1);
        data.set_sub_matrix(0, 0, a);
        let mut chk = vec![0.0; n];
        if scheme == SumScheme::Naive {
            // The naive sums as `Iterator::sum` forms them (from −0.0, in
            // index order): the row sums walk the columns and advance
            // every row at once, the column sums run four side by side.
            let rows = &mut data.col_mut(n)[..n];
            rows.fill(-0.0);
            for j in 0..n {
                for (s, &v) in rows.iter_mut().zip(a.col(j)) {
                    *s += v;
                }
            }
            col_sums(&mut chk, |j| a.col(j));
        } else {
            for (j, c) in chk.iter_mut().enumerate() {
                *c = scheme.sum(a.col(j));
            }
            let mut row = vec![0.0; n];
            for i in 0..n {
                for (j, r) in row.iter_mut().enumerate() {
                    *r = a[(i, j)];
                }
                data[(i, n)] = scheme.sum(&row);
            }
        }
        for (j, &c) in chk.iter().enumerate() {
            data[(n, j)] = c;
        }
        data[(n, n)] = scheme.sum(&chk);
        ExtMatrix { data, n, scheme }
    }

    /// The accumulation scheme used for the aggregate sums.
    pub fn scheme(&self) -> SumScheme {
        self.scheme
    }

    /// Logical (un-extended) dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full extended storage.
    pub fn raw(&self) -> &Matrix {
        &self.data
    }

    /// The full extended storage, mutably. Callers are responsible for
    /// keeping the checksum semantics coherent.
    pub fn raw_mut(&mut self) -> &mut Matrix {
        &mut self.data
    }

    /// View of the real `n × n` part.
    pub fn real(&self) -> MatView<'_> {
        self.data.view(0, 0, self.n, self.n)
    }

    /// The real part as an owned matrix.
    pub fn real_to_matrix(&self) -> Matrix {
        self.data.sub_matrix(0, 0, self.n, self.n)
    }

    /// Row-checksum column entries (`Ar_chk`), length `n`.
    pub fn chk_col(&self) -> &[f64] {
        &self.data.col(self.n)[..self.n]
    }

    /// One column-checksum entry (`Ac_chk[j]`).
    pub fn chk_row(&self, j: usize) -> f64 {
        self.data[(self.n, j)]
    }

    /// The column-checksum row as a vector, length `n`.
    pub fn chk_row_to_vec(&self) -> Vec<f64> {
        (0..self.n).map(|j| self.data[(self.n, j)]).collect()
    }

    /// The grand-sum corner entry.
    pub fn corner(&self) -> f64 {
        self.data[(self.n, self.n)]
    }

    /// `Sre` (paper Algorithm 3 line 12): the sum of the row-checksum
    /// column.
    pub fn sre(&self) -> f64 {
        self.scheme.sum(self.chk_col())
    }

    /// `Sce`: the sum of the column-checksum row.
    pub fn sce(&self) -> f64 {
        let row = self.chk_row_to_vec();
        self.scheme.sum(&row)
    }

    /// The *mathematical* value at `(i, j)` when `frontier` columns have
    /// been reduced: reduced columns are zero below the first
    /// sub-diagonal (their storage holds Householder tails instead).
    pub fn math_at(&self, i: usize, j: usize, frontier: usize) -> f64 {
        if j < frontier && i > j + 1 {
            0.0
        } else {
            self.data[(i, j)]
        }
    }

    /// Rows `0..math_len(j, frontier)` of column `j` are the part that
    /// [`ExtMatrix::math_at`] does not mask to zero.
    fn math_len(&self, j: usize, frontier: usize) -> usize {
        if j < frontier {
            (j + 2).min(self.n)
        } else {
            self.n
        }
    }

    /// Mathematical row sums (length `n`) under the frontier mask.
    ///
    /// Each row sum starts from `+0.0` and adds its unmasked entries in
    /// ascending column order. The sweep walks the columns and advances
    /// every row at once; rows are split over the active
    /// [`ft_blas::backend`] workers, so the result is bit-identical to a
    /// serial sweep and error localization behaves the same under every
    /// backend.
    pub fn math_row_sums(&self, frontier: usize) -> Vec<f64> {
        let mut sums = vec![0.0; self.n];
        ft_blas::parallel_chunks_into(&mut sums, |i0, chunk| {
            for j in 0..self.n {
                let lim = self.math_len(j, frontier);
                if lim > i0 {
                    for (s, &v) in chunk.iter_mut().zip(&self.data.col(j)[i0..lim]) {
                        *s += v;
                    }
                }
            }
        });
        sums
    }

    /// Mathematical column sums (length `n`) under the frontier mask, each
    /// from −0.0 in ascending row order (see `col_sums`); columns are
    /// split over the same workers.
    pub fn math_col_sums(&self, frontier: usize) -> Vec<f64> {
        let mut sums = vec![0.0; self.n];
        ft_blas::parallel_chunks_into(&mut sums, |j0, chunk| {
            col_sums(chunk, |c| {
                &self.data.col(j0 + c)[..self.math_len(j0 + c, frontier)]
            });
        });
        sums
    }

    /// Refreshes the column-checksum entries of columns `c0..c1` from the
    /// stored data under the frontier mask (used for just-finished panel
    /// columns, whose storage switched to `H`-plus-reflector form).
    pub fn refresh_chk_row(&mut self, c0: usize, c1: usize, frontier: usize) {
        let n = self.n;
        let c1 = c1.min(n).max(c0);
        let mut sums = ft_blas::workspace::scratch(c1 - c0);
        col_sums(&mut sums, |c| {
            &self.data.col(c0 + c)[..self.math_len(c0 + c, frontier)]
        });
        for (j, &s) in (c0..c1).zip(sums.iter()) {
            self.data[(n, j)] = s;
        }
    }

    /// Rebuilds both checksum borders and the corner from the stored data
    /// under the frontier mask (last-resort recovery and
    /// checksum-corruption repair).
    pub fn reencode(&mut self, frontier: usize) {
        let n = self.n;
        let rs = self.math_row_sums(frontier);
        let cs = self.math_col_sums(frontier);
        let mut grand = 0.0;
        for i in 0..n {
            self.data[(i, n)] = rs[i];
            grand += rs[i];
        }
        for j in 0..n {
            self.data[(n, j)] = cs[j];
        }
        self.data[(n, n)] = grand;
    }

    /// Extracts the final packed `n × n` factorization output. The real
    /// part's columns are compacted in place, from stride `n + 1` to `n`,
    /// so no second `n²` matrix is allocated.
    pub fn into_packed(self) -> Matrix {
        let n = self.n;
        let mut data = self.data.into_vec();
        // Column `j` moves down by `j` slots; every later column still
        // lies past the slots this one lands on.
        for j in 1..n {
            data.copy_within(j * (n + 1)..j * (n + 1) + n, j * n);
        }
        data.truncate(n * n);
        Matrix::from_col_major(n, n, data)
    }
}

/// `out[c] = col(c).iter().sum()` for every `c`, bit for bit: each sum
/// starts from −0.0, as `Iterator::sum` does, and adds its column in
/// ascending row order. Four columns run side by side, so their
/// independent add chains overlap instead of waiting on one another.
fn col_sums<'a>(out: &mut [f64], col: impl Fn(usize) -> &'a [f64]) {
    let mut quads = out.chunks_exact_mut(4);
    let mut c = 0;
    for quad in &mut quads {
        let cols = [col(c), col(c + 1), col(c + 2), col(c + 3)];
        let common = cols.iter().fold(usize::MAX, |len, x| len.min(x.len()));
        let [c0, c1, c2, c3] = cols.map(|x| &x[..common]);
        let mut s = [-0.0f64; 4];
        for i in 0..common {
            s[0] += c0[i];
            s[1] += c1[i];
            s[2] += c2[i];
            s[3] += c3[i];
        }
        for (sq, x) in s.iter_mut().zip(cols) {
            for &v in &x[common..] {
                *sq += v;
            }
        }
        quad.copy_from_slice(&s);
        c += 4;
    }
    for (off, o) in quads.into_remainder().iter_mut().enumerate() {
        *o = col(c + off).iter().fold(-0.0, |s, &v| s + v);
    }
}

/// Extends a reflector block `V` (`m × ib`) by one extra row holding its
/// column sums — the paper's `Vce` (Algorithm 3 line 7). The extra row
/// sits at local row `m`, which corresponds exactly to the checksum
/// row/column index `n` of the extended matrix (since local row `r` maps
/// to global index `k + 1 + r` and `k + 1 + m = n`).
pub fn extend_v(v: &Matrix) -> Matrix {
    let (m, ib) = (v.rows(), v.cols());
    let mut vx = Matrix::zeros(m + 1, ib);
    vx.set_sub_matrix(0, 0, v);
    let mut sums = ft_blas::workspace::scratch(ib);
    col_sums(&mut sums, |j| v.col(j));
    for (j, &s) in sums.iter().enumerate() {
        vx[(m, j)] = s;
    }
    vx
}

/// Extends `Y = A·V·T` (`n × ib`) by one extra row holding the checksum
/// row's image — the paper's `Yce` (Algorithm 3 line 6):
/// `Yce = Ac_chk(k+1..n) · V · T`, computed from the *pre-update* checksum
/// row so it provides an independent path for error detection.
pub fn extend_y(y: &Matrix, chk_row_seg: &[f64], v: &Matrix, t: &Matrix) -> Matrix {
    let (n, ib) = (y.rows(), y.cols());
    let m = v.rows();
    assert_eq!(chk_row_seg.len(), m, "extend_y: checksum segment length");
    let mut yx = Matrix::zeros(n + 1, ib);
    yx.set_sub_matrix(0, 0, y);
    // w = Vᵀ · chk_seg, then yce = Tᵀ · w (row-vector times matrix).
    let mut w = vec![0.0; ib];
    ft_blas::gemv(
        ft_blas::Trans::Yes,
        1.0,
        &v.as_view(),
        chk_row_seg,
        0.0,
        &mut w,
    );
    ft_blas::trmv(
        ft_blas::Uplo::Upper,
        ft_blas::Trans::Yes,
        ft_blas::Diag::NonUnit,
        &t.as_view(),
        &mut w,
    );
    for j in 0..ib {
        yx[(n, j)] = w[j];
    }
    yx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        ft_matrix::random::uniform(6, 6, 3)
    }

    #[test]
    fn encode_checksums_correct() {
        let a = sample();
        let e = ExtMatrix::encode(&a);
        assert_eq!(e.n(), 6);
        for i in 0..6 {
            let expect: f64 = (0..6).map(|j| a[(i, j)]).sum();
            assert!((e.chk_col()[i] - expect).abs() < 1e-14);
        }
        for j in 0..6 {
            let expect: f64 = a.col(j).iter().sum();
            assert!((e.chk_row(j) - expect).abs() < 1e-14);
        }
        assert!((e.corner() - a.grand_sum()).abs() < 1e-13);
        assert!(
            (e.sre() - e.sce()).abs() < 1e-13,
            "fresh encoding is consistent"
        );
        assert!((e.sre() - a.grand_sum()).abs() < 1e-13);
    }

    #[test]
    fn real_part_roundtrip() {
        let a = sample();
        let e = ExtMatrix::encode(&a);
        assert_eq!(e.real_to_matrix(), a);
        assert_eq!(e.clone().into_packed(), a);
        // n = 37: the in-place compaction moves every column but the
        // first, with NaN, ±Inf and −0.0 among the moved values.
        let mut a = ft_matrix::random::uniform(37, 37, 5);
        a[(36, 36)] = f64::NAN;
        a[(0, 20)] = f64::NEG_INFINITY;
        a[(19, 1)] = -0.0;
        let e = ExtMatrix::encode(&a);
        let want = e.raw().sub_matrix(0, 0, 37, 37);
        let got = e.into_packed();
        assert_eq!((got.rows(), got.cols()), (37, 37));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn math_masking() {
        let mut a = Matrix::zeros(4, 4);
        a.fill(1.0);
        let e = ExtMatrix::encode(&a);
        // With frontier 2, storage (3,0), (2,0), (3,1) are masked to 0
        // (below sub-diagonal of reduced columns).
        assert_eq!(e.math_at(3, 0, 2), 0.0);
        assert_eq!(e.math_at(2, 0, 2), 0.0);
        assert_eq!(e.math_at(3, 1, 2), 0.0);
        assert_eq!(e.math_at(1, 0, 2), 1.0); // sub-diagonal kept
        assert_eq!(e.math_at(3, 2, 2), 1.0); // beyond frontier kept
        let rs = e.math_row_sums(2);
        assert_eq!(rs, vec![4.0, 4.0, 3.0, 2.0]);
        let cs = e.math_col_sums(2);
        assert_eq!(cs, vec![2.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn refresh_chk_row_uses_mask() {
        let mut a = Matrix::zeros(4, 4);
        a.fill(1.0);
        let mut e = ExtMatrix::encode(&a);
        // Pretend column 0 was reduced: its checksum should become the
        // masked sum 2.0 (rows 0 and 1 only).
        e.refresh_chk_row(0, 1, 1);
        assert_eq!(e.chk_row(0), 2.0);
        assert_eq!(e.chk_row(1), 4.0, "other columns untouched");
    }

    #[test]
    fn extend_v_appends_column_sums() {
        let v = ft_matrix::random::uniform(5, 3, 7);
        let vx = extend_v(&v);
        assert_eq!(vx.rows(), 6);
        assert_eq!(vx.cols(), 3);
        for j in 0..3 {
            let expect: f64 = v.col(j).iter().sum();
            assert!((vx[(5, j)] - expect).abs() < 1e-14);
            for r in 0..5 {
                assert_eq!(vx[(r, j)], v[(r, j)]);
            }
        }
    }

    #[test]
    fn extend_y_matches_direct_columnsums_of_y() {
        // When the checksum segment really is eᵀA over V's support, the
        // extension must equal the column sums of Y = A·V·T.
        let n = 7;
        let k = 1; // V over rows k+1..n, m = 5
        let m = n - k - 1;
        let a = ft_matrix::random::uniform(n, n, 8);
        let v = {
            let mut v = ft_matrix::random::uniform(m, 3, 9);
            for j in 0..3 {
                for r in 0..j {
                    v[(r, j)] = 0.0;
                }
                v[(j, j)] = 1.0;
            }
            v
        };
        let t = {
            let mut t = ft_matrix::random::uniform(3, 3, 10);
            for j in 0..3 {
                for i in j + 1..3 {
                    t[(i, j)] = 0.0;
                }
            }
            t
        };
        // Y = A(:, k+1..n) · V · T
        let mut av = Matrix::zeros(n, 3);
        ft_blas::gemm(
            ft_blas::Trans::No,
            ft_blas::Trans::No,
            1.0,
            &a.view(0, k + 1, n, m),
            &v.as_view(),
            0.0,
            &mut av.as_view_mut(),
        );
        let mut y = Matrix::zeros(n, 3);
        ft_blas::gemm(
            ft_blas::Trans::No,
            ft_blas::Trans::No,
            1.0,
            &av.as_view(),
            &t.as_view(),
            0.0,
            &mut y.as_view_mut(),
        );
        // checksum segment = column sums of A over columns k+1..n.
        let seg: Vec<f64> = (k + 1..n).map(|j| a.col(j).iter().sum()).collect();
        let yx = extend_y(&y, &seg, &v, &t);
        for j in 0..3 {
            let expect: f64 = y.col(j).iter().sum();
            assert!(
                (yx[(n, j)] - expect).abs() < 1e-12,
                "Yce[{j}] = {} vs column sum {expect}",
                yx[(n, j)]
            );
        }
    }
}
