#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-based loops mirror the LAPACK reference codes
//! LAPACK-style factorizations for the FT-Hess reproduction.
//!
//! Implements, from scratch and in safe Rust on top of [`ft_blas`], the
//! dense kernels the paper's algorithm is composed of:
//!
//! * [`householder`] — elementary reflector generation (`larfg`) and
//!   application (`larf`), with LAPACK's sign convention and safe scaling;
//! * [`wy`] — the compact WY representation: triangular factor (`larft`)
//!   and block reflector application (`larfb`);
//! * [`mod@gehd2`] — unblocked Hessenberg reduction (reference algorithm,
//!   paper §III-A);
//! * [`mod@lahr2`] — the panel factorization producing `V`, `T`, `Y = A·V·T`
//!   (paper §III-B/C, LAPACK `DLAHRD`/`DLAHR2`);
//! * [`mod@gehrd`] — blocked Hessenberg reduction (LAPACK `DGEHRD`,
//!   Algorithm 1 of the paper) plus `Q` formation and residual helpers;
//! * [`mod@geqrf`] — blocked QR factorization (substrate; also used to build
//!   random orthogonal matrices for tests);
//! * [`mod@sytrd`] — unblocked symmetric tridiagonal reduction (`sytd2`)
//!   and a tridiagonal QL eigensolver (the second two-sided factorization,
//!   paper §VII);
//! * [`mod@hseqr`] — the Francis double-shift QR iteration on an upper
//!   Hessenberg matrix (what Hessenberg reduction is *for*; used by the
//!   end-to-end examples): one routine, organized like LAPACK's `DLAHQR`,
//!   behind both [`eigenvalues_hessenberg`] and [`real_schur`];
//! * [`mod@schur`] — the real Schur decomposition `H = Z·T·Zᵀ` and the
//!   eigenvectors of its real eigenvalues.
//!
//! The reflector storage convention matches LAPACK: after a reduction, the
//! upper triangle plus first sub-diagonal of `A` hold `H`, and column `j`
//! below the sub-diagonal holds the tail of the Householder vector `v_j`
//! (whose leading element is an implicit 1).

pub mod balance;
pub mod gehd2;
pub mod gehrd;
pub mod geqrf;
pub mod householder;
pub mod hseqr;
pub mod lahr2;
pub mod schur;
pub mod wy;

pub use balance::{balance, Balance};
pub use gehd2::gehd2;
pub use gehrd::{
    extract_h, form_q, form_q_blocked, gehrd, gehrd_step, GehrdConfig, HessFactorization,
};
pub use geqrf::{form_q_qr, geqrf, random_orthogonal};
pub use householder::{larf, larfg};
pub use hseqr::{eigenvalues_hessenberg, Eigenvalue};
pub use lahr2::{lahr2, lahr2_within, Panel};
pub use schur::{real_schur, SchurDecomposition};
pub use wy::{larfb, larft};
pub mod sytrd;

pub use sytrd::{steqr_eigenvalues, steqr_full, sytd2, TridiagFactorization};
