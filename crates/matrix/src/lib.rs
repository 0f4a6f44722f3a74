#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
//! Dense column-major matrix types for the FT-Hess reproduction.
//!
//! This crate is the storage substrate shared by every other crate in the
//! workspace. It deliberately mirrors the conventions of LAPACK:
//!
//! * matrices are stored **column-major** (Fortran order), so a column is a
//!   contiguous slice and a row is a strided walk with stride `lda`;
//! * sub-matrices are expressed as *views* carrying an explicit leading
//!   dimension (`lda`), so BLAS/LAPACK-style kernels can operate in place on
//!   arbitrary rectangular blocks of a larger matrix;
//! * indices are 0-based throughout (doc comments point out the 1-based
//!   LAPACK equivalents where that helps).
//!
//! The crate has no algorithmic content of its own: norms, generators and
//! equality helpers live here because every other crate's tests need them,
//! but all BLAS kernels live in `ft-blas` and all factorizations in
//! `ft-lapack`.

pub mod assertions;
pub mod dense;
pub mod norms;
pub mod random;
pub mod view;

pub use assertions::{approx_eq, assert_matrix_eq, max_abs_diff, rel_diff};
pub use dense::Matrix;
pub use norms::{fro_norm, grand_sum, inf_norm, max_abs, nan_max, one_norm};
pub use view::{MatView, MatViewMut};
