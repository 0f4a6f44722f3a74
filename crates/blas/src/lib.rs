#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-based loops mirror the LAPACK reference codes
//! From-scratch BLAS kernels for the FT-Hess reproduction.
//!
//! This crate stands in for the vendor BLAS the paper relies on (Intel MKL
//! on the host, CUBLAS on the device). It provides:
//!
//! * **level 1** — `dot`, `axpy`, `scal`, `nrm2`, … on contiguous and
//!   strided vectors (rows of a column-major matrix are strided);
//! * **level 2** — `gemv`, `ger`, `trmv` on [`ft_matrix`] views;
//! * **level 3** — `gemm` (reference, cache-blocked packed, and
//!   threaded) and `trmm`;
//! * **execution backends** — a [`backend`] knob selecting between the
//!   serial kernels and a threaded path built on a lazily-initialized
//!   persistent worker [`pool`], bit-identical to serial for every thread
//!   count;
//! * **workspace arena** — a thread-local scratch cache ([`workspace`]) so
//!   hot kernels allocate their pack buffers once instead of per call;
//! * **FLOP accounting** — an optional global counter ([`flops`]) that the
//!   overhead analysis of the paper's §V is verified against.
//!
//! All kernels follow BLAS argument conventions (`alpha`/`beta` scalars,
//! `Trans`/`Uplo`/`Diag`/`Side` selectors) and operate in place on
//! [`MatViewMut`](ft_matrix::MatViewMut) windows, so they compose into
//! LAPACK-style panel factorizations without copying.

pub mod accurate;
pub mod backend;
pub mod flops;
pub mod latch;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod pool;
#[cfg(target_arch = "x86_64")]
mod simd;
mod sync;
pub mod types;
pub mod workspace;

pub use accurate::{sum_compensated, sum_superblock, SumScheme};
pub use backend::{current_backend, parallel_chunks_into, set_backend, with_backend, Backend};
pub use flops::{
    flop_count, gehrd_gflops, gehrd_nominal_flops, reset_flops, set_flop_counting, FlopGuard,
};
pub use level1::{asum, axpy, copy, dot, nrm2, scal, swap};
pub use level2::{gemv, ger, trmv};
pub use level3::{
    active_simd_path, gemm, gemm_blocked, gemm_ref, gemm_threaded, gemm_with_algo, simd_available,
    trmm, with_simd_path, GemmAlgo, SimdPath,
};
pub use types::{Diag, Side, Trans, Uplo};
