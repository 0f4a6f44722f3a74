//! Level-3 BLAS: matrix–matrix operations.
//!
//! `gemm` is the performance-critical kernel (the paper's trailing-matrix
//! updates are almost entirely GEMM) and comes in three implementations
//! selected by [`GemmAlgo`]: a reference loop nest (test oracle), a
//! cache-blocked kernel built on the register-tiled [`microkernel`]
//! (AVX2+FMA with runtime detection, bit-identical scalar fallback), and
//! a threaded variant that splits the result into `jc`/`ic` macro-tiles
//! over the persistent worker pool ([`crate::pool`]) — data-race free by
//! construction (each worker owns a disjoint `MatViewMut`) and
//! bit-identical to the serial kernel by the contract in
//! [`crate::backend`]. `trmm` gains the same pooled split when the
//! active [`crate::backend::Backend`] is threaded.

mod gemm;
mod microkernel;
mod trmm;

pub use gemm::{gemm, gemm_blocked, gemm_ref, gemm_threaded, gemm_with_algo, GemmAlgo};
pub use microkernel::{active_simd_path, simd_available, with_simd_path, SimdPath};
pub(crate) use microkernel::{resolve_isa, Isa};
pub use trmm::trmm;
