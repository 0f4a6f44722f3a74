#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Simulated GPU+CPU hybrid platform.
//!
//! The paper runs on an Intel Xeon E5-2670 host driving an NVIDIA Tesla
//! K40c over PCIe (Table I), with MAGMA's hybrid execution style: the host
//! factorizes panels while the device updates the trailing matrix, and
//! asynchronous transfers overlap with device compute.
//!
//! This crate substitutes that testbed with a **discrete-event cost
//! simulator** wrapped around real CPU execution:
//!
//! * three resource timelines — **host**, **device streams**, and the
//!   **link** (PCIe) — each a monotone clock;
//! * every operation is issued like a CUDA call: host work blocks the host
//!   clock, device kernels and transfers are *asynchronous* (they advance
//!   their stream/link clocks but return to the host immediately), and
//!   explicit `sync` joins clocks;
//! * a [`CostModel`] converts operation descriptors (GEMM flops, GEMV
//!   bytes, transfer bytes) into simulated seconds, with a preset
//!   calibrated to Table I of the paper;
//! * the context only keeps time: a [`HybridCtx`] call charges an
//!   operation and runs nothing. The drivers decide whether the
//!   arithmetic runs: in [`ExecMode::Full`] they compute as well (real
//!   numerics, simulated time); in [`ExecMode::TimingOnly`] they only
//!   charge, which makes the paper's full `N = 1022 … 10110` sweeps
//!   tractable on one CPU core.
//!
//! The quantity the paper's Figure 6 plots — GFLOP/s of the factorization
//! and the *relative overhead* of the fault-tolerant extra work, including
//! how much of it hides under device compute — is exactly what the
//! timeline algebra here produces.

pub mod cost;
pub mod exec;
pub mod stats;

pub use cost::{CostModel, OpClass, Work};
pub use exec::{ExecMode, HybridCtx, StreamId};
pub use stats::ExecStats;
