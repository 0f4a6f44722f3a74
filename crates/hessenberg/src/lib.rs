#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-based loops mirror the LAPACK reference codes
//! Soft-error resilient hybrid Hessenberg reduction — the paper's
//! contribution (Jia, Luszczek, Dongarra, IPDPSW 2016).
//!
//! The algorithm combines three fault-tolerance techniques:
//!
//! * **ABFT checksums** ([`encode`]) — the input matrix is extended with a
//!   row-checksum column and a column-checksum row; Theorem 1 of the paper
//!   (re-proved as property tests here) shows both stay valid under the
//!   blocked two-sided updates when the reflector block `V` is extended
//!   with its column checksums;
//! * **diskless checkpointing** — the pre-factorized panel and the
//!   intermediate update operands (`V`, `T`, `Y`, `W`) are kept in memory
//!   until the iteration has been verified;
//! * **reverse computation** ([`reverse`]) — on detection, the last left
//!   and right block updates are un-applied from the retained
//!   intermediates, restoring matrix *and* checksums to the previous
//!   iteration's consistent state, after which the error is located and
//!   corrected ([`recovery`]) and the iteration re-executed.
//!
//! Drivers:
//!
//! * [`hybrid_alg::gehrd_hybrid`] — Algorithm 2 (the fault-*prone* MAGMA
//!   hybrid baseline) on the simulated platform;
//! * [`ft_alg::ft_gehrd_hybrid`] — Algorithm 3, the fault-tolerant
//!   version, with on-line detection at the end of every panel iteration
//!   and host-side protection of the `Q` reflectors ([`qprotect`]);
//! * [`tridiag::ft_sytd2`] — the same protection on the symmetric
//!   tridiagonal reduction (the paper's §VII), under the same
//!   [`FtConfig`] and the same recovery steps ([`recovery`]).

pub mod encode;
pub mod ft_alg;
pub mod ftqr;
pub mod hybrid_alg;
pub mod qprotect;
pub mod recovery;
pub mod report;
pub mod reverse;
pub mod threshold;
pub mod tridiag;
pub mod verify;

pub use encode::ExtMatrix;
pub use ft_alg::{ft_gehrd_hybrid, FtConfig, FtOutcome};
pub use ft_lapack::HessFactorization;
pub use ftqr::{ftqr_factorize, FtQr, QrPostProcessReport};
pub use hybrid_alg::{gehrd_hybrid, HybridConfig, HybridOutcome};
pub use qprotect::QProtection;
pub use recovery::{correct_errors, locate_errors, LocatedError};
pub use report::{FailureReason, FtReport, PhaseBreakdown, RecoveryEvent};
pub use threshold::ThresholdPolicy;
pub use tridiag::{ft_sytd2, FtTridiagOutcome};
pub use verify::{factorization_residual, orthogonality_residual};
