//! Execution reports: what the fault-tolerant run detected, corrected and
//! spent.

use ft_fault::AppliedFault;
use ft_hybrid::ExecStats;

/// Why a fault-tolerant run ended in a state the driver could not verify
/// — the structured form of "unrecoverable corruption" that callers (and
/// the `ft-serve` retry policy) branch on. A run has a reason exactly when
/// its report holds an unresolved episode ([`FtReport::any_unresolved`]);
/// the earliest iteration with one names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// An iteration's detector kept firing after
    /// `FtConfig::max_recovery_attempts` rollback/repair/re-execute
    /// cycles; the driver fell back to re-encoding the checksums from the
    /// (possibly still corrupt) data so the factorization could finish.
    RecoveryExhausted {
        /// Panel iteration whose detection could not be cleared.
        iteration: usize,
    },
    /// A recovery episode could not attribute its deficit pattern to
    /// elements (several one-sided deficits, a rectangle, or NaN). The
    /// driver re-encoded the checksums over the data as it stood, so the
    /// re-executed iteration can pass detection with the corruption still
    /// in it.
    UnresolvedRecovery {
        /// Panel iteration whose episode was unresolved.
        iteration: usize,
    },
    /// The end-of-run check — of the finished `H` region or of the `Q`
    /// reflector storage — found a deficit pattern it could not resolve
    /// to unique positions (a rectangle, several one-sided deficits that
    /// locate nothing, or a NaN or infinite entry), or a region was still
    /// deficient after its correction rounds. An unresolved pattern is
    /// left uncorrected.
    UnresolvedFinalCheck {
        /// Iteration count at the time of the final check.
        iteration: usize,
    },
}

/// One detection-and-recovery episode.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Panel iteration at whose end the mismatch was detected.
    pub iteration: usize,
    /// `|Sre − Sce|` that tripped the detector.
    pub mismatch: f64,
    /// Errors located and corrected (row, col, delta applied).
    pub corrected: Vec<(usize, usize, f64)>,
    /// Whether the located positions were resolvable (non-rectangle).
    pub resolved: bool,
}

/// Summary of one fault-tolerant factorization.
#[derive(Clone, Debug, Default)]
pub struct FtReport {
    /// Matrix dimension.
    pub n: usize,
    /// Panel width.
    pub nb: usize,
    /// Number of panel iterations executed (excluding re-executions).
    pub iterations: usize,
    /// Iterations re-executed due to recovery.
    pub redone_iterations: usize,
    /// Detection episodes (each may correct several simultaneous errors).
    pub recoveries: Vec<RecoveryEvent>,
    /// Errors corrected in `Q` storage by the end-of-run check, one entry
    /// per element (`row, col, delta`; a second round's delta at the same
    /// element is added into its entry).
    pub q_corrections: Vec<(usize, usize, f64)>,
    /// Indices of reflector scales repaired via the `tau` scalar checksum
    /// by the end-of-run check.
    pub tau_corrections: Vec<usize>,
    /// Faults injected by the test harness (provenance for reports).
    pub injected: Vec<AppliedFault>,
    /// Resolved detection threshold used.
    pub threshold: f64,
    /// Simulated makespan, seconds.
    pub sim_seconds: f64,
    /// Real wall-clock of the driver call, seconds (one `Instant` pair per
    /// run; always measured).
    pub wall_seconds: f64,
    /// Simulated resource statistics.
    pub stats: ExecStats,
    /// Wall-clock per-phase breakdown, timed by the driver on every run.
    pub phases: PhaseBreakdown,
}

/// Wall-clock attribution of one fault-tolerant run to the driver's
/// disjoint leaf phases — the reproduction of the paper's Figure 6
/// overhead decomposition. The driver times each phase itself (one
/// clock pair per `ft.*` span feeds both the span and its row here), so
/// the breakdown exists on every run, traced or not. All values are
/// seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Checksum encoding: initial encode, per-panel checksum extensions,
    /// and post-recovery re-encodes (`ft.encode`).
    pub encode: f64,
    /// Panel factorizations (`ft.panel`).
    pub panel: f64,
    /// Trailing-matrix updates (`ft.trailing`).
    pub trailing: f64,
    /// Checksum-mismatch detection scans (`ft.detect`).
    pub detect: f64,
    /// Reverse-computation rollbacks (`ft.reverse`).
    pub reverse: f64,
    /// Error location from checksum residues (`ft.locate`).
    pub locate: f64,
    /// Error correction writes (`ft.correct`).
    pub correct: f64,
    /// `Q` protection: the per-panel checksum absorb (paper §IV-E) and
    /// the end-of-run `Q`/`tau` verification (§IV-F) (`ft.qprotect`).
    pub qprotect: f64,
}

impl PhaseBreakdown {
    /// Sum of all phases, seconds. The phases are disjoint leaf spans, so
    /// this approximates the run's wall-clock from below (the gap is
    /// un-instrumented glue).
    pub fn total(&self) -> f64 {
        self.rows().iter().map(|(_, secs)| secs).sum()
    }

    /// Fault-tolerance overhead phases only (everything that is not the
    /// baseline factorization's panel + trailing work), seconds.
    pub fn ft_overhead(&self) -> f64 {
        self.total() - self.panel - self.trailing
    }

    /// `(name, seconds)` rows in fixed phase order, for report writers.
    pub fn rows(&self) -> [(&'static str, f64); 8] {
        [
            ("encode", self.encode),
            ("panel", self.panel),
            ("trailing", self.trailing),
            ("detect", self.detect),
            ("reverse", self.reverse),
            ("locate", self.locate),
            ("correct", self.correct),
            ("qprotect", self.qprotect),
        ]
    }

    /// `true` if no phase recorded any time.
    pub fn is_empty(&self) -> bool {
        self.total() == 0.0
    }
}

impl FtReport {
    /// Total individual element corrections (H region).
    pub fn corrections(&self) -> usize {
        self.recoveries.iter().map(|r| r.corrected.len()).sum()
    }

    /// `true` if any detection episode failed to resolve error positions.
    pub fn any_unresolved(&self) -> bool {
        self.recoveries.iter().any(|r| !r.resolved)
    }

    /// Simulated GFLOP/s against the `10/3·n³` nominal flop count
    /// (the y-axis of the paper's Figure 6), via the shared
    /// [`ft_blas::gehrd_gflops`] helper.
    pub fn gflops(&self) -> f64 {
        ft_blas::gehrd_gflops(self.n, self.sim_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_gflops() {
        let mut r = FtReport {
            n: 1000,
            nb: 32,
            sim_seconds: 1.0,
            ..Default::default()
        };
        r.recoveries.push(RecoveryEvent {
            iteration: 3,
            mismatch: 1.0,
            corrected: vec![(1, 2, 0.5), (3, 4, -0.5)],
            resolved: true,
        });
        assert_eq!(r.corrections(), 2);
        assert!(!r.any_unresolved());
        let expect = (10.0 / 3.0) * 1e9 / 1e9;
        assert!((r.gflops() - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_time_gflops_is_zero() {
        let r = FtReport::default();
        assert_eq!(r.gflops(), 0.0);
    }

    #[test]
    fn breakdown_totals_and_overhead() {
        let b = PhaseBreakdown {
            panel: 3.0,
            trailing: 1.0,
            detect: 0.5,
            qprotect: 0.25,
            ..Default::default()
        };
        assert!((b.total() - 4.75).abs() < 1e-12);
        assert!((b.ft_overhead() - 0.75).abs() < 1e-12);
        assert!(!b.is_empty());
        assert!(PhaseBreakdown::default().is_empty());
        assert_eq!(b.rows()[1], ("panel", b.panel));
        assert_eq!(b.rows()[7], ("qprotect", b.qprotect));
    }
}
