//! FT-aware retry: escalate protection before giving up.
//!
//! A job whose run reports unrecoverable corruption
//! ([`ft_hessenberg::FailureReason`]: recovery-attempt exhaustion, an
//! unresolved recovery episode or an unresolvable final check) is not
//! failed immediately — it is re-run with
//! *escalated* protection under capped exponential backoff. The backoff
//! is a due time, not a sleep: the service re-admits the job to its queue
//! ([`crate::BoundedQueue::readmit`]) and the worker takes the next job;
//! once due, the retry joins the back of its priority lane. Escalation is
//! monotone along every protection axis the driver exposes:
//!
//! * `TimingOnly → Full` execution (a timing-only estimate that signalled
//!   trouble is re-run with real numerics so detection and correction
//!   actually operate on data);
//! * `protect_q` forced on (host-side `Q`/`tau` checksums);
//! * `max_recovery_attempts` raised (the exhaustion that triggered the
//!   retry gets more rollback/repair/re-execute budget);
//! * the checksum accumulation scheme upgraded to the compensated
//!   (Neumaier) summation, which changes the rounding of the initial
//!   encode and of the two aggregate sums `Sre` and `Sce`. The detection
//!   threshold does not depend on the scheme
//!   ([`ft_hessenberg::ThresholdPolicy::resolve`]).

use ft_hessenberg::FtConfig;
use ft_hybrid::ExecMode;
use std::time::Duration;

/// Retry policy for unrecoverable jobs.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Extra attempts after the first run (0 disables retries).
    pub max_retries: u32,
    /// Backoff before retry attempt 1: the least time the re-admitted
    /// job waits in the queue before it can run again.
    pub backoff_base: Duration,
    /// Ceiling for the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): `base · 2^(retry−1)`,
    /// capped.
    pub fn backoff(&self, retry: u32) -> Duration {
        let shift = retry.saturating_sub(1).min(32);
        let d = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        d.min(self.backoff_cap)
    }

    /// The escalated `(config, exec mode)` for the next attempt.
    pub fn escalate(cfg: &FtConfig, _exec: ExecMode) -> (FtConfig, ExecMode) {
        let mut next = *cfg;
        next.protect_q = true;
        next.q_checksums_on_host = true;
        next.max_recovery_attempts = next.max_recovery_attempts.saturating_add(2).max(3);
        next.checksum_scheme = ft_blas::SumScheme::Compensated;
        (next, ExecMode::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 5,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        assert_eq!(p.backoff(4), Duration::from_millis(10), "capped");
        assert_eq!(p.backoff(40), Duration::from_millis(10), "shift-safe");
    }

    #[test]
    fn escalation_is_monotone() {
        let weak = FtConfig {
            protect_q: false,
            max_recovery_attempts: 0,
            checksum_scheme: ft_blas::SumScheme::Naive,
            ..FtConfig::with_nb(16)
        };
        let (esc, exec) = RetryPolicy::escalate(&weak, ExecMode::TimingOnly);
        assert_eq!(exec, ExecMode::Full);
        assert!(esc.protect_q);
        assert!(esc.max_recovery_attempts >= 3);
        assert_eq!(esc.checksum_scheme, ft_blas::SumScheme::Compensated);
        assert_eq!(esc.nb, weak.nb, "shape knobs are preserved");
        // Escalating an already-strong config never weakens it.
        let (esc2, _) = RetryPolicy::escalate(&esc, ExecMode::Full);
        assert!(esc2.max_recovery_attempts >= esc.max_recovery_attempts);
    }
}
