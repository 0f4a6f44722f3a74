//! The workspace's one sanctioned monotonic clock.
//!
//! Deterministic math crates (`ft-matrix`, `ft-blas`, `ft-lapack`,
//! `ft-hessenberg`) never read `std::time` directly — that is `ft-check`
//! rule FTC005, and it is what keeps their numerics replayable and their
//! timing attribution consistent: every duration in the system, span or
//! report, is measured against the *same* trace epoch, so a report's
//! wall-clock and its span decomposition can be compared without clock
//! skew. Callers that need a coarse elapsed time (e.g. the FT driver's
//! `wall_seconds` report field) use [`Stopwatch`]; everything finer goes
//! through spans.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process's trace epoch (the first clock read
/// anywhere in `ft-trace`). Monotonic, f64 for direct use in [`Event`]
/// timestamps.
///
/// [`Event`]: crate::Event
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// A started stopwatch against the trace epoch. The way math crates
/// measure coarse wall-clock without touching `std::time`.
///
/// ```
/// let sw = ft_trace::clock::Stopwatch::start();
/// // ... work ...
/// let secs = sw.elapsed_seconds();
/// assert!(secs >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start_us: f64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { start_us: now_us() }
    }

    /// Seconds elapsed since [`Stopwatch::start`]. Never negative.
    pub fn elapsed_seconds(&self) -> f64 {
        ((now_us() - self.start_us) / 1e6).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn stopwatch_measures_nonnegative_elapsed() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = sw.elapsed_seconds();
        assert!(secs >= 0.002 - 1e-4, "slept 2ms but measured {secs}");
    }
}
