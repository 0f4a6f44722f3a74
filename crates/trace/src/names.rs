//! The declared metric-name registry.
//!
//! Every counter, gauge, and span name used anywhere in the workspace is
//! declared here, in one place. This is what makes names *checkable*: the
//! registry in `ft-trace` hands out atomics for whatever string it is
//! given, so a typo'd name does not fail — it silently reports zero while
//! the real metric goes unread. `ft-check` rule FTC006 closes that hole
//! by rejecting any name literal that does not appear in these slices
//! (and FTC000 flags declared names that are never used, via the
//! allowlist-staleness mechanism applied to this file's own test).
//!
//! Keep each slice sorted; the unit test enforces order and uniqueness.

/// Every counter name the workspace records (see DESIGN.md §9 for the
/// meaning of each family).
pub const COUNTERS: &[&str] = &[
    "ft.corrections",
    "ft.recoveries",
    "pool.dispatch",
    "pool.inline_fallback",
    "pool.spawn",
    "serve.canceled",
    "serve.completed",
    "serve.deadline_missed",
    "serve.failed",
    "serve.rejected",
    "serve.retries",
    "serve.submitted",
    "trace.recorder.dropped",
    "workspace.growth",
];

/// Every gauge name the workspace records. The `serve.queue_depth_*`
/// family is per priority lane; bare `serve.queue_depth` is the total.
pub const GAUGES: &[&str] = &[
    "serve.in_flight",
    "serve.queue_depth",
    "serve.queue_depth_high",
    "serve.queue_depth_low",
    "serve.queue_depth_normal",
    "trace.recorder.occupancy",
];

/// Every histogram name the workspace records: four per priority lane —
/// end-to-end latency plus its queue-wait / execution / backoff-wait
/// decomposition (all in µs, recorded by `ft-serve` on job completion).
pub const HISTOGRAMS: &[&str] = &[
    "serve.backoff_high",
    "serve.backoff_low",
    "serve.backoff_normal",
    "serve.exec_high",
    "serve.exec_low",
    "serve.exec_normal",
    "serve.latency_high",
    "serve.latency_low",
    "serve.latency_normal",
    "serve.queue_wait_high",
    "serve.queue_wait_low",
    "serve.queue_wait_normal",
];

/// Every span name the workspace opens. The `ft.*` entries are the
/// disjoint leaf phases whose durations decompose a run's wall-clock.
pub const SPANS: &[&str] = &[
    "ft.correct",
    "ft.detect",
    "ft.encode",
    "ft.locate",
    "ft.panel",
    "ft.qprotect",
    "ft.reverse",
    "ft.trailing",
    "gehrd.left_update",
    "gehrd.panel",
    "gehrd.right_update",
    "gehrd.tail",
    "lahr2",
    "pool.dispatch",
    "pool.task",
    "serve.run",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_unique(names: &[&str], what: &str) {
        for w in names.windows(2) {
            assert!(
                w[0] < w[1],
                "{what} registry must be sorted and duplicate-free: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn registries_are_sorted_and_unique() {
        assert_sorted_unique(COUNTERS, "counter");
        assert_sorted_unique(GAUGES, "gauge");
        assert_sorted_unique(SPANS, "span");
        assert_sorted_unique(HISTOGRAMS, "histogram");
    }

    #[test]
    fn names_are_dot_separated_lowercase() {
        for name in COUNTERS.iter().chain(GAUGES).chain(SPANS).chain(HISTOGRAMS) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric names are lowercase dot/underscore only: {name:?}"
            );
        }
    }
}
