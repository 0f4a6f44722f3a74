//! Shared parsing for the workspace's `FT_*` environment knobs.
//!
//! Every runtime knob in the workspace follows the same contract: unset or
//! empty means "use the default", values are trimmed before parsing, and a
//! typo falls back to the default rather than crashing a production run.
//! Before this module each consumer re-implemented that contract inline
//! (`FT_BLAS_BACKEND` in `ft-blas`, `FT_TRACE` here, `FT_BENCH_SMOKE` in
//! three bench targets); the `FT_SERVE_*` family goes through these
//! helpers from day one.

use std::time::Duration;

/// Every `FT_*` knob the workspace reads, with a one-line description.
///
/// This table is the single source of truth for knob existence: ft-check
/// (FTC010) fails the build when a knob is read through these helpers
/// but missing here, when a row here is never read, or when this table
/// and the README knob tables drift apart in either direction. Keep the
/// rows sorted by name.
pub const KNOBS: &[(&str, &str)] = &[
    (
        "FT_BENCH_SMOKE",
        "shrink bench matrix sizes for CI smoke runs",
    ),
    (
        "FT_BLAS_BACKEND",
        "BLAS execution backend (`serial`/`threaded`/`threaded:N`/`threaded:auto`)",
    ),
    (
        "FT_BLAS_SIMD",
        "microkernel ISA path (`auto`/`avx2`/`portable`; `scalar` aliases `portable`)",
    ),
    (
        "FT_SERVE_BACKEND",
        "each executor worker's BLAS backend (`FT_BLAS_BACKEND` grammar)",
    ),
    (
        "FT_SERVE_DEADLINE_MS",
        "per-job deadline; 0 or unset disables",
    ),
    (
        "FT_SERVE_METRICS_ADDR",
        "bind address of the Prometheus endpoint",
    ),
    ("FT_SERVE_QUEUE_CAP", "bounded admission-queue capacity"),
    ("FT_SERVE_WORKERS", "executor worker-thread count"),
    (
        "FT_TRACE",
        "trace sink (`summary`/`jsonl:PATH`/`chrome:PATH`/`prom:PATH`)",
    ),
    (
        "FT_TRACE_RECORDER",
        "flight-recorder ring capacity (events)",
    ),
];

/// The trimmed value of `name`, or `None` when unset or empty.
pub fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => {
            let t = v.trim();
            if t.is_empty() {
                None
            } else {
                Some(t.to_string())
            }
        }
        Err(_) => None,
    }
}

/// Parses `name` with `parser`; `None` when unset, empty, or unparseable
/// (the workspace knob contract: a typo must never crash).
pub fn parse_with<T>(name: &str, parser: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    raw(name).and_then(|v| parser(&v))
}

/// Boolean knob: `true` when set to anything except `0`, `off`, `false`
/// or `no` (case-insensitive). Unset means `false`.
pub fn flag(name: &str) -> bool {
    match raw(name) {
        Some(v) => {
            !(v == "0"
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("false")
                || v.eq_ignore_ascii_case("no"))
        }
        None => false,
    }
}

/// Unsigned-integer knob with a default for unset/unparseable values.
pub fn usize_or(name: &str, default: usize) -> usize {
    parse_with(name, |v| v.parse::<usize>().ok()).unwrap_or(default)
}

/// Millisecond duration knob: `None` when unset, unparseable, or `0`
/// (zero means "no limit" for every `FT_SERVE_*` deadline/timeout knob).
pub fn ms_or_none(name: &str) -> Option<Duration> {
    parse_with(name, |v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global: each test uses its own unique
    // variable name so parallel execution cannot interleave.

    #[test]
    fn knob_table_is_sorted_and_unique() {
        for pair in KNOBS.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "KNOBS must stay sorted and duplicate-free: {} !< {}",
                pair[0].0,
                pair[1].0
            );
        }
        for (name, desc) in KNOBS {
            assert!(name.starts_with("FT_"), "knob {name} missing FT_ prefix");
            assert!(!desc.is_empty(), "knob {name} needs a description");
        }
    }

    #[test]
    fn raw_trims_and_drops_empty() {
        std::env::set_var("FT_TEST_KNOB_RAW", "  hello ");
        assert_eq!(raw("FT_TEST_KNOB_RAW").as_deref(), Some("hello"));
        std::env::set_var("FT_TEST_KNOB_RAW", "   ");
        assert_eq!(raw("FT_TEST_KNOB_RAW"), None);
        assert_eq!(raw("FT_TEST_KNOB_UNSET_XYZ"), None);
    }

    #[test]
    fn parse_with_falls_back_on_garbage() {
        std::env::set_var("FT_TEST_KNOB_PARSE", "12");
        assert_eq!(
            parse_with("FT_TEST_KNOB_PARSE", |v| v.parse::<u32>().ok()),
            Some(12)
        );
        std::env::set_var("FT_TEST_KNOB_PARSE", "twelve");
        assert_eq!(
            parse_with("FT_TEST_KNOB_PARSE", |v| v.parse::<u32>().ok()),
            None
        );
    }

    #[test]
    fn flag_spellings() {
        for (v, want) in [
            ("1", true),
            ("yes", true),
            ("anything", true),
            ("0", false),
            ("off", false),
            ("OFF", false),
            ("false", false),
            ("no", false),
        ] {
            std::env::set_var("FT_TEST_KNOB_FLAG", v);
            assert_eq!(flag("FT_TEST_KNOB_FLAG"), want, "value {v:?}");
        }
        assert!(!flag("FT_TEST_KNOB_FLAG_UNSET"));
    }

    #[test]
    fn usize_and_ms_defaults() {
        std::env::set_var("FT_TEST_KNOB_USIZE", "7");
        assert_eq!(usize_or("FT_TEST_KNOB_USIZE", 3), 7);
        std::env::set_var("FT_TEST_KNOB_USIZE", "bogus");
        assert_eq!(usize_or("FT_TEST_KNOB_USIZE", 3), 3);

        std::env::set_var("FT_TEST_KNOB_MS", "250");
        assert_eq!(
            ms_or_none("FT_TEST_KNOB_MS"),
            Some(Duration::from_millis(250))
        );
        std::env::set_var("FT_TEST_KNOB_MS", "0");
        assert_eq!(ms_or_none("FT_TEST_KNOB_MS"), None);
        assert_eq!(ms_or_none("FT_TEST_KNOB_MS_UNSET"), None);
    }
}
