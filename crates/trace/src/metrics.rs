//! Live metrics exposition: one consistent snapshot of every registered
//! counter, gauge, and histogram, rendered to the Prometheus text
//! format.
//!
//! The snapshot is pull-model: nothing is aggregated on the hot path
//! beyond what the registry atomics already hold; [`MetricsSnapshot::collect`]
//! reads them all at scrape time. Before reading it folds the flight
//! recorder's internal tallies into the registry (`trace.recorder.dropped`
//! counter, `trace.recorder.occupancy` gauge), so a scrape sees recorder
//! health without the recorder's hot path ever touching the registry.
//!
//! Prometheus naming: registry names are dot-separated (`serve.retries`);
//! the exposition mangles `.` to `_` (`serve_retries`). Histograms render
//! as Prometheus *summaries* — `{quantile="…"}` sample lines from the
//! HDR sketch plus `_sum` / `_count` — because the sketch's bucket edges
//! are not the cumulative `le` buckets a native Prometheus histogram
//! expects.

use crate::hist::HistSnapshot;
use crate::recorder::RecorderStats;
use crate::{counter, gauge};
use std::fmt::Write as _;
use std::sync::Mutex;

/// A point-in-time copy of the whole metrics surface.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(&'static str, HistSnapshot)>,
    /// Flight-recorder occupancy.
    pub recorder: RecorderStats,
}

// Serializes the recorder→registry sync so two concurrent scrapes
// cannot double-add the dropped delta.
static SYNC: Mutex<()> = Mutex::new(());

impl MetricsSnapshot {
    /// Collects the current value of every registered metric.
    pub fn collect() -> MetricsSnapshot {
        let recorder = crate::recorder::stats();
        {
            let _g = SYNC.lock().unwrap();
            let c = counter("trace.recorder.dropped");
            let seen = c.get();
            if recorder.dropped > seen {
                c.add(recorder.dropped - seen);
            }
            gauge("trace.recorder.occupancy").set(recorder.occupancy as u64);
        }
        MetricsSnapshot {
            counters: crate::counters(),
            gauges: crate::gauges(),
            histograms: crate::histograms(),
            recorder,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for &(name, value) in &self.counters {
            let fam = mangle(name);
            let _ = writeln!(out, "# TYPE {fam} counter");
            let _ = writeln!(out, "{fam} {value}");
        }
        for &(name, value) in &self.gauges {
            let fam = mangle(name);
            let _ = writeln!(out, "# TYPE {fam} gauge");
            let _ = writeln!(out, "{fam} {value}");
        }
        for (name, h) in &self.histograms {
            let fam = mangle(name);
            let _ = writeln!(out, "# TYPE {fam} summary");
            for (label, q) in [
                ("0.5", 0.50),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                let _ = writeln!(out, "{fam}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{fam}_sum {}", h.sum);
            let _ = writeln!(out, "{fam}_count {}", h.count);
        }
        out
    }
}

/// Prometheus metric-name mangling: `.` → `_` (registry names are
/// already `[a-z0-9._]` only, enforced by the `names` tests).
pub fn mangle(name: &str) -> String {
    name.replace('.', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_all_metric_classes() {
        counter("test.metrics.c").add(3);
        gauge("test.metrics.g").set(7);
        let h = crate::histogram("test.metrics.h");
        h.record(100);
        h.record(200);
        let snap = MetricsSnapshot::collect();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE test_metrics_c counter"));
        assert!(text.contains("test_metrics_g 7"));
        assert!(text.contains("# TYPE test_metrics_h summary"));
        assert!(text.contains("test_metrics_h{quantile=\"0.999\"}"));
        assert!(text.contains("test_metrics_h_count 2"));
        // Recorder health is folded into the registry at collect time.
        assert!(text.contains("trace_recorder_occupancy"));
        assert!(text.contains("trace_recorder_dropped"));
    }

    #[test]
    fn every_family_line_is_well_formed() {
        counter("test.metrics.wf").incr();
        let text = MetricsSnapshot::collect().to_prometheus();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let name_end = line.find(['{', ' ']).expect("family then value");
            let name = &line[..name_end];
            assert!(
                !name.is_empty() && !name.contains('.'),
                "bad family in {line:?}"
            );
            let value = line.rsplit(' ').next().expect("value");
            assert!(value.parse::<u64>().is_ok(), "bad value in {line:?}");
        }
    }
}
