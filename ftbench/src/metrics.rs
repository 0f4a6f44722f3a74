//! The metric tables (names and units, in `BENCHMARK.json` order) and the
//! sheet each run fills in.

use crate::json::Metric;
use crate::spans::Tracer;

/// End-to-end metrics, printed by every untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("gflops", "GFLOP/s"),
    ("latency_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 (a count of nothing, or no time spent).
pub const LAYERS: &[(&str, &str)] = &[
    ("blas.gemv_panel.gbs", "GB/s"),
    ("blas.right_update.ms", "ms"),
    ("blas.right_update.gflops", "GFLOP/s"),
    ("blas.right_top.ms", "ms"),
    ("blas.left_update.ms", "ms"),
    ("blas.left_update.gflops", "GFLOP/s"),
    ("blas.trmm.gflops", "GFLOP/s"),
    ("blas.gemm_peak.gflops", "GFLOP/s"),
    ("blas.workspace.growth", "count"),
    ("blas.pool.dispatch", "count"),
    ("lapack.lahr2.ms", "ms"),
    ("lapack.lahr2.share", "fraction"),
    ("lapack.gehrd_plain.ms", "ms"),
    ("hessenberg.checksum.ms", "ms"),
    ("hessenberg.checkpoint.ms", "ms"),
    ("hessenberg.detect.ms", "ms"),
    ("hessenberg.qprotect.ms", "ms"),
    ("hessenberg.locate.ms", "ms"),
    ("hessenberg.reverse.ms", "ms"),
    ("hessenberg.correct.ms", "ms"),
    ("hessenberg.redo.ms", "ms"),
    ("hessenberg.recoveries", "count"),
    ("hessenberg.redone_iterations", "count"),
    ("hessenberg.ft_overhead_pct", "%"),
    ("hessenberg.ft_overhead_wall_pct", "%"),
    ("hessenberg.replay_cover", "fraction"),
    ("hessenberg.replay_identical", "bool"),
    ("fault.injected", "count"),
    ("fault.corrected_frac", "fraction"),
    ("fault.flagged", "count"),
    ("fault.silent", "count"),
    ("hybrid.sim_s", "s"),
    ("hybrid.sim_ft_overhead_pct", "%"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("serve.queue_wait.p99_ms", "ms"),
    ("serve.exec.p50_ms", "ms"),
    ("serve.exec.p99_ms", "ms"),
    ("serve.backoff.total_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.retry_success_frac", "fraction"),
    ("serve.submit.p50_us", "us"),
    ("serve.worker_busy_frac", "fraction"),
    ("serve.high.latency_p99_ms", "ms"),
    ("serve.low.latency_p99_ms", "ms"),
    ("trace.recorder_cost_pct", "%"),
];

/// Values for one metric table.
pub struct Sheet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Sheet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Sheet {
        Sheet {
            table,
            values: vec![0.0; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values[i] = value;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| Metric { name, value, unit })
            .collect()
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Reductions or jobs run.
    pub attempted: u64,
    /// Runs that failed their oracle, reported failure, or were lost.
    pub failed: u64,
    /// Silently wrong results and broken benchmark invariants; any entry
    /// makes the run incorrect.
    pub problems: Vec<String>,
    pub sheet: Sheet,
    /// Spans of a traced run.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: vec![],
            sheet: Sheet::new(table),
            spans: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn names_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names_units(spec.get("end_to_end").unwrap()), table(E2E));
        assert_eq!(names_units(spec.get("per_layer").unwrap()), table(LAYERS));
    }

    #[test]
    fn sheet_fills_by_name() {
        let mut s = Sheet::new(E2E);
        s.set("setup_s", 0.5);
        let m = s.metrics();
        assert_eq!(m.len(), E2E.len());
        let setup = m.iter().find(|x| x.name == "setup_s").unwrap();
        assert_eq!((setup.value, setup.unit), (0.5, "s"));
        assert!(m.iter().all(|x| x.name == "setup_s" || x.value == 0.0));
    }
}
