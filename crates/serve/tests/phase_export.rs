//! Per-lane FT phase export: every attempt's `FtReport::phases` lands in
//! its lane's `serve.phase.<phase>_<lane>` registry histograms, which the
//! Prometheus render walks with the rest of the registry.
//!
//! The registry is process-global, so this binary holds one test.

use ft_fault::{Fault, FaultPlan};
use ft_hessenberg::FtConfig;
use ft_serve::{FaultSpec, JobSpec, JobStatus, Priority, Service, ServiceConfig, Shutdown};

#[test]
fn each_attempt_records_its_phases_on_its_lane() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // Zero in-run recovery budget plus one fault: the first attempt fails
    // and the escalated retry completes.
    let mut spec = JobSpec::new(ft_matrix::random::uniform(48, 48, 3));
    spec.cfg = FtConfig::with_nb(8);
    spec.cfg.max_recovery_attempts = 0;
    spec.faults = FaultSpec::Plan(FaultPlan::one(1, Fault::add(24, 25, 0.41)));
    assert_eq!(spec.priority, Priority::Normal);
    let r = svc.try_submit(spec).unwrap().wait();
    assert_eq!(r.status, JobStatus::Completed, "{:?}", r.report);
    assert_eq!(r.attempts, 2);
    svc.shutdown(Shutdown::Drain);

    let panel = ft_trace::histogram("serve.phase.panel_normal").snapshot();
    assert_eq!(panel.count, 2, "one observation per attempt");
    assert!(panel.sum > 0, "the panel phase took time");
    for other in ["serve.phase.panel_high", "serve.phase.panel_low"] {
        assert_eq!(ft_trace::histogram(other).snapshot().count, 0, "{other}");
    }
    let text = ft_trace::MetricsSnapshot::collect().to_prometheus();
    assert!(text.contains("# TYPE serve_phase_panel_normal summary"));
    assert!(text.contains("serve_phase_panel_normal_count 2"));
    assert!(text.contains("serve_phase_qprotect_normal_count 2"));
}
