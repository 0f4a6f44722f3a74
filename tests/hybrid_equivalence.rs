//! Equivalence and simulation-consistency tests for the hybrid drivers:
//! the simulated platform must change *when* things run, never *what* is
//! computed.

use ft_hess_repro::prelude::*;

fn full_ctx() -> HybridCtx {
    HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2)
}

#[test]
fn hybrid_matches_cpu_blocked_across_configs() {
    for &(n, nb) in &[(48usize, 8usize), (64, 16), (70, 32), (61, 13)] {
        let a = ft_hess_repro::matrix::random::uniform(n, n, (n * nb) as u64);
        let hybrid = gehrd_hybrid(
            &a,
            &HybridConfig { nb },
            &mut full_ctx(),
            &mut FaultPlan::none(),
        )
        .result
        .unwrap();
        let mut cpu = a.clone();
        let cpu_tau = gehrd(&mut cpu, &GehrdConfig { nb, nx: 1 });
        let diff = ft_hess_repro::matrix::max_abs_diff(&hybrid.packed, &cpu);
        assert!(diff < 1e-11, "n={n} nb={nb}: packed diff {diff}");
        for (x, y) in hybrid.tau.iter().zip(&cpu_tau) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}

#[test]
fn ft_timing_mode_equals_full_mode_across_configs() {
    for &(n, nb) in &[(64usize, 8usize), (96, 32), (80, 20)] {
        let a = ft_hess_repro::matrix::random::uniform(n, n, n as u64);
        let full = ft_gehrd_hybrid(
            &a,
            &FtConfig::with_nb(nb),
            &mut full_ctx(),
            &mut FaultPlan::none(),
        );
        let mut tctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
        let timing = ft_gehrd_hybrid(
            &a,
            &FtConfig::with_nb(nb),
            &mut tctx,
            &mut FaultPlan::none(),
        );
        let d = (full.report.sim_seconds - timing.report.sim_seconds).abs();
        assert!(d < 1e-12, "n={n} nb={nb}: simulated time differs by {d}");
    }
}

#[test]
fn recovery_cost_visible_in_simulated_time() {
    // A recovered fault must cost simulated time (reverse + redo), and an
    // early fault must cost at least as much as a late one (larger panel).
    let n = 256;
    let nb = 32;
    let a = ft_hess_repro::matrix::Matrix::zeros(n, n);
    let mk = || HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);

    let clean = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(nb),
        &mut mk(),
        &mut FaultPlan::none(),
    )
    .report
    .sim_seconds;
    let early = {
        let mut plan = FaultPlan::one(1, Fault::add(100, 200, 1.0));
        ft_gehrd_hybrid(&a, &FtConfig::with_nb(nb), &mut mk(), &mut plan)
            .report
            .sim_seconds
    };
    let late = {
        let mut plan = FaultPlan::one(6, Fault::add(230, 240, 1.0));
        ft_gehrd_hybrid(&a, &FtConfig::with_nb(nb), &mut mk(), &mut plan)
            .report
            .sim_seconds
    };
    assert!(early > clean, "recovery must cost time: {early} vs {clean}");
    assert!(late > clean);
    assert!(
        early > late,
        "early faults redo more work: {early} vs {late}"
    );
}

#[test]
fn q_checksum_placement_ablation_timing() {
    // The paper overlaps the Q-checksum GEMVs with device work on the idle
    // host; serializing them on the device stream must cost at least as
    // much simulated time.
    let n = 2048;
    let a = ft_hess_repro::matrix::Matrix::zeros(n, n);
    let mk = || HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
    let host = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(32),
        &mut mk(),
        &mut FaultPlan::none(),
    )
    .report
    .sim_seconds;
    let dev_cfg = FtConfig {
        q_checksums_on_host: false,
        ..FtConfig::with_nb(32)
    };
    let device = ft_gehrd_hybrid(&a, &dev_cfg, &mut mk(), &mut FaultPlan::none())
        .report
        .sim_seconds;
    assert!(
        device >= host,
        "device placement cannot be faster: host={host} device={device}"
    );
}

#[test]
fn baseline_overhead_headline_claim() {
    // The abstract's claim at paper scale: < 2% overhead vs the fault-
    // prone hybrid baseline (no faults) for N = 10110.
    let n = 10110;
    let nb = 32;
    let a = ft_hess_repro::matrix::Matrix::zeros(n, n);
    let mk = || HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
    let base =
        gehrd_hybrid(&a, &HybridConfig { nb }, &mut mk(), &mut FaultPlan::none()).sim_seconds;
    let ft = ft_gehrd_hybrid(
        &a,
        &FtConfig::with_nb(nb),
        &mut mk(),
        &mut FaultPlan::none(),
    )
    .report
    .sim_seconds;
    let overhead = (ft - base) / base;
    assert!(
        overhead < 0.02,
        "headline claim: overhead {overhead:.4} must be < 2% at N = {n}"
    );
    assert!(overhead > 0.0, "FT cannot be free");
}

#[test]
fn more_streams_never_slower() {
    let n = 512;
    let a = ft_hess_repro::matrix::Matrix::zeros(n, n);
    let mut one = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
    let t2 = gehrd_hybrid(
        &a,
        &HybridConfig { nb: 32 },
        &mut one,
        &mut FaultPlan::none(),
    )
    .sim_seconds;
    let mut four = HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 4);
    let t4 = gehrd_hybrid(
        &a,
        &HybridConfig { nb: 32 },
        &mut four,
        &mut FaultPlan::none(),
    )
    .sim_seconds;
    assert!(t4 <= t2 + 1e-12);
}

/// One golden timeline case: a fault plan and the FT driver's config.
/// `late` strikes after the updates ran (`Phase::BeforeDetection`);
/// `giveup` allows no recovery attempt.
fn golden_case(case: &str) -> (FaultPlan, FtConfig) {
    let cfg = FtConfig::with_nb(32);
    let strike = |phase| {
        FaultPlan::new(vec![ScheduledFault {
            iteration: 1,
            phase,
            fault: Fault::add(100, 200, 0.5),
        }])
    };
    match case {
        "clean" => (FaultPlan::none(), cfg),
        "area2" => (strike(Phase::IterationStart), cfg),
        "late" => (strike(Phase::BeforeDetection), cfg),
        "giveup" => (
            strike(Phase::IterationStart),
            FtConfig {
                max_recovery_attempts: 0,
                ..cfg
            },
        ),
        _ => unreachable!("unknown case {case}"),
    }
}

/// `sim_seconds` bits and per-class op counts (in `OpClass::ALL` order)
/// of one driver run at n = 256, nb = 32.
fn timeline(ft: bool, mode: ExecMode, case: &str) -> (u64, [u64; 7]) {
    use ft_hess_repro::hybrid::OpClass;
    let a = ft_hess_repro::matrix::random::uniform(256, 256, 19);
    let (mut plan, cfg) = golden_case(case);
    let mut ctx = HybridCtx::new(CostModel::k40c_sandy_bridge(), mode, 2);
    let (sim, stats) = if ft {
        let out = ft_gehrd_hybrid(&a, &cfg, &mut ctx, &mut plan);
        (out.report.sim_seconds, out.report.stats)
    } else {
        let out = gehrd_hybrid(&a, &HybridConfig { nb: cfg.nb }, &mut ctx, &mut plan);
        (out.sim_seconds, out.stats)
    };
    (sim.to_bits(), OpClass::ALL.map(|c| stats.count(c)))
}

/// The simulated timeline of both drivers, pinned bit for bit. Both modes
/// issue one charge sequence, so a charge that is dropped, duplicated or
/// reordered shifts Full and TimingOnly alike and only a recorded value
/// can catch it. Counts are per `OpClass::ALL`: HostPanel, HostVector,
/// HostGemm, DeviceGemm, DeviceGemv, DeviceVector, Transfer. Algorithm 2
/// has no recovery, so its four cases share one timeline.
#[test]
fn simulated_timeline_is_pinned() {
    const HYBRID: [(&str, u64, [u64; 7]); 4] = [
        ("clean", 0x3f5de9017c293786, [8, 0, 0, 24, 8, 0, 41]),
        ("area2", 0x3f5de9017c293786, [8, 0, 0, 24, 8, 0, 41]),
        ("late", 0x3f5de9017c293786, [8, 0, 0, 24, 8, 0, 41]),
        ("giveup", 0x3f5de9017c293786, [8, 0, 0, 24, 8, 0, 41]),
    ];
    const FT: [(&str, u64, [u64; 7]); 4] = [
        ("clean", 0x3f615773aae4baaf, [8, 9, 0, 24, 17, 17, 50]),
        ("area2", 0x3f647ae88c6de760, [9, 10, 0, 29, 19, 20, 58]),
        ("late", 0x3f642e506b804d98, [9, 10, 0, 29, 19, 20, 58]),
        ("giveup", 0x3f616c1e459b0a84, [8, 9, 0, 24, 17, 18, 50]),
    ];
    for (driver, table) in [("gehrd_hybrid", HYBRID), ("ft_gehrd_hybrid", FT)] {
        for (case, bits, counts) in table {
            for mode in [ExecMode::Full, ExecMode::TimingOnly] {
                let got = timeline(driver == "ft_gehrd_hybrid", mode, case);
                assert_eq!(
                    got,
                    (bits, counts),
                    "{driver} {case} {mode:?}: sim_seconds {} counts {:?}",
                    f64::from_bits(got.0),
                    got.1
                );
            }
        }
    }
}
