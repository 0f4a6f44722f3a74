//! Property-based tests of the simulated platform's clock algebra — the
//! invariants every discrete-event schedule must satisfy, independent of
//! the particular op sequence.

use ft_hybrid::{CostModel, ExecMode, HybridCtx, OpClass, StreamId, Work};
use proptest::prelude::*;

/// A random operation for the schedule generator.
#[derive(Clone, Debug)]
enum Op {
    Host(f64),
    Device(usize, f64),
    H2d(usize, usize),
    D2h(usize, usize),
    SyncStream(usize),
    SyncAll,
    Wait(usize, usize),
}

fn op_strategy(nstreams: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.1f64..50.0).prop_map(Op::Host),
        (0..nstreams, 0.1f64..50.0).prop_map(|(s, w)| Op::Device(s, w)),
        (0..nstreams, 1usize..1000).prop_map(|(s, b)| Op::H2d(s, b)),
        (0..nstreams, 1usize..1000).prop_map(|(s, b)| Op::D2h(s, b)),
        (0..nstreams).prop_map(Op::SyncStream),
        Just(Op::SyncAll),
        (0..nstreams, 0..nstreams).prop_map(|(a, b)| Op::Wait(a, b)),
    ]
}

fn run_schedule(ops: &[Op], nstreams: usize) -> HybridCtx {
    run_schedule_in(ExecMode::TimingOnly, ops, nstreams)
}

fn run_schedule_in(mode: ExecMode, ops: &[Op], nstreams: usize) -> HybridCtx {
    let mut ctx = HybridCtx::new(CostModel::unit_test_model(), mode, nstreams);
    for op in ops {
        match *op {
            Op::Host(w) => ctx.host(OpClass::HostPanel, Work::Flops(w)),
            Op::Device(s, w) => ctx.device(StreamId(s), OpClass::DeviceGemm, Work::Flops(w)),
            Op::H2d(s, b) => ctx.h2d(StreamId(s), b),
            Op::D2h(s, b) => ctx.d2h(StreamId(s), b),
            Op::SyncStream(s) => ctx.sync_stream(StreamId(s)),
            Op::SyncAll => ctx.sync_all(),
            Op::Wait(a, b) => ctx.stream_wait_stream(StreamId(a), StreamId(b)),
        }
    }
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The makespan is bounded below by every single resource's busy time
    /// and above by the sum of all busy time (no time machine, no lost
    /// work).
    #[test]
    fn makespan_bounds(ops in prop::collection::vec(op_strategy(3), 1..60)) {
        let ctx = run_schedule(&ops, 3);
        let stats = ctx.stats();
        let makespan = ctx.elapsed();
        let slack = 1e-9;
        prop_assert!(makespan + slack >= stats.host_busy, "{makespan} < host {}", stats.host_busy);
        prop_assert!(makespan + slack >= stats.link_busy);
        prop_assert!(makespan <= stats.total_busy() + slack,
            "makespan {makespan} > total busy {}", stats.total_busy());
    }

    /// Clocks are monotone: running a prefix never yields a later
    /// makespan than the full schedule.
    #[test]
    fn makespan_monotone_in_schedule_prefix(ops in prop::collection::vec(op_strategy(2), 2..40)) {
        let cut = ops.len() / 2;
        let partial = run_schedule(&ops[..cut], 2).elapsed();
        let full = run_schedule(&ops, 2).elapsed();
        prop_assert!(full + 1e-12 >= partial, "{full} < {partial}");
    }

    /// Scaling every device op's work up never reduces the makespan.
    #[test]
    fn makespan_monotone_in_work(ops in prop::collection::vec(op_strategy(2), 1..40)) {
        let base = run_schedule(&ops, 2).elapsed();
        let heavier: Vec<Op> = ops
            .iter()
            .map(|op| match *op {
                Op::Device(s, w) => Op::Device(s, w * 2.0),
                Op::Host(w) => Op::Host(w * 2.0),
                ref other => other.clone(),
            })
            .collect();
        let heavy = run_schedule(&heavier, 2).elapsed();
        prop_assert!(heavy + 1e-12 >= base, "{heavy} < {base}");
    }

    /// sync_all is idempotent and pins the host clock to the makespan.
    #[test]
    fn sync_all_pins_host(ops in prop::collection::vec(op_strategy(2), 1..40)) {
        let mut ctx = run_schedule(&ops, 2);
        ctx.sync_all();
        prop_assert!((ctx.host_time() - ctx.elapsed()).abs() < 1e-12);
        let before = ctx.elapsed();
        ctx.sync_all();
        prop_assert_eq!(ctx.elapsed(), before);
    }

    /// Mode never changes timing: the context charges the same schedule
    /// identically under TimingOnly and Full.
    #[test]
    fn mode_independence(ops in prop::collection::vec(op_strategy(2), 1..40)) {
        let t1 = run_schedule(&ops, 2).elapsed();
        let t2 = run_schedule_in(ExecMode::Full, &ops, 2).elapsed();
        prop_assert!((t2 - t1).abs() < 1e-12);
    }
}
