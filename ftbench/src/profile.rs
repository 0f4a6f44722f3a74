//! The traced run's layer profile of one reduction shape: untraced driver
//! calls, spanned replays and plain `gehrd` calls in turn, then the
//! simulated-time comparison, isolated kernel probes and the
//! flight-recorder cost. Each timed phase takes a fixed share of the
//! run's budget. Kernels run on the serial backend the process selected
//! at start.

use crate::gen::{hess_input, iterations};
use crate::hess::{self, HessWorkload, Setup, Verdict};
use crate::metrics::Outcome;
use crate::replay::{self, BASE_LAYERS, FT_LAYERS, LAHR2, REDO, ROOT};
use crate::spans::{inside, per_rep_totals, self_times, Tag, Tracer};
use crate::stats::{frac_or_one, median};
use ft_blas::{Diag, Side, Trans, Uplo};
use ft_fault::FaultPlan;
use ft_hessenberg::{gehrd_hybrid, HybridConfig};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_lapack::{gehrd, GehrdConfig};
use ft_matrix::Matrix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repeats `f` at least `min` times and until `budget` has passed
/// (never past [`hess::HARD_CAP`]).
fn repeat(min: usize, budget: Duration, mut f: impl FnMut(usize)) -> usize {
    let t = Instant::now();
    let mut i = 0;
    while (i < min && t.elapsed() < hess::HARD_CAP) || t.elapsed() < budget {
        f(i);
        i += 1;
    }
    i
}

fn counter(name: &str) -> u64 {
    ft_trace::counters()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

/// Fills the blas/lapack/hessenberg/fault/hybrid/trace rows of `out`.
pub fn profile(
    name: &str,
    w: &HessWorkload,
    seed: u64,
    s: &Setup,
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let cfg = hess::ft_config(w.nb);
    let share = |f: f64| budget.mul_f64(f);

    // 1. Driver, replay and plain `gehrd` repetitions in turn, so that the
    //    replay coverage and the wall-clock FT overhead compare medians
    //    taken under the same machine load. Each replay runs the plan of
    //    the driver call before it and must reproduce that call's output
    //    and recovery counts.
    let mut walls = vec![];
    let mut plain = vec![];
    let (mut growth, mut dispatch) = (0, 0);
    let (mut injected, mut corrected, mut flagged, mut silent) = (0usize, 0usize, 0usize, 0usize);
    let (mut recoveries, mut redone, mut sim_s) = (0usize, 0usize, 0.0);
    let mut identical = true;
    let reps = repeat(3, share(0.7), |r| {
        let counters0 = (counter("workspace.growth"), counter("pool.dispatch"));
        let mut plan = hess::plan_for(w, seed, r as u64);
        let (o, ms) = hess::run_driver(&s.a, &cfg, &mut plan);
        walls.push(ms);
        growth += counter("workspace.growth") - counters0.0;
        dispatch += counter("pool.dispatch") - counters0.1;
        injected += plan.applied().len();
        corrected +=
            o.report.corrections() + o.report.q_corrections.len() + o.report.tau_corrections.len();
        recoveries += o.report.recoveries.len();
        redone += o.report.redone_iterations;
        if r == 0 {
            sim_s = o.report.sim_seconds;
        }
        let v = hess::judge(w, s, &o);
        flagged += usize::from(v == Verdict::Flagged);
        silent += usize::from(v == Verdict::Silent);
        hess::tally(out, v, &format!("{name} traced rep {r}"));

        tr.tag = Tag::Rep(r as u64);
        let rep = replay::replay(&s.a, &cfg, &mut hess::plan_for(w, seed, r as u64), tr);
        out.attempted += 1;
        let same_counts = (rep.recoveries, rep.redone, rep.flagged)
            == (
                o.report.recoveries.len(),
                o.report.redone_iterations,
                hess::flagged(&o),
            );
        identical &= same_counts
            && o.result
                .as_ref()
                .is_some_and(|f| replay::bit_identical(&rep.result, f));

        let mut p = s.a.clone();
        let t = Instant::now();
        gehrd(&mut p, &GehrdConfig::with_nb(w.nb));
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(&p);
    }) as f64;
    if !identical {
        out.problems
            .push(format!("{name}: replay differs from the driver"));
    }
    let (driver_ms, plain_ms) = (median(&walls), median(&plain));

    // 2. Simulated platform time (deterministic).
    let sim_ctx = || HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::TimingOnly, 2);
    // The update stays valid if the config gains fields.
    #[allow(clippy::needless_update)]
    let base_cfg = HybridConfig {
        nb: w.nb,
        ..HybridConfig::default()
    };
    let base_sim =
        gehrd_hybrid(&s.a, &base_cfg, &mut sim_ctx(), &mut FaultPlan::none()).sim_seconds;

    // 3. Flight-recorder cost: alternate off/on driver repetitions.
    let (mut off, mut on) = (vec![], vec![]);
    let was_on = ft_trace::recorder::is_on();
    let cap = ft_trace::recorder::DEFAULT_CAPACITY;
    repeat(4, share(0.2), |i| {
        let enable = i % 2 == 1;
        ft_trace::recorder::configure(enable, cap, None);
        let (_, ms) = hess::run_driver(&s.a, &cfg, &mut FaultPlan::none());
        if enable {
            on.push(ms)
        } else {
            off.push(ms)
        }
    });
    ft_trace::recorder::configure(was_on, cap, None);

    // Layer numbers from the spans: medians over replay repetitions.
    let totals = per_rep_totals(&tr.spans);
    let per_rep = |layer: &str, pick: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
        totals
            .values()
            .map(|m| m.get(layer).map_or(0.0, pick))
            .collect()
    };
    let self_ms = |layer: &str| median(&per_rep(layer, |e| e.0)) / 1e3;
    let rate = |layer: &str| {
        let (work, us) = totals
            .values()
            .filter_map(|m| m.get(layer))
            .fold((0.0, 0.0), |acc, e| (acc.0 + e.2, acc.1 + e.0));
        if us > 0.0 {
            work / us / 1e3
        } else {
            0.0
        }
    };
    let totals_us = per_rep(ROOT, |e| e.1);
    let replay_ms = median(&totals_us) / 1e3;
    let selfs = self_times(&tr.spans);
    let mut ft_self: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, sp) in tr.spans.iter().enumerate() {
        let Tag::Rep(r) = sp.tag else { continue };
        let base_redone = BASE_LAYERS.contains(&sp.name) && inside(&tr.spans, i, REDO);
        if FT_LAYERS.contains(&sp.name) || base_redone {
            *ft_self.entry(r).or_default() += selfs[i];
        }
    }
    let ft_pct: Vec<f64> = totals
        .iter()
        .zip(&totals_us)
        .map(|((r, _), t)| 100.0 * ft_self.get(r).copied().unwrap_or(0.0) / t)
        .collect();

    let mut shown: Vec<(&str, f64)> = BASE_LAYERS
        .iter()
        .chain(&FT_LAYERS)
        .map(|&l| (l, self_ms(l)))
        .collect();
    shown.push(("(loop glue)", self_ms(ROOT)));
    eprintln!(
        "{name}: driver p50 {driver_ms:.3} ms over {} reps; replay p50 {replay_ms:.3} ms over {} reps \
         (cover {:.3}, tracing overhead {:+.1}%)",
        walls.len(),
        totals.len(),
        replay_ms / driver_ms,
        100.0 * (replay_ms / driver_ms - 1.0)
    );
    for (layer, ms) in &shown {
        eprintln!(
            "  {layer:<26} self {ms:>10.4} ms  {:>6.2}%",
            100.0 * ms / replay_ms
        );
    }

    let sh = &mut out.sheet;
    sh.set("blas.gemv_panel.gbs", gemv_panel_gbs(&s.a, w.nb));
    sh.set("blas.right_update.ms", self_ms(replay::RIGHT_UPDATE));
    sh.set("blas.right_update.gflops", rate(replay::RIGHT_UPDATE));
    sh.set("blas.right_top.ms", self_ms(replay::RIGHT_TOP));
    sh.set("blas.left_update.ms", self_ms(replay::LEFT_UPDATE));
    sh.set("blas.left_update.gflops", rate(replay::LEFT_UPDATE));
    sh.set("blas.trmm.gflops", trmm_gflops(w.n, w.nb, seed));
    sh.set("blas.gemm_peak.gflops", gemm_peak_gflops(seed));
    sh.set("blas.workspace.growth", growth as f64 / reps);
    sh.set("blas.pool.dispatch", dispatch as f64 / reps);
    sh.set("lapack.lahr2.ms", self_ms(LAHR2));
    sh.set("lapack.lahr2.share", self_ms(LAHR2) / replay_ms);
    sh.set("lapack.gehrd_plain.ms", plain_ms);
    for (metric, layer) in [
        ("hessenberg.checksum.ms", replay::CHECKSUM),
        ("hessenberg.checkpoint.ms", replay::CHECKPOINT),
        ("hessenberg.detect.ms", replay::DETECT),
        ("hessenberg.qprotect.ms", replay::QPROTECT),
        ("hessenberg.locate.ms", replay::LOCATE),
        ("hessenberg.reverse.ms", replay::REVERSE),
        ("hessenberg.correct.ms", replay::CORRECT),
    ] {
        sh.set(metric, self_ms(layer));
    }
    sh.set("hessenberg.redo.ms", median(&per_rep(REDO, |e| e.1)) / 1e3);
    sh.set("hessenberg.recoveries", recoveries as f64 / reps);
    sh.set("hessenberg.redone_iterations", redone as f64 / reps);
    sh.set("hessenberg.ft_overhead_pct", median(&ft_pct));
    sh.set(
        "hessenberg.ft_overhead_wall_pct",
        100.0 * (driver_ms - plain_ms) / plain_ms,
    );
    sh.set("hessenberg.replay_cover", replay_ms / driver_ms);
    sh.set(
        "hessenberg.replay_identical",
        f64::from(u8::from(identical)),
    );
    sh.set("fault.injected", injected as f64);
    sh.set("fault.corrected_frac", frac_or_one(corrected, injected));
    sh.set("fault.flagged", flagged as f64);
    sh.set("fault.silent", silent as f64);
    sh.set("hybrid.sim_s", sim_s);
    sh.set(
        "hybrid.sim_ft_overhead_pct",
        100.0 * (sim_s - base_sim) / base_sim,
    );
    sh.set(
        "trace.recorder_cost_pct",
        100.0 * (median(&on) - median(&off)) / median(&off),
    );
}

/// `Y = A·v` at each panel's trailing shape `m × m`, `m = n − k − 1`
/// (the `lahr2` GEMV); GB/s from computed bytes (`8·(m² + 2m)`), not
/// measured traffic.
fn gemv_panel_gbs(a: &Matrix, nb: usize) -> f64 {
    let n = a.rows();
    let shapes: Vec<usize> = iterations(n, nb).iter().map(|&(k, _)| n - k - 1).collect();
    let bytes: f64 = shapes.iter().map(|&m| 8.0 * (m * m + 2 * m) as f64).sum();
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    let mut secs = vec![];
    for _ in 0..5 {
        let t = Instant::now();
        for &m in &shapes {
            let off = n - m;
            ft_blas::gemv(
                Trans::No,
                1.0,
                &a.view(off, off, m, m),
                &x[..m],
                0.0,
                &mut y[..m],
            );
            black_box(&y);
        }
        secs.push(t.elapsed().as_secs_f64());
    }
    bytes / median(&secs) / 1e9
}

/// `W ← Tᵀ·W` at each iteration's left-update shape (`T` is `ib × ib`
/// upper triangular, `W` is `ib × (m − ib + 2)`).
fn trmm_gflops(n: usize, nb: usize, seed: u64) -> f64 {
    let shapes: Vec<(usize, usize)> = iterations(n, nb)
        .iter()
        .map(|&(k, ib)| (ib, n - k - 1 - ib + 2))
        .collect();
    let flops: f64 = shapes
        .iter()
        .map(|&(ib, j)| ft_blas::flops::model::trmm(ib, j) as f64)
        .sum();
    let t = hess_input(nb, seed);
    let w0 = ft_matrix::random::uniform(nb, n + 1, seed);
    let mut secs = vec![];
    for _ in 0..5 {
        let mut w = w0.clone();
        let start = Instant::now();
        for &(ib, j) in &shapes {
            ft_blas::trmm(
                Side::Left,
                Uplo::Upper,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &t.view(0, 0, ib, ib),
                &mut w.view_mut(0, 0, ib, j),
            );
        }
        secs.push(start.elapsed().as_secs_f64());
        black_box(&w);
    }
    flops / median(&secs) / 1e9
}

/// A 512³ GEMM: the compute ceiling, for reference.
fn gemm_peak_gflops(seed: u64) -> f64 {
    const N: usize = 512;
    let a = ft_matrix::random::uniform(N, N, seed);
    let b = ft_matrix::random::uniform(N, N, seed ^ 1);
    let mut c = Matrix::zeros(N, N);
    let mut secs = vec![];
    for _ in 0..5 {
        let t = Instant::now();
        ft_blas::gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.as_view(),
            &b.as_view(),
            0.0,
            &mut c.as_view_mut(),
        );
        secs.push(t.elapsed().as_secs_f64());
        black_box(&c);
    }
    ft_blas::flops::model::gemm(N, N, N) as f64 / median(&secs) / 1e9
}
