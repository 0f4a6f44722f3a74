//! Fixture-driven coverage for the semantic rules (FTC007–FTC012) and
//! the regression fixture for the PR-5 scanner's test-region hole.
//!
//! Each violating fixture must produce exactly the expected rule at the
//! expected position; each clean twin must produce nothing. Rules that
//! need workspace-global context (lock ranks, knob registry, metric
//! declarations) get it through an explicit [`Ctx`].

use ft_check::{analyze, scan_source, Ctx, Finding, LockRank, Registry};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("read fixture")
}

/// Analyzes one fixture under a pretend path with an explicit context.
fn run(name: &str, pretend_path: &str, ctx: &Ctx) -> Vec<Finding> {
    analyze(&[(pretend_path.to_string(), fixture(name))], ctx)
}

fn assert_rule_at(findings: &[Finding], rule: &str, line: usize, col: usize) {
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one {rule} finding, got: {findings:#?}"
    );
    assert_eq!(findings[0].rule, rule);
    assert_eq!(
        (findings[0].line, findings[0].col),
        (line, col),
        "wrong position for {rule}: {findings:#?}"
    );
    assert!(
        !findings[0].hint.is_empty(),
        "every finding carries a fix hint"
    );
}

// --- FTC007 ---------------------------------------------------------------

#[test]
fn ftc007_missing_scalar_twin() {
    let f = run(
        "ftc007_no_twin.rs",
        "crates/blas/src/fixture.rs",
        &Ctx::default(),
    );
    // `widen_avx2`, then `halve_avx512`: an `avx512` name segment marks
    // an ISA kernel as much as `avx2` does.
    assert_eq!(f.len(), 2, "{f:#?}");
    for (finding, line) in f.iter().zip([19, 34]) {
        assert_eq!(finding.rule, "FTC007");
        assert_eq!((finding.line, finding.col), (line, 12), "{f:#?}");
        assert!(
            finding.message.contains("no scalar twin"),
            "{}",
            finding.message
        );
    }
}

#[test]
fn ftc007_missing_dispatch_site() {
    let f = run(
        "ftc007_no_dispatch.rs",
        "crates/blas/src/fixture.rs",
        &Ctx::default(),
    );
    assert_rule_at(&f, "FTC007", 12, 12);
    assert!(
        f[0].message.contains("no runtime-dispatch site"),
        "{}",
        f[0].message
    );
}

#[test]
fn ftc007_twin_plus_dispatch_is_clean() {
    let f = run(
        "ftc007_clean.rs",
        "crates/blas/src/fixture.rs",
        &Ctx::default(),
    );
    assert!(f.is_empty(), "clean SIMD shape must pass: {f:#?}");
}

// --- FTC008 ---------------------------------------------------------------

#[test]
fn ftc008_allocation_reachable_from_hot_fn() {
    let f = run(
        "ftc008_hot_alloc.rs",
        "crates/blas/src/fixture.rs",
        &Ctx::default(),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "FTC008");
    assert!(f[0].message.contains("vec!"), "{}", f[0].message);
    assert!(
        f[0].message.contains("1 call away"),
        "the finding names the hop distance: {}",
        f[0].message
    );
}

#[test]
fn ftc008_sees_the_body_of_a_fn_with_array_types_in_its_signature() {
    let f = run(
        "ftc008_array_signature.rs",
        "crates/blas/src/fixture.rs",
        &Ctx::default(),
    );
    assert_rule_at(&f, "FTC008", 7, 19);
    assert!(f[0].message.contains("vec!"), "{}", f[0].message);
}

#[test]
fn ftc008_buffer_reuse_is_clean() {
    let f = run(
        "ftc008_clean.rs",
        "crates/blas/src/fixture.rs",
        &Ctx::default(),
    );
    assert!(
        f.is_empty(),
        "allocation outside the hot call tree is fine: {f:#?}"
    );
}

// --- FTC009 ---------------------------------------------------------------

fn pair_registry() -> Vec<LockRank> {
    vec![
        LockRank {
            path: "crates/serve/src/fixture.rs".to_string(),
            name: "first".to_string(),
            rank: 10,
            line: 1,
        },
        LockRank {
            path: "crates/serve/src/fixture.rs".to_string(),
            name: "second".to_string(),
            rank: 20,
            line: 2,
        },
    ]
}

#[test]
fn ftc009_unregistered_mutex_fails_coverage() {
    let f = run(
        "ftc009_unregistered_mutex.rs",
        "crates/serve/src/fixture.rs",
        &Ctx::default(),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "FTC009");
    assert!(f[0].message.contains("`rogue`"), "{}", f[0].message);
}

#[test]
fn ftc009_acquisition_against_declared_order() {
    let ctx = Ctx {
        lock_order: pair_registry(),
        ..Ctx::default()
    };
    let f = run(
        "ftc009_order_violation.rs",
        "crates/serve/src/fixture.rs",
        &ctx,
    );
    // `good` is silent; `bad` acquires rank 10 while holding rank 20.
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "FTC009");
    assert!(
        f[0].message.contains("lock-order violation"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("`first`"), "{}", f[0].message);
    assert_eq!(f[0].line, 20, "anchored at the bad acquisition");
}

#[test]
fn ftc009_out_of_scope_crates_are_ignored() {
    let f = run(
        "ftc009_unregistered_mutex.rs",
        "crates/trace/src/fixture.rs",
        &Ctx::default(),
    );
    assert!(
        f.is_empty(),
        "FTC009 covers only serve/blas lock scope: {f:#?}"
    );
}

// --- FTC010 ---------------------------------------------------------------

#[test]
fn ftc010_knob_read_missing_from_registry() {
    let f = run(
        "ftc010_undeclared_knob.rs",
        "crates/serve/src/fixture.rs",
        &Ctx::default(),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "FTC010");
    assert!(
        f[0].message.contains("FT_FIXTURE_PHANTOM_KNOB"),
        "{}",
        f[0].message
    );
}

#[test]
fn ftc010_registry_and_readme_drift_both_directions() {
    let ctx = Ctx {
        knobs: vec![("FT_DEAD_KNOB".to_string(), 3)],
        knobs_rel: "crates/trace/src/env_knob.rs".to_string(),
        readme_knobs: Some(vec![("FT_README_ONLY".to_string(), 9)]),
        readme_rel: "README.md".to_string(),
        ..Ctx::default()
    };
    // An empty source: nothing reads FT_DEAD_KNOB, the README invents
    // FT_README_ONLY, and FT_DEAD_KNOB never reaches the README.
    let f = analyze(
        &[("crates/serve/src/fixture.rs".to_string(), String::new())],
        &ctx,
    );
    let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|f| f.rule == "FTC010"), "{f:#?}");
    assert!(
        msgs.iter().any(|m| m.contains("never read")),
        "dead registry row reported: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("missing from the README")),
        "registry → README direction reported: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("FT_README_ONLY") && m.contains("does not declare")),
        "README → registry direction reported: {msgs:?}"
    );
}

#[test]
fn ftc010_declared_and_documented_knob_is_clean() {
    let ctx = Ctx {
        knobs: vec![("FT_FIXTURE_DECLARED_KNOB".to_string(), 3)],
        knobs_rel: "crates/trace/src/env_knob.rs".to_string(),
        readme_knobs: Some(vec![("FT_FIXTURE_DECLARED_KNOB".to_string(), 1)]),
        readme_rel: "README.md".to_string(),
        ..Ctx::default()
    };
    let f = run(
        "ftc010_declared_knob.rs",
        "crates/serve/src/fixture.rs",
        &ctx,
    );
    assert!(f.is_empty(), "all four directions agree: {f:#?}");
}

// --- FTC011 ---------------------------------------------------------------

#[test]
fn ftc011_panic_within_worker_radius() {
    let f = run(
        "ftc011_worker_panic.rs",
        "crates/serve/examples/worker.rs",
        &Ctx::default(),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "FTC011");
    assert!(
        f[0].message.contains("2 call hops"),
        "names the distance: {}",
        f[0].message
    );
    assert!(
        f[0].message.contains("`run_job`"),
        "names the root: {}",
        f[0].message
    );
}

#[test]
fn ftc011_radius_is_two_hops() {
    let f = run(
        "ftc011_out_of_radius.rs",
        "crates/serve/examples/worker.rs",
        &Ctx::default(),
    );
    assert!(
        f.is_empty(),
        "three hops out is FTC004's territory, not FTC011's: {f:#?}"
    );
}

// --- FTC012 ---------------------------------------------------------------

#[test]
fn ftc012_declared_but_never_emitted() {
    let mut registry = Registry::default();
    for (name, line) in [("fixture.used", 4), ("fixture.unused", 5)] {
        registry.counters.insert(name.to_string());
        registry
            .declared
            .push(("counter".to_string(), name.to_string(), line));
    }
    let ctx = Ctx {
        registry,
        names_rel: "crates/trace/src/names.rs".to_string(),
        ..Ctx::default()
    };
    let f = run(
        "ftc012_declared_unused.rs",
        "crates/serve/src/fixture.rs",
        &ctx,
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "FTC012");
    assert!(f[0].message.contains("fixture.unused"), "{}", f[0].message);
    assert_eq!(
        (f[0].path.as_str(), f[0].line),
        ("crates/trace/src/names.rs", 5),
        "anchored at the dead declaration"
    );
}

#[test]
fn ftc012_every_declared_name_emitted_is_clean() {
    let mut registry = Registry::default();
    registry.counters.insert("fixture.used".to_string());
    registry.histograms.insert("fixture.latency_us".to_string());
    registry
        .declared
        .push(("counter".to_string(), "fixture.used".to_string(), 4));
    registry
        .declared
        .push(("histogram".to_string(), "fixture.latency_us".to_string(), 7));
    let ctx = Ctx {
        registry,
        names_rel: "crates/trace/src/names.rs".to_string(),
        ..Ctx::default()
    };
    let f = run("ftc012_all_emitted.rs", "crates/serve/src/fixture.rs", &ctx);
    assert!(f.is_empty(), "both kinds emitted: {f:#?}");
}

// --- regression: the old scanner's test-region hole -----------------------

#[test]
fn bare_test_attr_exempts_the_fn_regardless_of_layout() {
    // The PR-5 line scanner only exempted code when `#[cfg(` and `test`
    // shared a source line, so this fixture's bare-`#[test]` fn leaked
    // its `thread::spawn` (FTC002), `.unwrap()` (FTC004), and
    // unregistered `counter("…")` (FTC006) into findings. The item pass
    // must keep it silent.
    let f = scan_source(
        "crates/serve/src/fixture.rs",
        &fixture("regression_test_attr_only.rs"),
        &Registry::default(),
    );
    assert!(f.is_empty(), "a #[test] fn is test code: {f:#?}");
}

#[test]
fn tests_flag_lints_the_exempted_code() {
    // The same fixture under `--tests` (include_tests) gives up its
    // exemptions: CI runs this lane warn-only to keep test hygiene
    // visible without gating merges on it.
    let ctx = Ctx {
        include_tests: true,
        ..Ctx::default()
    };
    let f = run(
        "regression_test_attr_only.rs",
        "crates/serve/src/fixture.rs",
        &ctx,
    );
    assert!(
        f.iter().any(|f| f.rule == "FTC002"),
        "thread::spawn surfaces under --tests: {f:#?}"
    );
    assert!(
        f.iter().any(|f| f.rule == "FTC004"),
        "unwrap surfaces under --tests: {f:#?}"
    );
}
