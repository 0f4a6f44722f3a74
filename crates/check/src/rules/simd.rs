//! FTC007 — every `#[target_feature]` fn needs a scalar twin and a
//! runtime-dispatch site.
//!
//! The PR-6 bit-identity contract says each ISA-specialized kernel
//! (`avx2_tile`, `axpy_col_avx2`, …) reproduces the exact per-element
//! operation stream of a scalar reference, and is only entered through
//! a dispatcher that checked the CPU at runtime (`Isa` resolution or
//! `is_x86_feature_detected!`). This rule pins both halves structurally:
//!
//! * **twin**: the tf fn either directly calls a non-tf fn in the same
//!   file (the shared-body pattern, e.g. `scalar_tile_fma` →
//!   `scalar_tile`), or a same-file non-tf fn shares its name stem once
//!   ISA segments (`avx512`, `avx2`, `fma`, `sse`, `neon`, `simd`) and scalar
//!   segments (`scalar`, `portable`, `body`, `ref`, `fallback`) are
//!   stripped (`avx2_tile` ↔ `scalar_tile`).
//! * **dispatch**: some non-tf, non-test fn in the same crate calls the
//!   tf fn by name and mentions `Isa` or `is_x86_feature_detected` in
//!   its body — the shape of every runtime dispatcher in the tree.

use super::Analysis;
use crate::lexer::TokKind;
use crate::Finding;

const ISA_SEGS: [&str; 9] = [
    "avx512", "avx2", "avx", "fma", "sse", "sse2", "sse41", "neon", "simd",
];
const SCALAR_SEGS: [&str; 6] = ["scalar", "portable", "body", "ref", "fallback", "generic"];

fn strip_segs(name: &str, segs: &[&str]) -> Vec<String> {
    name.split('_')
        .filter(|s| !segs.contains(s))
        .map(str::to_string)
        .collect()
}

/// Runs FTC007.
pub fn run(a: &Analysis<'_>, findings: &mut Vec<Finding>) {
    for (fi, fm) in a.files.iter().enumerate() {
        for (ki, f) in fm.items.fns.iter().enumerate() {
            if !f.target_feature || a.fn_in_test(fi, ki) {
                continue;
            }
            if !has_twin(a, fi, ki) {
                findings.push(a.finding(
                    fi,
                    f.line,
                    f.col,
                    "FTC007",
                    format!(
                        "`#[target_feature]` fn `{}` has no scalar twin in this file",
                        f.name
                    ),
                    "add a scalar fn sharing the name stem (e.g. `foo_scalar` for \
                     `foo_avx2`) or call the shared scalar body directly — the \
                     bit-identity contract needs a reference implementation",
                ));
            }
            if !has_dispatch(a, fi, ki) {
                findings.push(a.finding(
                    fi,
                    f.line,
                    f.col,
                    "FTC007",
                    format!(
                        "`#[target_feature]` fn `{}` has no runtime-dispatch site \
                         covering it",
                        f.name
                    ),
                    "call it from a non-target_feature dispatcher that matches on \
                     the resolved `Isa` (or `is_x86_feature_detected!`) so the \
                     kernel is never entered on an unsupporting CPU",
                ));
            }
        }
    }
}

fn has_twin(a: &Analysis<'_>, fi: usize, ki: usize) -> bool {
    let fm = &a.files[fi];
    let f = &fm.items.fns[ki];
    // Direct-call twin: the tf fn delegates to a same-file non-tf fn.
    for call in &fm.calls[ki] {
        if call.is_macro {
            continue;
        }
        if let Some(r) = a.graph.resolve(call, fi) {
            if r.file == fi && r.fn_idx != ki && !a.graph.item(r).target_feature {
                return true;
            }
        }
    }
    // Stem twin: same-file non-tf fn with the same name modulo
    // ISA/scalar segments.
    let stem = strip_segs(&f.name, &ISA_SEGS);
    if stem.len() == f.name.split('_').count() {
        // No ISA segment in the name at all — only the direct-call form
        // can prove a twin.
        return false;
    }
    fm.items.fns.iter().enumerate().any(|(gi, g)| {
        gi != ki && !g.target_feature && !g.in_test && strip_segs(&g.name, &SCALAR_SEGS) == stem
    })
}

fn has_dispatch(a: &Analysis<'_>, fi: usize, ki: usize) -> bool {
    let fm = &a.files[fi];
    let f = &fm.items.fns[ki];
    let crate_prefix = fm.crate_prefix();
    for (di, dm) in a.files.iter().enumerate() {
        if dm.crate_prefix() != crate_prefix {
            continue;
        }
        for (gi, g) in dm.items.fns.iter().enumerate() {
            if g.target_feature || (di == fi && gi == ki) || a.fn_in_test(di, gi) {
                continue;
            }
            // Free-call and `self.<name>()` method dispatch both count.
            let calls_it = dm.calls[gi].iter().any(|c| !c.is_macro && c.name == f.name);
            if !calls_it {
                continue;
            }
            let Some((open, close)) = g.body else {
                continue;
            };
            let guarded = dm.lexed.toks[open..=close].iter().any(|t| {
                t.kind == TokKind::Ident && (t.text == "Isa" || t.text == "is_x86_feature_detected")
            });
            if guarded {
                return true;
            }
        }
    }
    false
}
