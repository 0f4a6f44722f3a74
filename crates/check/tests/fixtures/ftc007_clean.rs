//! FTC007 clean fixture: scalar twin (both by stem and by direct call)
//! plus an `Isa`-guarded dispatcher. Must produce zero findings.

pub enum Isa {
    Scalar,
    Avx2,
    Avx512,
}

pub fn widen(isa: Isa, x: &mut [f64]) {
    match isa {
        // SAFETY: Avx2 is only resolved after runtime detection.
        Isa::Avx2 | Isa::Avx512 => unsafe { widen_avx2(x) },
        Isa::Scalar => widen_scalar(x),
    }
}

pub fn halve(isa: Isa, x: &mut [f64]) {
    match isa {
        // SAFETY: Avx512 is only resolved after runtime detection.
        Isa::Avx512 => unsafe { halve_avx512(x) },
        _ => halve_scalar(x),
    }
}

pub fn halve_scalar(x: &mut [f64]) {
    for v in x {
        *v *= 0.5;
    }
}

#[target_feature(enable = "avx512f")]
// SAFETY: caller checked the avx512f feature.
pub unsafe fn halve_avx512(x: &mut [f64]) {
    for v in x {
        *v *= 0.5;
    }
}

pub fn widen_scalar(x: &mut [f64]) {
    for v in x {
        *v *= 2.0;
    }
}

#[target_feature(enable = "avx2")]
// SAFETY: caller checked the avx2 feature.
pub unsafe fn widen_avx2(x: &mut [f64]) {
    widen_scalar(x);
}
