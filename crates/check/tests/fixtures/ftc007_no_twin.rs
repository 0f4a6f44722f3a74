//! FTC007 fixture: an AVX2 and an AVX-512 `#[target_feature]` kernel,
//! each with a runtime dispatcher but no scalar twin in the file.

pub enum Isa {
    Scalar,
    Avx2,
    Avx512,
}

pub fn dispatch(isa: Isa, x: &mut [f64]) {
    if let Isa::Avx2 = isa {
        // SAFETY: fixture dispatcher, gated on the resolved Isa.
        unsafe { widen_avx2(x) };
    }
}

#[target_feature(enable = "avx2")]
// SAFETY: caller checked the avx2 feature.
pub unsafe fn widen_avx2(x: &mut [f64]) {
    for v in x {
        *v *= 2.0;
    }
}

pub fn dispatch_wide(isa: Isa, x: &mut [f64]) {
    if let Isa::Avx512 = isa {
        // SAFETY: fixture dispatcher, gated on the resolved Isa.
        unsafe { halve_avx512(x) };
    }
}

#[target_feature(enable = "avx512f")]
// SAFETY: caller checked the avx512f feature.
pub unsafe fn halve_avx512(x: &mut [f64]) {
    for v in x {
        *v *= 0.5;
    }
}
