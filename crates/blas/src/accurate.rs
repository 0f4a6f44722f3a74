//! Accurate summation.
//!
//! The paper closes its numerical-stability discussion by pointing at
//! Castaldo, Whaley & Chronopoulos ("Reducing floating point error in dot
//! product using the superblock family of algorithms", SISC 2008 — the
//! paper's reference 27): every checksum in the ABFT scheme is a long sum
//! or dot product, so its rounding error determines how small a detection
//! threshold can be before false positives — and therefore how small a
//! corruption can be caught.
//!
//! Three accumulation schemes, in increasing accuracy (and cost):
//!
//! * **naive** — sequential accumulation, error `O(n·ε)`;
//! * **superblock/pairwise** — block the sum and combine partial sums in
//!   a tree, error `O(log n·ε)` at essentially streaming cost (this is
//!   the family reference 27 recommends);
//! * **compensated (Kahan/Neumaier)** — carries an explicit error term,
//!   error `O(ε)` independent of `n`, ~4× the flops.
//!
//! `ft-hessenberg`'s encoder can be switched between schemes
//! (`FtConfig::checksum_scheme`); the `ablations` harness quantifies what that
//! buys.

/// Neumaier's improved Kahan summation: error bounded by `O(ε)`
/// independent of the number of terms.
pub fn sum_compensated(x: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64; // running compensation for lost low-order bits
    for &v in x {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            comp += (sum - t) + v;
        } else {
            comp += (v - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

/// Superblock width for [`sum_superblock`] (fits L1 and keeps the
/// combination tree shallow).
const SUPERBLOCK: usize = 64;

/// Superblock summation: accumulate blocks of [`SUPERBLOCK`] terms
/// naively (registers/L1), then combine the partial sums pairwise —
/// `O(ε·(B + log(n/B)))` error at streaming cost.
pub fn sum_superblock(x: &[f64]) -> f64 {
    if x.len() <= SUPERBLOCK {
        return x.iter().sum();
    }
    let mut partials: Vec<f64> = x.chunks(SUPERBLOCK).map(|c| c.iter().sum()).collect();
    // Pairwise tree over the partials.
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        for pair in partials.chunks(2) {
            next.push(pair.iter().sum());
        }
        partials = next;
    }
    partials[0]
}

/// Which accumulation scheme a checksum producer should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SumScheme {
    /// Sequential accumulation (what a plain BLAS GEMV does).
    #[default]
    Naive,
    /// Superblock/pairwise combination (reference 27's recommendation).
    Superblock,
    /// Neumaier-compensated.
    Compensated,
}

impl SumScheme {
    /// Sums `x` under this scheme.
    pub fn sum(self, x: &[f64]) -> f64 {
        match self {
            SumScheme::Naive => x.iter().sum(),
            SumScheme::Superblock => sum_superblock(x),
            SumScheme::Compensated => sum_compensated(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An adversarial sum: many tiny values after one huge one, so naive
    /// accumulation loses them all.
    fn adversarial(n: usize) -> (Vec<f64>, f64) {
        let mut x = vec![1e8];
        x.extend(std::iter::repeat_n(1e-8, n));
        x.push(-1e8);
        let exact = 1e-8 * n as f64; // the tiny parts survive exactly
        (x, exact)
    }

    #[test]
    fn compensated_beats_naive_on_adversarial_input() {
        let (x, exact) = adversarial(100_000);
        let naive: f64 = x.iter().sum();
        let comp = sum_compensated(&x);
        let err_naive = (naive - exact).abs();
        let err_comp = (comp - exact).abs();
        assert!(
            err_comp < err_naive / 1e3,
            "comp {err_comp} vs naive {err_naive}"
        );
        assert!(err_comp < 1e-12, "compensated error {err_comp}");
    }

    #[test]
    fn superblock_beats_naive_on_random_input() {
        // Statistical error growth: naive O(n), superblock O(log n).
        let n = 1 << 18;
        let x = ft_matrix::random::uniform(n, 1, 7);
        let xs = x.as_slice();
        let exact = sum_compensated(xs); // reference
        let naive: f64 = xs.iter().sum();
        let sblock = sum_superblock(xs);
        assert!(
            (sblock - exact).abs() <= (naive - exact).abs() + 1e-15,
            "superblock {} vs naive {}",
            (sblock - exact).abs(),
            (naive - exact).abs()
        );
    }

    #[test]
    fn all_schemes_agree_on_easy_input() {
        let x: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let exact = 500500.0;
        for scheme in [
            SumScheme::Naive,
            SumScheme::Superblock,
            SumScheme::Compensated,
        ] {
            assert_eq!(scheme.sum(&x), exact, "{scheme:?}");
        }
    }

    #[test]
    fn empty_and_single() {
        for scheme in [
            SumScheme::Naive,
            SumScheme::Superblock,
            SumScheme::Compensated,
        ] {
            assert_eq!(scheme.sum(&[]), 0.0);
            assert_eq!(scheme.sum(&[42.0]), 42.0);
        }
    }
}
