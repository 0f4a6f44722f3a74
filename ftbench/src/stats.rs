//! Order statistics over timing samples, and the process's peak memory.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A percentile in basis points (9900 = p99), so that "samples beyond"
/// is exact integer arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pct(pub u32);

impl Pct {
    pub const P50: Pct = Pct(5000);
    pub const P75: Pct = Pct(7500);
    pub const P90: Pct = Pct(9000);
    pub const P99: Pct = Pct(9900);
    pub const P999: Pct = Pct(9990);
    const LADDER: [Pct; 5] = [Pct::P50, Pct::P75, Pct::P90, Pct::P99, Pct::P999];

    /// Samples strictly beyond this percentile among `count`.
    pub fn beyond(self, count: usize) -> usize {
        count * (10_000 - self.0 as usize) / 10_000
    }

    /// Display label: `p50`, `p99`, `p99.9`.
    pub fn label(self) -> String {
        if self.0.is_multiple_of(100) {
            format!("p{}", self.0 / 100)
        } else {
            format!("p{}", self.0 as f64 / 100.0)
        }
    }

    /// The highest percentile of p50/p75/p90/p99/p99.9 that has at least
    /// ten samples beyond it; p50 when even that has fewer.
    pub fn highest_with_ten_beyond(count: usize) -> Pct {
        Pct::LADDER
            .into_iter()
            .rev()
            .find(|p| p.beyond(count) >= 10)
            .unwrap_or(Pct::P50)
    }
}

/// Nearest-rank percentile of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: Pct) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (s.len() * p.0 as usize).div_ceil(10_000).max(1);
    s[rank - 1]
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default exclusive method, which
/// extrapolates for tiny inputs); both equal the single value for a
/// one-sample input.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let len = s.len();
    match len {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let q = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// `part ÷ whole`, or 1 when `whole` is 0 (nothing could be missed).
pub fn frac_or_one(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident set size of this process, MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_with_ten_beyond() {
        assert_eq!(Pct::highest_with_ten_beyond(0), Pct::P50);
        assert_eq!(Pct::highest_with_ten_beyond(19), Pct::P50);
        assert_eq!(Pct::highest_with_ten_beyond(20), Pct::P50);
        assert_eq!(Pct::highest_with_ten_beyond(39), Pct::P50);
        assert_eq!(Pct::highest_with_ten_beyond(40), Pct::P75);
        assert_eq!(Pct::highest_with_ten_beyond(99), Pct::P75);
        assert_eq!(Pct::highest_with_ten_beyond(100), Pct::P90);
        assert_eq!(Pct::highest_with_ten_beyond(999), Pct::P90);
        assert_eq!(Pct::highest_with_ten_beyond(1000), Pct::P99);
        assert_eq!(Pct::highest_with_ten_beyond(10_000), Pct::P999);
        assert_eq!((Pct::P99.beyond(1000), Pct::P99.beyond(1099)), (10, 10));
        assert_eq!(Pct::P99.beyond(999), 9);
        assert_eq!(Pct::P999.label(), "p99.9");
        assert_eq!(Pct::P75.label(), "p75");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, Pct::P50), 50.0);
        assert_eq!(percentile(&xs, Pct::P90), 90.0);
        assert_eq!(percentile(&xs, Pct::P99), 99.0);
        assert_eq!(percentile(&[3.0], Pct::P99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 5.0));
    }
}
