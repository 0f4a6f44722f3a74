//! Matrix-size sweeps: the paper's exact sizes and scaled-down defaults.

/// The ten sizes of the paper's Figure 6 and Tables II/III.
pub fn paper_sizes() -> Vec<usize> {
    vec![1022, 2046, 3070, 4030, 5182, 6014, 7038, 8062, 9086, 10110]
}

/// Scaled-down sizes for real-arithmetic runs on one CPU core. Chosen
/// off-round (like the paper's) and spanning a 4× range so trends are
/// visible.
pub fn scaled_sizes() -> Vec<usize> {
    vec![254, 382, 510, 766, 1022]
}

/// `true` when `FT_BENCH_SMOKE` asks for the fast, CI-sized bench run
/// (set and not `0`/`false`/`off`/`no`). The one place every bench target
/// reads the knob — shared so the accepted spellings can't drift between
/// targets.
pub fn smoke() -> bool {
    ft_trace::env_knob::flag("FT_BENCH_SMOKE")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_figure6_axis() {
        let s = paper_sizes();
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 1022);
        assert_eq!(s[9], 10110);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
