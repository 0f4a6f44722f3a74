//! The trace gate reads `FT_TRACE` and `FT_TRACE_RECORDER` together, once,
//! and code then overrides either half. A recorder override made in code
//! before anything reads the gate must survive that first read, and the
//! mode still comes from the environment.
//!
//! One test function: it sets the environment of its own process before
//! the gate is first read.

use ft_trace::{recorder, TraceMode};

#[test]
fn recorder_override_in_code_meets_mode_from_env() {
    std::env::set_var("FT_TRACE", "summary");
    std::env::set_var("FT_TRACE_RECORDER", "off");
    recorder::configure(false, 64, None);

    assert_eq!(ft_trace::mode(), TraceMode::Summary, "mode from FT_TRACE");
    assert!(ft_trace::recording(), "collection turns the rings on");
    assert!(!recorder::is_on(), "the recorder knob stays off");
    assert_eq!(
        recorder::stats().capacity,
        64,
        "the first read of the environment keeps the capacity set in code"
    );

    ft_trace::set_mode(TraceMode::Off);
    assert!(!ft_trace::recording(), "both gates off: the rings stop");
    assert!(
        !recorder::is_on(),
        "set_mode leaves the recorder knob alone"
    );
}
