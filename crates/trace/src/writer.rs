//! Trace emitters: aggregate summary, JSONL, and `chrome://tracing` JSON.
//!
//! The workspace deliberately carries no serde; the two JSON shapes emitted
//! here are flat enough that hand-rolled string building (with proper
//! escaping) is simpler than a dependency.

use crate::registry::{counters, gauges};
use crate::span::{totals, Event};
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a duration/timestamp in microseconds with fixed precision,
/// avoiding exponent notation so every JSON consumer parses it.
fn us(v: f64) -> String {
    format!("{v:.3}")
}

/// Renders `events` as a `chrome://tracing` / Perfetto-compatible JSON
/// object (`{"traceEvents": [...]}`). Wall-clock spans land on pid 1 with
/// their recording thread as tid; simulated-clock events land on pid 2 so
/// the simulated schedule displays as a second process next to the real
/// one. Counters and gauges are appended as process-scoped metadata
/// counters ("C" phase) at the end of the timeline.
pub fn to_chrome_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };

    // Name the two processes so the viewer labels them.
    for (pid, label) in [(1, "wall-clock"), (2, "simulated")] {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        );
    }

    let mut max_end = 0.0f64;
    for ev in events {
        let pid = if ev.cat == "sim" { 2 } else { 1 };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":{ts},\"dur\":{dur}",
            tid = ev.tid,
            name = json_escape(ev.name),
            cat = json_escape(ev.cat),
            ts = us(ev.start_us),
            dur = us(ev.dur_us),
        );
        let mut args: Vec<String> = Vec::new();
        if let Some(a) = ev.arg {
            args.push(format!("\"arg\":{a}"));
        }
        if let Some(c) = ev.ctx {
            args.push(format!("\"job\":{},\"attempt\":{}", c.job_id, c.attempt));
        }
        if !args.is_empty() {
            let _ = write!(out, ",\"args\":{{{}}}", args.join(","));
        }
        out.push('}');
        max_end = max_end.max(ev.start_us + ev.dur_us);
    }

    for (name, value) in counters() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"C\",\"pid\":1,\"name\":\"{}\",\"ts\":{},\"args\":{{\"value\":{value}}}}}",
            json_escape(name),
            us(max_end),
        );
    }
    for (name, value) in gauges() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"C\",\"pid\":1,\"name\":\"{}\",\"ts\":{},\"args\":{{\"value\":{value}}}}}",
            json_escape(name),
            us(max_end),
        );
    }

    out.push_str("\n]}\n");
    out
}

/// Appends one event as a single JSON object line — the format shared
/// by the `jsonl` sink and flight-recorder dumps.
pub(crate) fn event_line(out: &mut String, ev: &Event) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"tid\":{tid},\"start_us\":{ts},\"dur_us\":{dur}",
        name = json_escape(ev.name),
        cat = json_escape(ev.cat),
        tid = ev.tid,
        ts = us(ev.start_us),
        dur = us(ev.dur_us),
    );
    if let Some(a) = ev.arg {
        let _ = write!(out, ",\"arg\":{a}");
    }
    if let Some(c) = ev.ctx {
        let _ = write!(out, ",\"job\":{},\"attempt\":{}", c.job_id, c.attempt);
    }
    out.push_str("}\n");
}

/// Renders `events` as JSON Lines: one object per span event, then one
/// `{"counter": ...}` / `{"gauge": ...}` object per registry entry.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        event_line(&mut out, ev);
    }
    for (name, value) in counters() {
        let _ = writeln!(
            out,
            "{{\"counter\":\"{}\",\"value\":{value}}}",
            json_escape(name)
        );
    }
    for (name, value) in gauges() {
        let _ = writeln!(
            out,
            "{{\"gauge\":\"{}\",\"value\":{value}}}",
            json_escape(name)
        );
    }
    out
}

/// Renders an aggregated plain-text summary: one row per span name
/// (count, total ms, mean µs), then the counter and gauge registries.
pub fn summary_string(events: &[Event]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== ft-trace summary ==");

    let agg = totals(events);
    if agg.is_empty() {
        let _ = writeln!(out, "(no span events collected)");
    } else {
        let name_w = agg.iter().map(|t| t.name.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "{:<name_w$} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "mean_us"
        );
        for t in &agg {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>8} {:>12.3} {:>12.3}",
                t.name,
                t.count,
                t.total_us / 1e3,
                t.total_us / t.count as f64,
            );
        }
    }

    let cs = counters();
    let gs = gauges();
    if !cs.is_empty() || !gs.is_empty() {
        let name_w = cs
            .iter()
            .chain(gs.iter())
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(7)
            .max(7);
        let _ = writeln!(out, "{:<name_w$} {:>12}", "counter", "value");
        for (n, v) in cs {
            let _ = writeln!(out, "{n:<name_w$} {v:>12}");
        }
        for (n, v) in gs {
            let _ = writeln!(out, "{n:<name_w$} {v:>12} (gauge)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                name: "ft.panel",
                cat: "wall",
                arg: Some(3),
                tid: 1,
                start_us: 0.0,
                dur_us: 12.5,
                ctx: None,
            },
            Event {
                name: "device",
                cat: "sim",
                arg: None,
                tid: 2,
                start_us: 5.0,
                dur_us: 7.0,
                ctx: None,
            },
        ]
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_json_shape() {
        let s = to_chrome_json(&sample());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"name\":\"ft.panel\""));
        // sim events go to pid 2
        assert!(s.contains("\"pid\":2,\"tid\":2,\"name\":\"device\""));
        assert!(s.contains("\"args\":{\"arg\":3}"));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let s = to_jsonl(&sample());
        let span_lines: Vec<&str> = s.lines().filter(|l| l.contains("\"cat\"")).collect();
        assert_eq!(span_lines.len(), 2);
        for l in span_lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn summary_lists_spans() {
        let s = summary_string(&sample());
        assert!(s.contains("ft.panel"));
        assert!(s.contains("device"));
        assert!(s.contains("count"));
    }
}
