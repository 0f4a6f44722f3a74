//! The benchmark's own spans: recorded around calls into each layer,
//! kept in memory, written as JSON lines at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span belongs to: a replay repetition or a service job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tag {
    Rep(u64),
    Job(u64),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub tag: Tag,
    /// Floating-point operations (or bytes, for a bandwidth-bound layer)
    /// the spanned call performs; 0 when not counted.
    pub work: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub tag: Tag,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: vec![],
            open: vec![],
            tag: Tag::Rep(0),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds since the epoch at instant `t`.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            tag: self.tag,
            work: 0.0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let i = self.open.pop().expect("Tracer::end without begin");
        self.spans[i].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// [`Tracer::scope`] that also records the call's work.
    pub fn scope_work<R>(&mut self, name: &'static str, work: f64, f: impl FnOnce() -> R) -> R {
        let r = self.scope(name, f);
        self.spans.last_mut().expect("span just closed").work = work;
        r
    }

    /// Adds an already-timed span (client-side service spans).
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            tag: self.tag,
            work: 0.0,
        });
        self.spans.len() - 1
    }

    /// All spans as JSON lines: `{name, start_us, end_us, parent, rep|job}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let (key, id) = match sp.tag {
                Tag::Rep(r) => ("rep", r),
                Tag::Job(j) => ("job", j),
            };
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"{key}\":{id}}}",
                sp.name, sp.start_us, sp.end_us
            );
        }
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![vec![]; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(f64, f64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_us.max(s.start_us),
                        spans[c].end_us.min(s.end_us),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

/// `true` when span `i` lies (strictly) inside a span named `name`.
pub fn inside(spans: &[Span], mut i: usize, name: &str) -> bool {
    while let Some(p) = spans[i].parent {
        if spans[p].name == name {
            return true;
        }
        i = p;
    }
    false
}

/// Per-repetition sums: `rep → name → (self µs, inclusive µs, work)`.
pub type RepTotals = BTreeMap<u64, BTreeMap<&'static str, (f64, f64, f64)>>;

pub fn per_rep_totals(spans: &[Span]) -> RepTotals {
    let selfs = self_times(spans);
    let mut out = RepTotals::new();
    for (s, st) in spans.iter().zip(selfs) {
        let Tag::Rep(r) = s.tag else { continue };
        let e = out.entry(r).or_default().entry(s.name).or_default();
        e.0 += st;
        e.1 += s.dur_us();
        e.2 += s.work;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: a,
            end_us: b,
            parent,
            tag: Tag::Rep(0),
            work: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            sp("root", 0.0, 100.0, None),
            sp("a", 10.0, 30.0, Some(0)),
            sp("b", 40.0, 70.0, Some(0)),
            sp("a.x", 12.0, 20.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 12.0, 30.0, 8.0]);
        assert!(inside(&spans, 3, "root") && inside(&spans, 3, "a"));
        assert!(!inside(&spans, 2, "a") && !inside(&spans, 0, "root"));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            sp("job", 0.0, 100.0, None),
            sp("queued", 0.0, 60.0, Some(0)),
            sp("executed", 50.0, 90.0, Some(0)),
            sp("late", 95.0, 130.0, Some(0)),
        ];
        // Covered: [0, 90) ∪ [95, 100) = 95.
        assert_eq!(self_times(&spans)[0], 5.0);
    }

    #[test]
    fn tracer_nests_and_totals_per_rep() {
        let mut t = Tracer::new(Instant::now());
        t.tag = Tag::Rep(3);
        t.begin("root");
        t.scope_work("leaf", 42.0, || std::hint::black_box(1 + 1));
        t.end();
        assert_eq!(t.spans[1].parent, Some(0));
        let totals = per_rep_totals(&t.spans);
        let rep = &totals[&3];
        assert_eq!(rep["leaf"].2, 42.0);
        let root = rep["root"];
        assert!((root.0 + rep["leaf"].1 - root.1).abs() < 1e-6);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_jsonl().contains("\"parent\":0,\"rep\":3"));
    }
}
