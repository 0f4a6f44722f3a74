//! `ftbench compare <parent runs…> -- <change runs…>`: the two-sided
//! comparison of choosing-metrics §6 and §8, per workload and end-to-end
//! metric, with the bounds and directions read from `BENCHMARK.json`.
//!
//! A run file holds the standard output of one or more runs. A result
//! line's workload is its `workload` key, or else the last
//! `# ftbench workload=<name> …` header line above it.

use crate::json::{parse, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Better,
    Unchanged,
    Unresolved,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One side's summary: median and the quartiles Python's
/// `statistics.quantiles(n=4)` gives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(xs: &[f64]) -> Side {
        let (q1, q3) = quartiles(xs);
        Side {
            median: median(xs),
            q1,
            q3,
        }
    }

    /// Quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    pub parent: Side,
    pub change: Side,
    /// Share of index-paired runs the change won; ties count for neither.
    pub won: f64,
    pub verdict: Verdict,
}

/// Compares one metric. `bound` is the share of the parent median by
/// which the change may be worse.
///
/// * `better`: the change wins at least nine tenths of the pairs and the
///   medians differ, in its favour, by more than the parent's quartile
///   distance;
/// * `unresolved`: otherwise, when either side's spread exceeds the
///   bound, unless every change run reads better (then `unchanged`) or
///   every change run reads worse by more than the bound (then `worse`);
/// * `worse`: the change median is worse than the parent's by more than
///   the bound;
/// * `unchanged`: anything else.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let gain = |p: f64, c: f64| sign * (c - p);
    let (p, c) = (Side::of(parent), Side::of(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&pv, &cv)| gain(pv, cv) > 0.0)
        .count();
    let won = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let worse_share = -gain(p.median, c.median) / p.median.abs().max(f64::MIN_POSITIVE);
    let best = |xs: &[f64]| {
        xs.iter()
            .map(|x| sign * x)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let worst = |xs: &[f64]| xs.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let all_better = pairs > 0 && worst(change) > best(parent);
    let all_worse = pairs > 0 && best(change) < worst(parent);

    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && gain(p.median, c.median) > p.q3 - p.q1 {
        Verdict::Better
    } else if p.spread().max(c.spread()) > bound {
        if all_better {
            Verdict::Unchanged
        } else if all_worse && worse_share > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_share > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Row {
        parent: p,
        change: c,
        won,
        verdict,
    }
}

/// `workload → metric → values`, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let mut header: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ftbench ") {
                header = rest
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix("workload="))
                    .map(str::to_string);
                continue;
            }
            if !line.starts_with('{') {
                continue;
            }
            let v = parse(line).map_err(|e| format!("{f}: {e}"))?;
            let Some(metrics) = v.get("metrics") else {
                continue;
            };
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .map(str::to_string)
                .or_else(|| header.clone())
                .ok_or_else(|| format!("{f}: result line without a workload"))?;
            for (name, m) in metrics.entries() {
                if let Some(x) = m.get("value").and_then(Json::as_f64) {
                    runs.entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(runs)
}

/// `(name, higher_is_better, bound)` of every end-to-end metric.
fn e2e_spec(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// Entry point; returns the exit code (1 if any row is `worse`).
pub fn main(args: &[String]) -> i32 {
    let mut spec = "BENCHMARK.json".to_string();
    let mut sides: [Vec<String>; 2] = [vec![], vec![]];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = p.clone(),
                None => return usage("--spec needs a path"),
            },
            "--" if side == 0 => side = 1,
            _ => sides[side].push(a.clone()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return usage("need parent runs, then --, then change runs");
    }
    let result = e2e_spec(&spec).and_then(|m| Ok((m, load(&sides[0])?, load(&sides[1])?)));
    let (metrics, parent, change) = match result {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    println!(
        "{:<14} {:<16} {:>34} {:>34} {:>5}  verdict",
        "workload", "metric", "parent p50 [q1, q3]", "change p50 [q1, q3]", "won"
    );
    let mut any_worse = false;
    for (workload, pm) in &parent {
        let Some(cm) = change.get(workload) else {
            continue;
        };
        let mut overall = Verdict::Better;
        for (name, higher, bound) in &metrics {
            let (Some(p), Some(c)) = (pm.get(name), cm.get(name)) else {
                continue;
            };
            let row = judge(p, c, *higher, *bound);
            let side = |s: &Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<14} {name:<16} {:>34} {:>34} {:>4.0}%  {} (bound {:.0}%, {} vs {} runs)",
                side(&row.parent),
                side(&row.change),
                100.0 * row.won,
                row.verdict.label(),
                100.0 * bound,
                p.len(),
                c.len()
            );
            overall = overall.max(row.verdict);
        }
        any_worse |= overall == Verdict::Worse;
        println!("{workload:<14} {:<16} {}", "(workload)", overall.label());
    }
    i32::from(any_worse)
}

fn usage(msg: &str) -> i32 {
    eprintln!("ftbench compare: {msg}");
    eprintln!("usage: ftbench compare [--spec BENCHMARK.json] <parent runs…> -- <change runs…>");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i * 7 % 10) as f64 - 4.5))
            .collect()
    }

    #[test]
    fn unchanged_when_medians_agree_within_the_bound() {
        let r = judge(&around(100.0, 0.2), &around(101.0, 0.2), false, 0.1);
        assert_eq!(r.verdict, Verdict::Unchanged);
        assert_eq!(r.parent.median, 100.0);
    }

    #[test]
    fn better_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread() {
        let r = judge(&around(100.0, 0.2), &around(90.0, 0.2), false, 0.1);
        assert_eq!((r.verdict, r.won), (Verdict::Better, 1.0));
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&around(100.0, 0.2), &around(95.0, 0.2), true, 0.1).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&around(90.0, 0.2), &around(100.0, 0.2), true, 0.1).verdict,
            Verdict::Better
        );
        // A gap smaller than the parent's quartile distance is no gain.
        assert_eq!(
            judge(&around(100.0, 1.0), &around(98.0, 1.0), false, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_the_bound() {
        let r = judge(&around(100.0, 0.2), &around(115.0, 0.2), false, 0.1);
        assert_eq!((r.verdict, r.won), (Verdict::Worse, 0.0));
        // Within the bound it is unchanged, though every pair lost.
        assert_eq!(
            judge(&around(100.0, 0.2), &around(105.0, 0.2), false, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn unresolved_when_the_spread_exceeds_the_bound() {
        let r = judge(&around(100.0, 5.0), &around(104.0, 5.0), false, 0.1);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // A clear gain is still a gain under a wide spread…
        assert_eq!(
            judge(&around(100.0, 3.0), &around(80.0, 0.01), false, 0.05).verdict,
            Verdict::Better
        );
        // …and when every change run reads better than every parent run,
        // without a claimable gap, it is no regression…
        let p = vec![100.0, 101.0, 102.0, 130.0, 131.0, 132.0];
        let c = vec![99.0, 99.5, 99.8, 99.9, 99.95, 99.99];
        assert_eq!(judge(&p, &c, false, 0.1).verdict, Verdict::Unchanged);
        // …or every change run reads worse by more than the bound.
        let c = vec![200.0, 210.0, 220.0, 290.0, 300.0, 310.0];
        assert_eq!(judge(&p, &c, false, 0.1).verdict, Verdict::Worse);
    }

    #[test]
    fn loads_headed_and_tagged_result_lines() {
        let dir = std::env::temp_dir().join(format!("ftbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("runs.txt");
        std::fs::write(
            &f,
            "# ftbench workload=hess_n256 seed=1 seconds=5 trace=0\n\
             {\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"gflops\":{\"value\":2.5,\"unit\":\"GFLOP/s\"}}}\n\
             {\"workload\":\"serve_mixed\",\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"gflops\":{\"value\":1.5,\"unit\":\"GFLOP/s\"}}}\n",
        )
        .unwrap();
        let runs = load(&[f.to_string_lossy().into_owned()]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(runs["hess_n256"]["gflops"], vec![2.5]);
        assert_eq!(runs["serve_mixed"]["gflops"], vec![1.5]);
    }
}
