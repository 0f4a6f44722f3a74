//! `ftbench`: the seeded benchmark for FT `gehrd` and `ft-serve`.
//!
//! ```text
//! ftbench [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--spans PATH]
//! ftbench compare [--spec BENCHMARK.json] <parent runs…> -- <change runs…>
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its result object. Without it, every
//! workload runs in its own child process, one result line each. The exit
//! code is non-zero when any output was silently wrong. See README.md.

mod compare;
mod gen;
mod hess;
mod json;
mod metrics;
mod profile;
mod replay;
mod serve;
mod spans;
mod stats;

use hess::HessWorkload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const WORKLOADS: [&str; 4] = ["hess_n1024", "hess_n256", "hess_faulted", "serve_mixed"];

/// The reduction workloads.
fn hess_workload(name: &str) -> Option<HessWorkload> {
    let (n, nb, faulted, warmups) = match name {
        "hess_n1024" => (1024, 64, false, 3),
        "hess_n256" => (256, 32, false, 20),
        "hess_faulted" => (512, 64, true, 3),
        _ => return None,
    };
    Some(HessWorkload {
        n,
        nb,
        faulted,
        warmups,
    })
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    match parse_opts(args) {
        Ok(o) => match &o.workload {
            Some(w) => run_one(w, &o),
            None => run_all(&o),
        },
        Err(e) => {
            eprintln!("ftbench: {e}");
            eprintln!(
                "usage: ftbench [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--spans PATH]\n       \
                 ftbench compare [--spec BENCHMARK.json] <parent runs…> -- <change runs…>"
            );
            2
        }
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, o: &Opts) -> i32 {
    // Pin what the environment could otherwise vary: serial kernels on
    // this thread, and the span sink off (the flight recorder keeps its
    // default).
    ft_blas::set_backend(ft_blas::Backend::Serial);
    ft_trace::set_mode(ft_trace::TraceMode::Off);
    println!(
        "# ftbench workload={workload} seed={} seconds={} trace={}",
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    let budget = Duration::from_secs_f64(o.seconds);
    let mut out = match (hess_workload(workload), o.trace) {
        (Some(w), false) => hess::timed(workload, &w, o.seed, budget),
        (Some(w), true) => hess::traced(workload, &w, o.seed, budget),
        (None, false) => serve::timed(o.seed, budget),
        (None, true) => serve::traced(o.seed, budget),
    };
    let metrics = out.sheet.metrics();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        out.problems
            .push(format!("metric {} is not finite", m.name));
    }
    if let (Some(path), Some(tr)) = (&o.spans, &out.spans) {
        if let Err(e) = std::fs::write(path, tr.to_jsonl()) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    for p in &out.problems {
        eprintln!("ftbench: {workload}: {p}");
    }
    let correct = out.correct();
    println!(
        "{}",
        json::result_line(correct, out.attempted, out.failed, &metrics)
    );
    i32::from(!correct)
}

/// `spans.jsonl` → `spans.<workload>.jsonl`.
fn spans_path_for(path: &Path, workload: &str) -> PathBuf {
    let stem = path
        .file_stem()
        .map_or("spans".into(), |s| s.to_string_lossy());
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{workload}.{}", ext.to_string_lossy()),
        None => format!("{stem}.{workload}"),
    };
    path.with_file_name(name)
}

/// Runs every workload in its own child process.
fn run_all(o: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ftbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &o.seed.to_string()])
            .args([
                "--seconds",
                &o.seconds.to_string(),
                "--trace",
                if o.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit());
        if let Some(p) = &o.spans {
            cmd.arg("--spans").arg(spans_path_for(p, w));
        }
        let output = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("ftbench: {w}: cannot start: {e}");
                code = 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        match stdout.lines().rev().find(|l| l.starts_with('{')) {
            Some(line) => println!("{{\"workload\":\"{w}\",{}", &line[1..]),
            None => eprintln!("ftbench: {w}: no result line"),
        }
        if !output.status.success() {
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_opts(&args(
            "--workload hess_n256 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("hess_n256"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--trace 2")).is_err());
        assert!(parse_opts(&args("--seconds 0")).is_err());
        assert!(parse_opts(&args("--seed")).is_err());
        assert!(parse_opts(&args("--bogus 1")).is_err());
    }

    #[test]
    fn every_workload_is_defined() {
        for w in WORKLOADS {
            assert_eq!(hess_workload(w).is_some(), w.starts_with("hess_"), "{w}");
        }
        assert_eq!(
            spans_path_for(Path::new("out/spans.jsonl"), "hess_n256"),
            PathBuf::from("out/spans.hess_n256.jsonl")
        );
    }
}
