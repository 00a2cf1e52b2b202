//! The SMOQE benchmark. See README.md in this directory.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints, as the last line of standard output, one JSON
//! object with the run's metrics. Without `--workload` it runs all six,
//! each in a child process of its own so that peak memory does not leak
//! from one into the next; `--selfcheck` does that twice and compares.

mod data;
mod harness;
mod metrics;
mod staged;
mod trace;
mod util;
mod workloads;

use harness::{Ctx, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by their permanent names.
pub const WORKLOADS: [&str; 6] = [
    workloads::view_scan::NAME,
    workloads::plan_cold::NAME,
    workloads::serve_point::NAME,
    workloads::serve_mixed_open::NAME,
    workloads::update_durable::NAME,
    workloads::ingest_stream::NAME,
];

pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Report> {
    use workloads::*;
    Some(match name {
        view_scan::NAME => view_scan::run(ctx),
        plan_cold::NAME => plan_cold::run(ctx),
        serve_point::NAME => serve_point::run(ctx),
        serve_mixed_open::NAME => serve_mixed_open::run(ctx),
        update_durable::NAME => update_durable::run(ctx),
        ingest_stream::NAME => ingest_stream::run(ctx),
        _ => return None,
    })
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--selfcheck]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 18.0,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; the workloads are: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; bare `--trace` means 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Set in the environment of a process that [`pinned`] started.
const PINNED: &str = "SMOQE_BENCHMARK_PINNED";

/// The highest-numbered processor this process may run on, from the
/// `Cpus_allowed_list` line of `/proc/self/status` (`0-1`, `0,2-3`, …).
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Runs this very invocation again on one processor, through `taskset`,
/// and returns the child's result — or `None` when that is not possible
/// (already pinned, no `/proc`, no `taskset`), in which case the caller
/// carries on unpinned.
///
/// A request of the TCP workloads is handed from the client to a reader
/// thread to a worker and back: three wake-ups. On the two-processor
/// virtual machine the bounds were fixed on, whether a wake-up crosses
/// to the other — halted — processor costs more than the request itself
/// and changes from second to second (request medians between 20 µs and
/// 110 µs within one run). On one processor every wake-up is a context
/// switch, and the same code repeats within a few percent.
fn pinned(raw: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let out = std::process::Command::new("taskset")
        .arg("-c")
        .arg(last_allowed_cpu()?.to_string())
        .arg(std::env::current_exe().ok()?)
        .args(raw)
        .env(PINNED, "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ran = stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\""));
    if !ran && !out.status.success() {
        return None; // taskset itself failed; nothing was measured
    }
    print!("{stdout}");
    Some(if out.status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Scratch space inside the checkout: `benchmark/out` under the
/// repository root the driver runs the command from, else next to the
/// manifest this binary was built from.
fn out_dir() -> PathBuf {
    let package = PathBuf::from("benchmark");
    if package.join("Cargo.toml").is_file() {
        package.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn print_report(report: &Report) {
    println!("== {} ==", report.workload);
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &report.metrics {
        println!("  {name} = {value:.4} {}", metrics::unit_of(name));
    }
    println!(
        "{}",
        metrics::result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
}

/// Runs each named workload in a child process and returns its result
/// line (the child's human-readable lines pass through).
fn run_children(args: &Args, names: &[String]) -> Result<Vec<(String, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut lines = Vec::new();
    for name in names {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start child for {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            return Err(format!("workload {name} failed ({})", out.status));
        }
        let last = stdout.lines().last().unwrap_or_default().to_string();
        lines.push((name.clone(), last));
    }
    Ok(lines)
}

/// Two full sets back to back; every end-to-end metric of every workload
/// must agree between them within its own bound.
fn selfcheck(args: &Args, names: &[String]) -> Result<(), String> {
    let first = run_children(args, names)?;
    let second = run_children(args, names)?;
    let mut worst = Vec::new();
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for (metric, _, better, bound) in metrics::END_TO_END {
            let (Some(x), Some(y)) = (metrics::value_in(a, metric), metrics::value_in(b, metric))
            else {
                return Err(format!("{name}: no {metric} in the result line"));
            };
            let worse = match better {
                "lower" => (y - x) / x,
                _ => (x - y) / x,
            };
            let verdict = if worse.abs() > bound { "DIFFERS" } else { "ok" };
            println!(
                "selfcheck {name} {metric}: {x:.4} vs {y:.4} ({:+.1}% worse, bound {:.0}%) {verdict}",
                100.0 * worse,
                100.0 * bound
            );
            if worse.abs() > bound {
                worst.push(format!("{metric} on {name}"));
            }
        }
    }
    if worst.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two runs of the same code disagree on: {}",
            worst.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let all: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
    let names = if args.workloads.is_empty() {
        &all
    } else {
        &args.workloads
    };
    let outcome = if args.selfcheck {
        selfcheck(&args, names)
    } else if names.len() > 1 {
        run_children(&args, names).map(drop)
    } else {
        if workloads::wire::NAMES.contains(&names[0].as_str()) {
            if let Some(code) = pinned(&raw) {
                return code;
            }
        }
        let out_dir = out_dir();
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("cannot create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
            out_dir,
        };
        let report = run_workload(&names[0], &ctx).expect("workload names were checked");
        print_report(&report);
        if report.correct {
            Ok(())
        } else {
            Err(format!(
                "{}: {} of {} ops failed",
                names[0], report.failed, report.attempted
            ))
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Result<Args, String> {
        parse_args(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "plan_cold",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec!["plan_cold"]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        let a = args(&[
            "--trace",
            "0",
            "--workload",
            "view_scan",
            "--workload",
            "serve_point",
        ])
        .unwrap();
        assert!(!a.trace);
        assert_eq!(a.workloads.len(), 2);
        // Bare `--trace`, and the defaults.
        let a = args(&["--trace", "--quick"]).unwrap();
        assert!(a.trace && a.quick && a.workloads.is_empty());
        assert_eq!((a.seed, a.seconds), (1, 18.0));
    }

    #[test]
    fn an_unknown_workload_is_an_error_that_lists_the_six() {
        let why = args(&["--workload", "nope"]).err().unwrap();
        for name in WORKLOADS {
            assert!(why.contains(name), "{why}");
        }
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// Every workload, untraced and traced, on documents a twentieth the
    /// size: nothing may fail, and each run must print exactly the metric
    /// set its mode promises.
    #[test]
    fn quick_smoke_of_all_six_workloads_fails_nothing() {
        let out_dir = out_dir().join("test-smoke");
        std::fs::create_dir_all(&out_dir).unwrap();
        for trace in [false, true] {
            for name in WORKLOADS {
                let ctx = Ctx {
                    seed: 7,
                    seconds: 0.8,
                    trace,
                    quick: true,
                    out_dir: out_dir.clone(),
                };
                let report = run_workload(name, &ctx).unwrap();
                assert!(report.correct, "{name}: {:?}", report.notes);
                assert_eq!(report.failed, 0, "{name}: {:?}", report.notes);
                assert!(report.attempted > 0, "{name}");
                let printed: Vec<&str> = report.metrics.keys().copied().collect();
                let mut promised: Vec<&str> = if trace {
                    metrics::PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    metrics::END_TO_END.iter().map(|m| m.0).collect()
                };
                promised.sort_unstable();
                assert_eq!(printed, promised, "{name}");
                if !trace {
                    for (metric, value) in &report.metrics {
                        assert!(*value > 0.0, "{name}: {metric} is {value}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&out_dir).unwrap();
    }
}
