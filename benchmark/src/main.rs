//! The boolmatch benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! boolmatch-benchmark run     [--seed N] [--workload NAME] [--seconds S]
//! boolmatch-benchmark trace   [--seed N] [--workload NAME] [--seconds S]
//! boolmatch-benchmark aa      [--seed N] [--workload NAME] [--seconds S]
//! boolmatch-benchmark compare OLD.json NEW.json
//! boolmatch-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the one `BENCHMARK.json`'s `command` is completed
//! to: one workload, one result object as the last line of stdout.

mod harness;
mod json;
mod layers;
mod report;
mod run;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use report::Manifest;
use run::Outcome;
use workloads::{Inputs, Spec};

/// Measured seconds per workload when a subcommand is not told.
const DEFAULT_RUN_SECONDS: f64 = 18.0;
const DEFAULT_TRACE_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 2005;

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: DEFAULT_SEED,
        workload: None,
        seconds: None,
        trace: None,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_string())?;
            }
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?;
                if !(s.is_finite() && (0.5..=600.0).contains(&s)) {
                    return Err("--seconds must lie between 0.5 and 600".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn selected(args: &Args) -> Result<Vec<&'static Spec>, String> {
    match &args.workload {
        None => Ok(workloads::ALL.iter().collect()),
        Some(name) => workloads::by_name(name).map(|s| vec![s]).ok_or_else(|| {
            let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
            format!("unknown workload `{name}`; known: {}", names.join(", "))
        }),
    }
}

/// Where trace and result files go: `benchmark/out` from the
/// repository root, `out` from inside the package.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn run_one(spec: &'static Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(spec, seed);
    if traced {
        run::traced(&inputs, seconds, &out_dir())
    } else {
        run::measure(&inputs, seconds)
    }
}

/// Runs the selected workloads and prints each as it finishes.
fn suite(
    args: &Args,
    manifest: &Manifest,
    traced: bool,
    seconds: f64,
) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for spec in selected(args)? {
        let outcome = run_one(spec, args.seed, seconds, traced);
        report::print_outcome(&outcome, manifest, traced);
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn save(
    outcomes: &[Outcome],
    manifest: &Manifest,
    mode: &str,
    args: &Args,
    seconds: f64,
) -> Result<PathBuf, String> {
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{mode}-seed{}.json", args.seed)));
    let doc = report::document(outcomes, manifest, mode, args.seed, seconds);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn any_failed(outcomes: &[Outcome]) -> bool {
    outcomes.iter().any(|o| o.failed > 0)
}

fn real_main() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::embedded()?;
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), &raw[1..]),
        _ => ("driver".to_string(), &raw[..]),
    };
    let args = parse_args(rest)?;
    match command.as_str() {
        "driver" => {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let seconds = args.seconds.ok_or("--seconds is required")?;
            let traced = args.trace.ok_or("--trace is required")?;
            let spec =
                workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            report::print_fingerprint(args.seed);
            let outcome = run_one(spec, args.seed, seconds, traced);
            report::print_outcome(&outcome, &manifest, traced);
            let line = report::driver_line(&outcome, &manifest, traced)?;
            println!("{line}");
            Ok(if outcome.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        "run" | "trace" => {
            let traced = command == "trace";
            let seconds = args.seconds.unwrap_or(if traced {
                DEFAULT_TRACE_SECONDS
            } else {
                DEFAULT_RUN_SECONDS
            });
            report::print_fingerprint(args.seed);
            let outcomes = suite(&args, &manifest, traced, seconds)?;
            let path = save(&outcomes, &manifest, &command, &args, seconds)?;
            println!("wrote {}", path.display());
            Ok(if any_failed(&outcomes) {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        "aa" => {
            let seconds = args.seconds.unwrap_or(DEFAULT_RUN_SECONDS);
            report::print_fingerprint(args.seed);
            println!("== A/A: first set");
            let first = suite(&args, &manifest, false, seconds)?;
            println!("== A/A: second set");
            let second = suite(&args, &manifest, false, seconds)?;
            let a = report::document(&first, &manifest, "run", args.seed, seconds);
            let b = report::document(&second, &manifest, "run", args.seed, seconds);
            let flagged = report::compare(&a, &b, &manifest);
            Ok(
                if flagged > 0 || any_failed(&first) || any_failed(&second) {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                },
            )
        }
        "compare" => {
            let [old, new] = args.positional.as_slice() else {
                return Err("compare expects two result files".into());
            };
            let read = |path: &String| -> Result<Json, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let flagged = report::compare(&read(old)?, &read(new)?, &manifest);
            Ok(if flagged > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        other => Err(format!(
            "unknown command `{other}`; expected run, trace, aa or compare"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
