//! The SQPeer benchmark: four workloads, eight end-to-end metrics, a
//! per-layer ladder. See `README.md` beside this crate.
//!
//! ```text
//! run       [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! trace     [--workload W] [--seed N] [--seconds S]         (= run --trace 1)
//! selfcheck [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the machine-readable result. Without it every
//! workload runs in a child process of its own, so peak memory is per
//! workload and one the watchdog stops does not take the others with it.

mod gen;
mod gw;
mod json;
mod ladder;
mod metrics;
mod run;
mod sim;
mod span;
mod stats;
mod sys;
mod workload;

use json::Json;
use metrics::{Better, DEFAULT_SEED, END_TO_END, HOLDOUT_SEED, RUN_SECONDS, WORKLOADS};
use run::Options;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: sqpeer-benchmark <run|trace|selfcheck> \
[--workload gw_point|gw_scan|sim_zipf|sim_churn] [--seed N] [--seconds 1..60] \
[--trace 0|1] [--quick]";

struct Args {
    command: String,
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = args.next().ok_or("missing command")?;
    if !["run", "trace", "selfcheck"].contains(&command.as_str()) {
        return Err(format!("unknown command {command}"));
    }
    let mut parsed = Args {
        traced: command == "trace",
        command,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        quick: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| **w == value);
                parsed.workload = Some(known.ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => {
                parsed.seconds = number()?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err(format!("--seconds {value}: out of 1..60"));
                }
            }
            "--trace" => parsed.traced = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}\ndefault seed {DEFAULT_SEED}, hold-out seed {HOLDOUT_SEED}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), args.workload) {
        ("selfcheck", _) => selfcheck(&args),
        (_, Some(workload)) => {
            let report = run::run(&Options {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                quick: args.quick,
            });
            println!("{}", report.result_line());
            // A fault-free run in which anything failed is itself a failure.
            ExitCode::from(u8::from(!report.correct()))
        }
        (_, None) => {
            let results = suite(&args);
            ExitCode::from(u8::from(results.iter().any(|r| !r.correct)))
        }
    }
}

/// What a child process reported for one workload.
struct ChildResult {
    correct: bool,
    /// End-to-end medians by catalogue position; empty if the child was
    /// stopped before it could measure.
    values: Vec<Option<f64>>,
}

/// Runs every workload in a child process of its own, relaying its output.
fn suite(args: &Args) -> Vec<ChildResult> {
    let exe = std::env::current_exe().expect("own executable path");
    WORKLOADS
        .iter()
        .map(|workload| {
            let mut command = Command::new(&exe);
            command
                .args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }]);
            if args.quick {
                command.arg("--quick");
            }
            // `output` waits for the child and collects what it printed.
            let output = command.output().expect("child process starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let result = stdout.lines().last().and_then(json::parse);
            let correct = output.status.success()
                && result
                    .as_ref()
                    .and_then(|r| r.get("correct"))
                    .and_then(Json::as_bool)
                    == Some(true);
            if !correct {
                println!("{workload}: FAILED ({})", output.status);
            }
            let values = END_TO_END
                .iter()
                .map(|def| {
                    result
                        .as_ref()?
                        .get("metrics")?
                        .get(def.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            ChildResult { correct, values }
        })
        .collect()
}

/// On the simulator these are counts on the virtual clock: two runs of the
/// same code on the same seed must agree to the last digit.
const EXACT_ON_SIM: [&str; 2] = ["msgs_per_query", "bytes_per_query"];

/// Runs the untraced suite twice back to back and holds the second set of
/// medians against the first: no metric may be worse by more than its
/// bound, and the simulator's virtual counters must be equal. This is the
/// benchmark checking its own noise floor — if two runs of the same code
/// disagree by more than a bound, that bound cannot gate anything.
fn selfcheck(args: &Args) -> ExitCode {
    let args = Args {
        command: "run".into(),
        traced: false,
        ..*args
    };
    let (first, second) = (suite(&args), suite(&args));
    println!(
        "\nselfcheck, seed {}: second run against first\n  {:<10} {:<24} {:>14} {:>14} {:>8} {:>6}",
        args.seed, "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut ok = true;
    for ((workload, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        ok &= a.correct && b.correct;
        for (i, def) in END_TO_END.iter().enumerate() {
            let (Some(x), Some(y)) = (a.values[i], b.values[i]) else {
                println!("  {workload:<10} {:<24} missing", def.name);
                ok = false;
                continue;
            };
            let worse = match def.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let exact = workload.starts_with("sim_") && EXACT_ON_SIM.contains(&def.name);
            let verdict = if exact && x != y {
                "  <-- not equal"
            } else if worse > def.bound {
                "  <-- over"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            println!(
                "  {workload:<10} {:<24} {x:>14.3} {y:>14.3} {:>7.1}% {:>5.0}%{verdict}",
                def.name,
                worse * 100.0,
                def.bound * 100.0
            );
        }
    }
    println!("selfcheck: {}", if ok { "OK" } else { "FAILED" });
    ExitCode::from(u8::from(!ok))
}
