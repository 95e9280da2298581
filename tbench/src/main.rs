//! End-to-end and per-layer benchmark of the TensorTEE simulator stack.
//!
//! ```text
//! cargo run --release --manifest-path tbench/Cargo.toml -- \
//!     --workload <train|serve|fleet|registry> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the stack through its public API only, in this one process,
//! with at most `available_parallelism` worker threads; only the cold
//! start-ups timed by `setup_s` and the `registry` passes run in child
//! processes of this program. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `tbench/README.md`.

mod fleet;
mod harness;
mod metrics;
mod registry;
mod serve;
mod stats;
mod sweep;
mod trace;
mod train;

use harness::{context, measure, Run, Workload};
use metrics::Metric;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["train", "serve", "fleet", "registry"];

/// Cold start-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;

/// Where traced runs write their Chrome trace-event JSON.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only set the workload up and exit (a cold start-up sample).
    setup_only: bool,
    /// Only run one `registry` pass and print it (a cold pass).
    pass_only: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut pass_only = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == SETUP_ONLY {
            setup_only = true;
            continue;
        }
        if flag == registry::PASS_ONLY {
            pass_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if pass_only && workload != "registry" {
        return Err(format!(
            "{} runs only the registry workload",
            registry::PASS_ONLY
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
        pass_only,
    })
}

/// The flag that makes a child process only set the workload up.
const SETUP_ONLY: &str = "--setup-only";

/// Sets a workload up: builds its contexts and generates the inputs of
/// its first unit, as one `tensortee` invocation sets up one pass or one
/// sweep. Later units generate theirs as the run reaches them.
fn setup(workload: &str, seed: u64, workers: usize) -> Box<dyn Workload> {
    match workload {
        "train" => Box::new(train::Train::new(seed)),
        "serve" => Box::new(sweep::Sweep::new(
            context(seed, workers),
            serve::sweep_points,
            serve::eval,
        )),
        "fleet" => Box::new(sweep::Sweep::new(
            context(seed, workers),
            fleet::sweep_points,
            fleet::eval,
        )),
        "registry" => Box::new(registry::Registry {
            ctx: context(seed, workers),
        }),
        other => unreachable!("parse admits only known workloads, got {other}"),
    }
}

/// Times [`SETUP_SAMPLES`] cold start-ups of `args`: a fresh process of
/// this program that starts, sets the workload up as the run did, and
/// exits. Every `tensortee` invocation pays its start-up with its set-up,
/// and a set-up of microseconds (on `registry` it is only the run
/// context) would otherwise read as page-fault noise.
fn cold_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let out = Command::new(&exe)
                .args(["--workload", args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg(SETUP_ONLY)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            let elapsed = start.elapsed().as_secs_f64();
            if out.status.success() {
                Ok(elapsed)
            } else {
                Err(format!("set-up process failed ({})", out.status))
            }
        })
        .collect()
}

fn summary(args: &Args, w: &dyn Workload, run: &Run) -> String {
    format!(
        "workload {} seed {} workers {} units {} wall {:.3} s\n\
         ops attempted {} failed {} fail_frac {}\n\
         digest {:016x} over unit 0 ({} ops)\n\
         direct-vs-staged checks on the staged price of the direct run's own bytes: {} point(s)\n\
         op_ms_p50 {:.6} ms over n={} ops (not in BENCHMARK.json, see README)\n\
         samples: ops_per_s and op_ms_p90 are medians over {} unit(s) of ~{} ops\n",
        args.workload,
        args.seed,
        w.workers(),
        run.units,
        run.wall.as_secs_f64(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
        run.digest.value(),
        run.digest_ops,
        run.own_bytes_checks,
        stats::median(&run.op_ms),
        run.op_ms.len(),
        run.units,
        run.attempted / run.units.max(1) as u64,
    )
}

fn result_json(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: tensortee-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.pass_only {
        registry::print_pass(&context(args.seed, workers));
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    let w = setup(args.workload, args.seed, workers);
    let own_setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        return ExitCode::SUCCESS;
    }
    let setup_s = match cold_setups(&args) {
        Ok(samples) => samples,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "set-up: {own_setup_s:.6} s in this process; {:.6} s median cold start-up with set-up over {} processes",
        stats::median(&setup_s),
        setup_s.len()
    );
    let budget = Duration::from_secs_f64(args.seconds);

    // A traced run measures first, so that its spans see the program's
    // memos as cold as an untraced run does.
    trace::enable(args.trace);
    let run = measure(w.as_ref(), budget, None);
    trace::enable(false);
    print!("{}", summary(&args, w.as_ref(), &run));
    let mut correct = run.failed == 0;
    let metrics = if args.trace {
        let spans = trace::take();
        // The untraced run repeats exactly the traced run's units, so the
        // wall-time difference is the tracing overhead.
        let untraced = measure(w.as_ref(), budget, Some(run.units));
        if untraced.digest != run.digest || untraced.failed != 0 {
            eprintln!("error: the traced run's outputs differ from the untraced run's");
            correct = false;
        }
        print!("{}", metrics::self_time_table(&spans, &run, w.workers()));
        println!(
            "tracing overhead: {:.3} s traced - {:.3} s untraced = {:+.3} s over {} spans",
            run.wall.as_secs_f64(),
            untraced.wall.as_secs_f64(),
            run.wall.as_secs_f64() - untraced.wall.as_secs_f64(),
            spans.len()
        );
        let path = format!("{TRACE_DIR}/trace-{}-{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        {
            Ok(()) => println!("chrome trace: {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        metrics::per_layer(&spans, &run, w.workers(), untraced.wall)
    } else {
        metrics::end_to_end(&setup_s, &run)
    };
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(correct, &run, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&args("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve",
                seed: 7,
                seconds: 10.0,
                trace: true,
                setup_only: false,
                pass_only: false
            }
        );
        assert!(parse(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("--workload train --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload train --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload train --seconds 1")).is_err());
        assert!(
            parse(&args("--workload train --seed 1 --seconds 1 --setup-only"))
                .unwrap()
                .setup_only
        );
        assert!(
            parse(&args(
                "--workload registry --seed 1 --seconds 1 --pass-only"
            ))
            .unwrap()
            .pass_only
        );
        assert!(parse(&args("--workload train --seed 1 --seconds 1 --pass-only")).is_err());
    }

    /// Extracts the `name`s of one metric list of `BENCHMARK.json`.
    fn names_in(benchmark: &str, list: &str) -> Vec<String> {
        let start = benchmark
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("{list} in BENCHMARK.json"));
        let body = &benchmark[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let benchmark = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(tensortee::json::is_well_formed(benchmark.trim()));
        let e2e: Vec<String> = metrics::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names_in(&benchmark, "end_to_end"), e2e);
        let layers: Vec<String> = metrics::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names_in(&benchmark, "per_layer"), layers);
        assert_eq!(names_in(&benchmark, "workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let run = Run {
            attempted: 3,
            failed: 1,
            ..Run::default()
        };
        let m = metrics::end_to_end(&[0.5], &run);
        let line = result_json(false, &run, &m);
        assert!(tensortee::json::is_well_formed(&line));
        for (name, unit) in metrics::END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
