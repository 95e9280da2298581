//! `registry`: every `artifact::registry()` entry under
//! `RunContext::fast()`, as `tensortee run --all --fast` runs them.
//!
//! A unit is one pass, artifacts in registry order on one thread, with
//! the explorer artifacts fanning their points over `nproc` threads (the
//! CLI's `--threads`), so at most `nproc` threads are busy at once. A
//! second pass in the same process would find the program's memos warm,
//! which no `tensortee` invocation does, so an untraced run measures
//! [`PASSES`] passes, each in a fresh child process of this program. A
//! traced run measures one pass in its own process, whose spans it needs.

use crate::harness::{op, Run, Workload};
use crate::stats::{peak_rss_mb, Digest};
use crate::trace::{self, BENCH};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use tensortee::artifact::{registry, Artifact, RunContext};
use tensortee::json::is_well_formed;
use tensortee::Report;

/// The artifacts that recompute the cacheline-level CPU Adam phase.
pub const CPU_PHASE_ARTIFACTS: [&str; 11] = [
    "fig03",
    "fig05",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "scaling_strong",
    "des_parity",
    "des_straggler",
    "des_pipeline",
    "ablations",
];

/// Checks one artifact's report: well-formed JSON, some content (a
/// table or a metric; `fig15` and `sec62` report metrics and notes
/// only), no empty table, and an exact DES/analytic parity.
pub fn check(report: &Report, json: &str) -> bool {
    let parity =
        report.id() != "des_parity" || report.metric_value("max_divergence_ps") == Some(0.0);
    is_well_formed(json)
        && !(report.tables().is_empty() && report.metrics().is_empty())
        && report.tables().iter().all(|t| !t.is_empty())
        && parity
}

/// One artifact's outcome: its JSON report (`None` if it panicked),
/// whether it passed its check, and its latency in milliseconds.
pub type Outcome = (Option<String>, bool, f64);

/// Runs `artifacts` once, in order; returns their outcomes.
pub fn pass(ctx: &RunContext, artifacts: &[Artifact]) -> Vec<Outcome> {
    artifacts
        .iter()
        .map(|a| {
            let (out, ms) = op(|| {
                let report = trace::span("core", a.id, || a.run(ctx));
                let _check = trace::enter(BENCH, "check");
                let json = report.to_json().to_string();
                let ok = check(&report, &json);
                (json, ok)
            });
            match out {
                Some((json, ok)) => (Some(json), ok, ms),
                None => (None, false, ms),
            }
        })
        .collect()
}

/// Records a finished pass into `run`.
pub fn book(run: &mut Run, k: usize, artifacts: &[Artifact], outcomes: &[Outcome]) {
    let mut digest = Digest::default();
    for (a, (json, ok, ms)) in artifacts.iter().zip(outcomes) {
        run.record(*ms, *ok);
        digest.str(a.id);
        digest.str(json.as_deref().unwrap_or(""));
    }
    run.digest_unit(k, digest, outcomes.len() as u64);
}

/// Cold passes an untraced run measures. A second pass would rarely fit
/// the time budget after the first (11–22 s each on the reference host),
/// so the count is fixed: two passes average one the host slows down.
pub const PASSES: usize = 2;

/// The flag that makes a process of this program run one pass and print
/// it (see [`print_pass`]).
pub const PASS_ONLY: &str = "--pass-only";

/// Runs one pass in this process and prints it for [`cold_pass`]: one
/// `op <ms> <ok> <json or ->` line per artifact, then `rss <MiB>`.
pub fn print_pass(ctx: &RunContext) {
    let mut out = String::new();
    for (json, ok, ms) in pass(ctx, registry()) {
        let json = json.as_deref().unwrap_or("-");
        writeln!(out, "op {ms} {} {json}", u8::from(ok)).expect("write to a String");
    }
    writeln!(out, "rss {}", peak_rss_mb().unwrap_or(0.0)).expect("write to a String");
    print!("{out}");
}

/// Parses what [`print_pass`] printed for `n` artifacts: the outcomes and
/// the peak resident memory.
pub fn parse_pass(stdout: &str, n: usize) -> Option<(Vec<Outcome>, f64)> {
    let mut outcomes = Vec::with_capacity(n);
    let mut rss = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("op ") {
            let mut fields = rest.splitn(3, ' ');
            let ms = fields.next()?.parse().ok()?;
            let ok = fields.next()? == "1";
            let json = fields.next()?;
            outcomes.push(((json != "-").then(|| json.to_string()), ok, ms));
        } else if let Some(mb) = line.strip_prefix("rss ") {
            rss = Some(mb.parse().ok()?);
        }
    }
    (outcomes.len() == n).then_some((outcomes, rss?))
}

/// Runs one pass in a fresh child process of this program, so that it
/// finds the program's memos empty; returns its outcomes and the child's
/// peak resident memory. A child that fails outright fails every
/// artifact.
pub fn cold_pass(ctx: &RunContext) -> (Vec<Outcome>, f64) {
    let n = registry().len();
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", "registry", "--seconds", "1"])
            .args(["--seed", &ctx.seed.to_string()])
            .arg(PASS_ONLY)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let parsed = match out {
        Ok(out) if out.status.success() => parse_pass(&String::from_utf8_lossy(&out.stdout), n),
        Ok(out) => {
            eprintln!("error: registry pass process exited with {}", out.status);
            None
        }
        Err(e) => {
            eprintln!("error: registry pass process: {e}");
            None
        }
    };
    parsed.unwrap_or_else(|| (vec![(None, false, 0.0); n], 0.0))
}

/// The `registry` workload under its run context.
pub struct Registry {
    /// The run context (see [`crate::harness::context`]).
    pub ctx: RunContext,
}

impl Registry {
    /// Passes a run measures: one when traced, else [`PASSES`].
    fn passes(&self) -> usize {
        if trace::enabled() {
            1
        } else {
            PASSES
        }
    }
}

impl Workload for Registry {
    fn workers(&self) -> usize {
        1
    }

    fn min_units(&self) -> usize {
        self.passes()
    }

    fn max_units(&self) -> Option<usize> {
        Some(self.passes())
    }

    fn run_unit(&self, k: usize, run: &mut Run) {
        let outcomes = if trace::enabled() {
            pass(&self.ctx, registry())
        } else {
            let (outcomes, rss) = cold_pass(&self.ctx);
            run.child_peak_rss_mb = run.child_peak_rss_mb.max(rss);
            outcomes
        };
        book(run, k, registry(), &outcomes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::context;
    use tensortee::artifact::find;
    use tensortee::report::Table;

    /// Artifacts from several runner families, including the explorer
    /// whose points fan out over the context's worker threads.
    fn sample() -> Vec<Artifact> {
        ["fig04", "fig15", "tab2", "fleet_latency", "explore_pareto"]
            .into_iter()
            .map(|id| find(id).expect("registered"))
            .collect()
    }

    #[test]
    fn every_cpu_phase_artifact_is_registered() {
        for id in CPU_PHASE_ARTIFACTS {
            assert!(find(id).is_some(), "{id}");
        }
    }

    #[test]
    fn a_printed_pass_parses_back() {
        let stdout = "op 1.5 1 {\"id\": \"a b\"}\nop 2 0 -\nrss 12.5\n";
        let (outcomes, rss) = parse_pass(stdout, 2).expect("well-formed");
        assert_eq!(rss, 12.5);
        assert_eq!(
            outcomes,
            vec![
                (Some("{\"id\": \"a b\"}".to_string()), true, 1.5),
                (None, false, 2.0)
            ]
        );
        assert!(parse_pass(stdout, 3).is_none(), "an artifact missing");
        assert!(parse_pass("op 1 1 {}\n", 1).is_none(), "no rss line");
    }

    #[test]
    fn context_is_a_pure_function_of_the_seed() {
        let debug = |seed| format!("{:?}", context(seed, 2));
        assert_eq!(debug(9), debug(9));
        assert_ne!(debug(9), debug(10));
    }

    #[test]
    fn digest_is_the_same_for_one_and_two_workers() {
        let artifacts = sample();
        let digest = |workers| {
            let mut run = Run::default();
            book(
                &mut run,
                0,
                &artifacts,
                &pass(&context(1, workers), &artifacts),
            );
            (run.digest, run.failed)
        };
        assert_eq!(digest(1), digest(2));
        assert_eq!(digest(1).1, 0);
    }

    fn parity_report(rows: usize, divergence: f64) -> bool {
        let mut table = Table::new(["a"]);
        for _ in 0..rows {
            table.row(["1"]);
        }
        let mut report = find("des_parity").unwrap().new_report();
        report.table(table);
        report.metric("max_divergence_ps", divergence);
        let json = report.to_json().to_string();
        check(&report, &json)
    }

    #[test]
    fn checks_catch_corruption() {
        let report = find("fig04").unwrap().run(&context(1, 1));
        let json = report.to_json().to_string();
        assert!(check(&report, &json));
        assert!(!check(&report, &json[..json.len() - 1]), "truncated JSON");
        let mut empty = find("fig04").unwrap().new_report();
        empty.note("notes alone are no result");
        assert!(
            !check(&empty, &empty.to_json().to_string()),
            "no tables or metrics"
        );
        empty.metric("x", 1.0);
        assert!(check(&empty, &empty.to_json().to_string()));

        assert!(parity_report(1, 0.0));
        assert!(!parity_report(0, 0.0), "empty table");
        assert!(!parity_report(1, 5.0), "DES diverged");
    }
}
