//! The closed-loop measurement harness shared by every workload.
//!
//! A workload is a sequence of *units* (a training pass, a sweep, a
//! registry pass) made of *ops*. The harness runs whole units until the
//! time budget would be exceeded, so every run measures a whole number of
//! units whose op mix does not depend on the seed. The digest covers unit
//! 0 only, which every run completes, so it never depends on host speed.

use crate::stats::{quantile, Digest};
use crate::trace;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tensortee::RunContext;

/// The run context every workload derives its sizes from: the fast
/// profile (`tensortee run --fast`, `tensortee explore` in the fast
/// context) seeded with the benchmark seed, with the explorer fanning
/// points over `workers` threads (the CLI's `--threads`).
pub fn context(seed: u64, workers: usize) -> RunContext {
    RunContext::fast()
        .with_seed(seed)
        .with_worker_threads(u32::try_from(workers).unwrap_or(u32::MAX))
}

/// What one measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Latency of every successful op, milliseconds.
    pub op_ms: Vec<f64>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that panicked or failed an output check.
    pub failed: u64,
    /// Digest of unit 0's simulated outputs.
    pub digest: Digest,
    /// Ops covered by [`Self::digest`].
    pub digest_ops: u64,
    /// Units completed.
    pub units: usize,
    /// Wall time of the measured units.
    pub wall: Duration,
    /// Σ op busy time inside units that fan ops across workers.
    pub busy: Duration,
    /// Σ (workers × unit wall) over the same units.
    pub capacity: Duration,
    /// Work counts (`cpu.lines`, `sim.des_events`, …).
    pub counts: BTreeMap<&'static str, u64>,
    /// Per unit: successful ops per second of unit wall time.
    pub unit_rates: Vec<f64>,
    /// Per unit: the 90th-percentile latency of its successful ops, ms.
    pub unit_p90_ms: Vec<f64>,
    /// Sweep points whose direct run was checked against the staged
    /// price of its own bytes (the staged run migrated fewer bytes).
    pub own_bytes_checks: u64,
    /// Peak resident memory of the child processes units ran in, MiB.
    pub child_peak_rss_mb: f64,
}

impl Run {
    /// Records one finished op.
    pub fn record(&mut self, ms: f64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.op_ms.push(ms);
        } else {
            self.failed += 1;
        }
    }

    /// Adds `n` to the work count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Keeps `digest` (over `ops` ops) when `unit` is unit 0.
    pub fn digest_unit(&mut self, unit: usize, digest: Digest, ops: u64) {
        if unit == 0 {
            self.digest = digest;
            self.digest_ops = ops;
        }
    }

    /// Ops that completed and passed their checks.
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Worker threads ops fan out over.
    fn workers(&self) -> usize;
    /// The fewest units one run measures, whether or not they fit.
    fn min_units(&self) -> usize {
        1
    }
    /// The most units one run may measure (`None` = as many as fit).
    fn max_units(&self) -> Option<usize> {
        None
    }
    /// Runs unit `k`, recording its ops into `run`.
    fn run_unit(&self, k: usize, run: &mut Run);
}

/// The outcome of one op: its result (`None` if it panicked) and its
/// latency in milliseconds. The op runs inside a `bench/op` span, and a
/// panic is caught so that it counts as one failed op instead of ending
/// the run.
pub fn op<T>(f: impl FnOnce() -> T) -> (Option<T>, f64) {
    let _span = trace::enter(trace::BENCH, "op");
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs whole units of `w`: exactly `units` of them when given, otherwise
/// at least [`Workload::min_units`] and then more while the next
/// (estimated from the last) still fits in `budget`.
pub fn measure(w: &dyn Workload, budget: Duration, units: Option<usize>) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    let mut last = Duration::ZERO;
    loop {
        let k = run.units;
        let more = match units {
            Some(n) => k < n,
            None => {
                k < w.min_units()
                    || (w.max_units().is_none_or(|m| k < m) && start.elapsed() + last <= budget)
            }
        };
        if !more {
            break;
        }
        let (ok_before, ms_before) = (run.ok_ops(), run.op_ms.len());
        let t = Instant::now();
        w.run_unit(k, &mut run);
        last = t.elapsed();
        run.units += 1;
        let ok = run.ok_ops() - ok_before;
        run.unit_rates.push(ok as f64 / last.as_secs_f64());
        run.unit_p90_ms.push(quantile(&run.op_ms[ms_before..], 0.9));
    }
    run.wall = start.elapsed();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter;

    impl Workload for Counter {
        fn workers(&self) -> usize {
            1
        }
        fn run_unit(&self, k: usize, run: &mut Run) {
            let (out, ms) = op(|| {
                assert!(k != 1, "unit 1 fails");
                k
            });
            run.record(ms, out.is_some());
        }
    }

    #[test]
    fn a_panicking_op_counts_as_failed_and_the_run_goes_on() {
        let run = measure(&Counter, Duration::ZERO, Some(3));
        assert_eq!((run.attempted, run.failed, run.units), (3, 1, 3));
        assert_eq!(run.ok_ops(), 2);
    }

    #[test]
    fn a_zero_budget_still_measures_one_unit() {
        let run = measure(&Counter, Duration::ZERO, None);
        assert_eq!(run.units, 1);
    }
}
