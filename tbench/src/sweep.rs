//! Design sweeps shared by `serve` and `fleet`: points fan out over
//! `tee_explore::Executor`, each point runs one op per `SecureMode`, and
//! the sweep ends with a Pareto frontier over the (point, mode) results.

use crate::harness::{op, Run, Workload};
use crate::stats::Digest;
use crate::trace::{self, BENCH};
use std::time::{Duration, Instant};
use tee_explore::{pareto_frontier, Executor, Sense};
use tee_sim::Time;
use tensortee::{RunContext, SecureMode};

/// One point's ops, indexed like [`SecureMode::all`]: the result (`None`
/// if the op panicked) and its latency in milliseconds.
pub type PointOps<R> = [(Option<R>, f64); 3];

/// One point's check: whether each of its results (indexed like
/// [`SecureMode::all`]) passes, and whether the direct run had to be
/// bounded by the staged price of its own bytes (see
/// [`direct_within_staged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Per mode: the result passes its checks.
    pub ok: [bool; 3],
    /// The staged run migrated fewer bytes than the direct run.
    pub by_own_bytes: bool,
}

/// A (point, mode) result a sweep can check, digest and rank.
pub trait Outcome: Send + Sized {
    /// Checks one point's results (indexed like [`SecureMode::all`]).
    fn check(ops: &[Option<&Self>; 3]) -> Checked;
    /// Feeds every simulated statistic into `d`.
    fn feed(&self, d: &mut Digest);
    /// Adds the result's work counts to `run`.
    fn count(&self, run: &mut Run);
    /// The frontier objectives: throughput (higher is better) and exposed
    /// migration time (lower is better).
    fn objectives(&self) -> Vec<f64>;
}

/// Runs `eval` for every (point, mode) on `workers` executor threads and
/// books the sweep's busy time and worker capacity into `run`. Each
/// worker takes its points in a fixed stride and issues the next op when
/// the previous one finishes (a closed loop).
pub fn run<P, R, F>(run: &mut Run, workers: usize, points: &[P], eval: F) -> Vec<PointOps<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, SecureMode) -> R + Sync,
{
    let start = Instant::now();
    // The executor's per-point RNG streams go unused: every input is
    // generated up front from the benchmark seed.
    let out = Executor::new(workers as u32, 0).run_items(points, &|_, p, _| {
        SecureMode::all().map(|mode| op(|| eval(p, mode)))
    });
    let wall = start.elapsed();
    let busy_ms: f64 = out.iter().flatten().map(|(_, ms)| ms).sum();
    run.busy += Duration::from_secs_f64(busy_ms / 1e3);
    run.capacity += wall * workers as u32;
    out
}

/// Records finished sweep `k` into `run`: checks, counts, the Pareto
/// frontier, and (for sweep 0) the digest.
pub fn book<R: Outcome>(run: &mut Run, k: usize, results: &[PointOps<R>]) {
    let _span = trace::enter(BENCH, "sweep_post");
    let mut digest = Digest::default();
    let mut objectives = Vec::new();
    for point in results {
        let checked = R::check(&[0, 1, 2].map(|m| point[m].0.as_ref()));
        run.own_bytes_checks += u64::from(checked.by_own_bytes);
        for ((r, ms), ok) in point.iter().zip(checked.ok) {
            run.record(*ms, ok);
            let Some(r) = r else { continue };
            r.feed(&mut digest);
            r.count(run);
            objectives.push(r.objectives());
        }
    }
    let frontier = trace::span("explore", "pareto_frontier", || {
        pareto_frontier(&objectives, &[Sense::Maximize, Sense::Minimize])
    });
    for i in frontier {
        digest.u64(i as u64);
    }
    run.digest_unit(k, digest, 3 * results.len() as u64);
}

/// A sweep workload: sweep `k` prices the points `points(ctx, k)`.
pub struct Sweep<P, R> {
    ctx: RunContext,
    workers: usize,
    first: Vec<P>,
    points: fn(&RunContext, usize) -> Vec<P>,
    eval: fn(&P, SecureMode) -> R,
}

impl<P, R> Sweep<P, R> {
    /// Generates sweep 0 over the context `ctx`.
    pub fn new(
        ctx: RunContext,
        points: fn(&RunContext, usize) -> Vec<P>,
        eval: fn(&P, SecureMode) -> R,
    ) -> Self {
        Sweep {
            workers: ctx.worker_threads as usize,
            first: points(&ctx, 0),
            ctx,
            points,
            eval,
        }
    }
}

impl<P: Sync, R: Outcome> Workload for Sweep<P, R> {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run_unit(&self, k: usize, run: &mut Run) {
        let later;
        let points = if k == 0 {
            &self.first
        } else {
            later = trace::span(BENCH, "generate", || (self.points)(&self.ctx, k));
            &later
        };
        let results = self::run(run, self.workers, points, self.eval);
        book(run, k, &results);
    }
}

/// One run's KV migrations.
#[derive(Debug, Clone, Copy)]
pub struct Migrations {
    /// Migration time added to the makespan.
    pub exposed: Time,
    /// Bytes migrated.
    pub bytes: u64,
    /// What the staged protocol, unable to overlap compute, would expose
    /// to migrate this run's bytes.
    pub staged_price: Time,
}

/// Whether the direct protocol exposes no more migration time than the
/// staged one on the same trace; the second value is whether the bound
/// came from the direct run's own bytes. The modes' different iteration
/// speeds can change what migrates at all. Where the staged run moved
/// fewer bytes than the direct run (it may move none), the direct run is
/// held to what the staged protocol would expose for the direct run's
/// bytes instead.
pub fn direct_within_staged(direct: Migrations, staged: Migrations) -> (bool, bool) {
    if staged.bytes >= direct.bytes {
        (direct.exposed <= staged.exposed, false)
    } else {
        (direct.exposed <= direct.staged_price, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(exposed: u64, bytes: u64, staged_price: u64) -> Migrations {
        Migrations {
            exposed: Time::from_us(exposed),
            bytes,
            staged_price: Time::from_us(staged_price),
        }
    }

    #[test]
    fn direct_exposure_is_bounded_by_the_staged_run_or_its_own_bytes() {
        assert_eq!(
            direct_within_staged(m(1, 10, 3), m(5, 10, 5)),
            (true, false)
        );
        assert_eq!(
            direct_within_staged(m(6, 10, 9), m(5, 10, 5)),
            (false, false)
        );
        // The staged run spilled nothing: bound by the staged price of
        // the direct run's bytes.
        assert_eq!(
            direct_within_staged(m(542, 10, 3048), m(0, 0, 0)),
            (true, true)
        );
        assert_eq!(
            direct_within_staged(m(3049, 10, 3048), m(0, 0, 0)),
            (false, true)
        );
    }
}
