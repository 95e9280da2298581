//! The perf trajectory — `tensortee bench`.
//!
//! Times every registry artifact (warmup + median-of-N wall clock), the
//! per-point cost of every `explore` scenario sweep and a list of
//! per-layer kernel microbenches, and renders
//! the result as the `BENCH_<rev>.json` baseline committed at the repo
//! root. CI re-measures on every push and *ratchets*: a median more than
//! the tolerance band above the committed baseline fails the build
//! (`scripts/bench_ratchet.py`), so a simulator performance regression
//! can no longer land silently.
//!
//! Everything here is wall-clock measurement — the one part of the repo
//! that is *not* deterministic. The JSON schema therefore separates
//! structure from timings: ids, counts and configuration are stable
//! fields, and every timing is a JSON float, so masking the floats must
//! make two runs byte-identical (the `bench_trajectory` integration
//! suite pins exactly that).

use crate::artifact::{registry, RunContext};
use crate::des_cluster::{DesClusterConfig, DesClusterSystem};
use crate::experiments::fleet_setup;
use crate::explore::{run_scenario, Scenario};
use crate::json::Json;
use crate::report::Table;
use std::time::Instant;
use tee_attack::{extractable_bits, link_sessions, Observation, Shaping, MEASUREMENT_QUANTUM};
use tee_sim::probe::SharedProbe;
use tee_sim::{EventQueue, HeapQueue, SplitMix64, Time};
use tee_workloads::StepSchedule;

/// The `schema` tag carried by every `BENCH_<rev>.json`.
pub const SCHEMA: &str = "tensortee-bench/v2";

/// Measurement options for [`BenchTrajectory::measure`].
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Timed repetitions per artifact/sweep; the reported value is their
    /// median. Must be at least 1.
    pub repeats: u32,
    /// Untimed warmup runs per artifact (cache/allocator warm).
    pub warmup: u32,
    /// Emit a progress line per artifact on stderr.
    pub progress: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            repeats: 3,
            warmup: 1,
            progress: false,
        }
    }
}

/// Wall-clock timing of one registry artifact.
#[derive(Debug, Clone)]
pub struct ArtifactTiming {
    /// The artifact id (registry order is preserved).
    pub id: &'static str,
    /// Median of the timed repetitions, milliseconds.
    pub median_ms: f64,
    /// Fastest repetition, milliseconds.
    pub min_ms: f64,
    /// Slowest repetition, milliseconds.
    pub max_ms: f64,
}

/// Wall-clock timing of one `explore` scenario sweep.
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// The scenario label (`train` / `cluster` / `serve` / `des` /
    /// `fleet` / `attack`).
    pub scenario: &'static str,
    /// Points sampled by the sweep.
    pub points: usize,
    /// Point × mode evaluations priced.
    pub evaluations: usize,
    /// Median sweep wall time, milliseconds (memos warm — the marginal
    /// cost of a sweep, not the first-run warm-up).
    pub median_ms: f64,
    /// Median per-point cost, microseconds.
    pub per_point_us: f64,
}

/// Wall-clock timing of one kernel microbench: a fixed unit of work from
/// one layer of the stack, timed in isolation so its cost reads as
/// nanoseconds per unit.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Stack layer the kernel belongs to (`sim` / `attack`).
    pub layer: &'static str,
    /// Kernel name, unique within its layer.
    pub kernel: &'static str,
    /// Work units one repetition processes (events, features, objects);
    /// deterministic for a fixed context, so this is a structural field.
    pub units: u64,
    /// Median wall time, milliseconds.
    pub median_ms: f64,
    /// Median cost per unit, nanoseconds.
    pub ns_per_unit: f64,
}

/// One measured point on the repo's perf trajectory.
#[derive(Debug, Clone)]
pub struct BenchTrajectory {
    /// The git revision measured (short hash, or `unknown` outside git).
    pub rev: String,
    /// `fast` or `full` — which [`RunContext`] the artifacts ran under.
    pub profile: &'static str,
    /// Timed repetitions per entry.
    pub repeats: u32,
    /// Untimed warmup runs per entry.
    pub warmup: u32,
    /// The context's explore point budget.
    pub explore_points: u32,
    /// The context's explorer worker threads.
    pub worker_threads: u32,
    /// The context seed.
    pub seed: u64,
    /// Per-artifact timings, in registry order.
    pub artifacts: Vec<ArtifactTiming>,
    /// Per-scenario sweep timings, in [`Scenario::all`] order.
    pub sweeps: Vec<SweepTiming>,
    /// Kernel microbenches, in row order: the `sim` queue and probe
    /// pairs, then the `attack` stages.
    pub kernels: Vec<KernelTiming>,
}

/// Events per queue-microbench repetition: the acceptance bar for the
/// calendar queue is "faster than the heap at >= 10^6 events", so even
/// the fast profile drives a full 2^20-event hold-model churn.
const QUEUE_BENCH_EVENTS: u64 = 1 << 20;

/// Live events the hold-model keeps in flight (the typical DES regime:
/// every pop schedules a successor a random offset ahead).
const QUEUE_BENCH_LIVE: u64 = 4096;

/// Drives one queue through the hold-model workload: seed `LIVE` events,
/// then pop-and-replace until `events` pops have happened. The event
/// stream is a pure function of the fixed seed, so both implementations
/// see identical schedules. Returns a checksum so the work cannot be
/// optimized away.
fn drive_queue<Q>(
    q: &mut Q,
    events: u64,
    mut sched: impl FnMut(&mut Q, Time, u64),
    mut pop: impl FnMut(&mut Q) -> Option<(Time, u64)>,
) -> u64 {
    let mut rng = SplitMix64::new(0x5EED_CA1E_0DA0);
    let seeded = QUEUE_BENCH_LIVE.min(events);
    for i in 0..seeded {
        sched(q, Time::from_ns(rng.next_below(1_000_000)), i);
    }
    let mut next_id = seeded;
    let mut checksum = 0u64;
    for _ in 0..events {
        let (now, e) = pop(q).expect("hold-model keeps the queue non-empty");
        checksum = checksum.wrapping_add(e ^ now.as_ps());
        if next_id < events {
            sched(
                q,
                now + Time::from_ns(1 + rng.next_below(1_000_000)),
                next_id,
            );
            next_id += 1;
        }
    }
    checksum
}

/// Times one kernel: `opts.warmup` untimed calls of `f`, then the median
/// of `opts.repeats` timed ones, priced per each of the `units` of work
/// one call processes.
fn time_kernel(
    layer: &'static str,
    kernel: &'static str,
    units: u64,
    opts: &BenchOptions,
    f: impl Fn(),
) -> KernelTiming {
    if opts.progress {
        eprintln!("bench kernel {layer}/{kernel} ...");
    }
    for _ in 0..opts.warmup {
        f();
    }
    let median_ms = median(&time_repeats(opts.repeats, &f));
    KernelTiming {
        layer,
        kernel,
        units,
        median_ms,
        ns_per_unit: median_ms * 1e6 / units.max(1) as f64,
    }
}

/// Times every kernel microbench, in row order:
///
/// * `sim/calendar`, `sim/heap` — the calendar queue the DES scheduler
///   runs on vs. the binary-heap reference, same hold-model workload;
/// * `sim/probe_null`, `sim/probe_trace` — the DES cluster step with
///   observability off vs. recording. Both rows count the probe events
///   one recording captures, so the null row reads as the cost per
///   dropped hook and ratchets the zero-overhead-when-off claim;
/// * `attack/observe`, `attack/traffic`, `attack/residency` — the
///   tee-attack analysis stages on a fixed recorded trace.
fn measure_kernels(ctx: &RunContext, opts: &BenchOptions) -> Vec<KernelTiming> {
    let mut out = queue_kernels(opts);
    out.extend(probe_kernels(ctx, opts));
    out.extend(attack_kernels(ctx, opts));
    out
}

/// Times both event-queue implementations on the shared workload.
fn queue_kernels(opts: &BenchOptions) -> Vec<KernelTiming> {
    let events = QUEUE_BENCH_EVENTS;
    vec![
        time_kernel("sim", "calendar", events, opts, || {
            let mut q: EventQueue<u64> = EventQueue::new();
            std::hint::black_box(drive_queue(
                &mut q,
                events,
                |q, at, e| q.schedule(at, e),
                |q| q.pop(),
            ));
        }),
        time_kernel("sim", "heap", events, opts, || {
            let mut q: HeapQueue<u64> = HeapQueue::new();
            std::hint::black_box(drive_queue(
                &mut q,
                events,
                |q, at, e| q.schedule(at, e),
                |q| q.pop(),
            ));
        }),
    ]
}

/// The probe-overhead workload, mirroring the `obs_utilization` artifact:
/// the context's largest cluster running the primary model one full DES
/// step under TensorTEE, emitting into the given probe.
fn probe_workload(ctx: &RunContext) -> impl Fn(&SharedProbe) + '_ {
    let schedule = StepSchedule::of(&ctx.primary_model());
    let n = ctx.cluster_sizes.iter().copied().max().unwrap_or(4).max(2);
    move |probe: &SharedProbe| {
        let des = DesClusterSystem::new(
            ctx.cfg.clone(),
            DesClusterConfig::lockstep(ctx.cluster_of(n)),
            crate::SecureMode::TensorTee,
        )
        .with_probe(probe.clone())
        .simulate_with_cpu_time(&schedule, Time::from_ms(25));
        std::hint::black_box(des);
    }
}

/// Times the probe workload with tracing off and on.
fn probe_kernels(ctx: &RunContext, opts: &BenchOptions) -> Vec<KernelTiming> {
    let simulate = probe_workload(ctx);
    // The event count is structural: record once outside the timers.
    let recorded = SharedProbe::recording();
    simulate(&recorded);
    let events = recorded.snapshot().map_or(0, |s| s.events().len() as u64);
    vec![
        time_kernel("sim", "probe_null", events, opts, || {
            simulate(&SharedProbe::Null)
        }),
        time_kernel("sim", "probe_trace", events, opts, || {
            simulate(&SharedProbe::recording())
        }),
    ]
}

/// Times the tee-attack analysis stages on a fixed recorded trace: one
/// serving run of the primary model (the `attack_defended` setup) and
/// one fleet session trace, simulated/generated once outside the
/// timers, then each adversary stage repeated on the frozen inputs.
fn attack_kernels(ctx: &RunContext, opts: &BenchOptions) -> Vec<KernelTiming> {
    let model = ctx.primary_model();
    let (_, test_seed) = crate::attack::attack_seeds(ctx);
    let (_, snap) = crate::attack::traced_serve(ctx, &model, test_seed);
    let view = Observation::from_trace(&snap);
    let features = view.features(MEASUREMENT_QUANTUM);
    let fleet_model = ctx.primary_model();
    let (_, trace_cfg) = fleet_setup(ctx, &fleet_model, ctx.fleet_rate_rps, ctx.seed);
    let trace = trace_cfg.generate();
    let (sessions, sizes) = crate::attack::spilled_objects(&fleet_model, &trace);
    let samples: Vec<(u64, u64)> = sessions.into_iter().zip(sizes).collect();
    vec![
        time_kernel(
            "attack",
            "observe",
            snap.events().len() as u64,
            opts,
            || {
                std::hint::black_box(Observation::from_trace(&snap));
            },
        ),
        time_kernel("attack", "traffic", features.len() as u64, opts, || {
            let bits = extractable_bits(&features);
            let shaped = Shaping::Padded.apply(&view);
            std::hint::black_box((bits, shaped.padding));
        }),
        time_kernel("attack", "residency", samples.len() as u64, opts, || {
            std::hint::black_box(link_sessions(&samples));
        }),
    ]
}

/// Times `repeats` invocations of `f`, returning each wall time in
/// milliseconds.
fn time_repeats(repeats: u32, mut f: impl FnMut()) -> Vec<f64> {
    assert!(repeats > 0, "bench needs at least one timed repetition");
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The median of `samples` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The short hash of the checked-out revision, or `unknown` when git (or
/// a repository) is unavailable — bench must keep working from a tarball.
pub fn detect_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchTrajectory {
    /// Measures the full trajectory under `ctx`: every registry artifact,
    /// then every scenario sweep (first warmed, then timed, so the
    /// sweep numbers report the marginal cost the memos leave behind).
    pub fn measure(ctx: &RunContext, opts: &BenchOptions) -> BenchTrajectory {
        assert!(opts.repeats > 0, "bench needs at least one repetition");
        let artifacts = registry()
            .iter()
            .map(|a| {
                if opts.progress {
                    eprintln!("bench {} ({}) ...", a.id, a.paper_anchor);
                }
                for _ in 0..opts.warmup {
                    let _ = a.run(ctx);
                }
                let samples = time_repeats(opts.repeats, || {
                    let _ = a.run(ctx);
                });
                ArtifactTiming {
                    id: a.id,
                    median_ms: median(&samples),
                    min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
                    max_ms: samples.iter().copied().fold(0.0, f64::max),
                }
            })
            .collect();
        let sweeps = Scenario::all()
            .iter()
            .map(|&scenario| {
                if opts.progress {
                    eprintln!("bench sweep {} ...", scenario.label());
                }
                // One untimed sweep fills the (model, mode) CPU and NPU
                // memos; the timed repetitions then measure what every
                // *subsequent* sweep costs.
                let warm = run_scenario(scenario, ctx);
                let points = warm.points.len();
                let evaluations = warm.evals.iter().map(Vec::len).sum();
                let samples = time_repeats(opts.repeats, || {
                    let _ = run_scenario(scenario, ctx);
                });
                let median_ms = median(&samples);
                SweepTiming {
                    scenario: scenario.label(),
                    points,
                    evaluations,
                    median_ms,
                    per_point_us: median_ms * 1e3 / points.max(1) as f64,
                }
            })
            .collect();
        let kernels = measure_kernels(ctx, opts);
        BenchTrajectory {
            rev: detect_rev(),
            profile: if ctx.fast { "fast" } else { "full" },
            repeats: opts.repeats,
            warmup: opts.warmup,
            explore_points: ctx.explore_points,
            worker_threads: ctx.worker_threads,
            seed: ctx.seed,
            artifacts,
            sweeps,
            kernels,
        }
    }

    /// The file name the baseline is committed under: `BENCH_<rev>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.rev)
    }

    /// The machine-readable shape (the `BENCH_<rev>.json` schema — see
    /// EXPERIMENTS.md). Timings are the only floats; everything
    /// structural is a string or integer, so masking `Json::Float`
    /// values yields a byte-stable structure across runs.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::str(SCHEMA)),
            ("rev", Json::str(self.rev.clone())),
            ("profile", Json::str(self.profile)),
            ("repeats", Json::Int(i64::from(self.repeats))),
            ("warmup", Json::Int(i64::from(self.warmup))),
            ("explore_points", Json::Int(i64::from(self.explore_points))),
            ("worker_threads", Json::Int(i64::from(self.worker_threads))),
            ("seed", Json::Int(self.seed as i64)),
            (
                "artifacts",
                Json::Array(
                    self.artifacts
                        .iter()
                        .map(|a| {
                            Json::object([
                                ("id", Json::str(a.id)),
                                ("median_ms", Json::Float(a.median_ms)),
                                ("min_ms", Json::Float(a.min_ms)),
                                ("max_ms", Json::Float(a.max_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "sweeps",
                Json::Array(
                    self.sweeps
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("scenario", Json::str(s.scenario)),
                                ("points", Json::Int(s.points as i64)),
                                ("evaluations", Json::Int(s.evaluations as i64)),
                                ("median_ms", Json::Float(s.median_ms)),
                                ("per_point_us", Json::Float(s.per_point_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "kernels",
                Json::Array(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Json::object([
                                ("layer", Json::str(k.layer)),
                                ("kernel", Json::str(k.kernel)),
                                ("units", Json::Int(k.units as i64)),
                                ("median_ms", Json::Float(k.median_ms)),
                                ("ns_per_unit", Json::Float(k.ns_per_unit)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable rendering `tensortee bench` prints.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# Perf trajectory — rev {} ({} profile, median of {}, warmup {})\n\n",
            self.rev, self.profile, self.repeats, self.warmup
        );
        let mut artifacts = Table::new(["artifact", "median", "min", "max"])
            .captioned("Registry artifact wall time");
        for a in &self.artifacts {
            artifacts.row([
                a.id.to_string(),
                format!("{:.1} ms", a.median_ms),
                format!("{:.1} ms", a.min_ms),
                format!("{:.1} ms", a.max_ms),
            ]);
        }
        out.push_str(&artifacts.to_markdown());
        out.push('\n');
        let mut sweeps = Table::new(["scenario", "points", "evaluations", "median", "per point"])
            .captioned("Explore sweep cost (memos warm)");
        for s in &self.sweeps {
            sweeps.row([
                s.scenario.to_string(),
                s.points.to_string(),
                s.evaluations.to_string(),
                format!("{:.1} ms", s.median_ms),
                format!("{:.1} us", s.per_point_us),
            ]);
        }
        out.push_str(&sweeps.to_markdown());
        if !self.kernels.is_empty() {
            out.push('\n');
            let mut kernels = Table::new(["layer", "kernel", "units", "median", "per unit"])
                .captioned("Kernel microbenches");
            for k in &self.kernels {
                kernels.row([
                    k.layer.to_string(),
                    k.kernel.to_string(),
                    k.units.to_string(),
                    format!("{:.1} ms", k.median_ms),
                    format!("{:.1} ns", k.ns_per_unit),
                ]);
            }
            out.push_str(&kernels.to_markdown());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn rev_is_nonempty_and_filename_embeds_it() {
        let rev = detect_rev();
        assert!(!rev.is_empty());
        let t = BenchTrajectory {
            rev: "abc123".into(),
            profile: "fast",
            repeats: 3,
            warmup: 1,
            explore_points: 32,
            worker_threads: 4,
            seed: 42,
            artifacts: vec![],
            sweeps: vec![],
            kernels: vec![],
        };
        assert_eq!(t.file_name(), "BENCH_abc123.json");
        let json = t.to_json().to_string();
        assert!(crate::json::is_well_formed(&json), "{json}");
        assert!(json.contains("\"schema\":\"tensortee-bench/v2\""));
    }

    #[test]
    fn queue_workload_is_identical_across_implementations() {
        // Far fewer events than the bench, but the same generator: both
        // queues must pop the exact same (time, event) stream.
        let mut cal: EventQueue<u64> = EventQueue::new();
        let a = drive_queue(&mut cal, 10_000, |q, at, e| q.schedule(at, e), |q| q.pop());
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let b = drive_queue(&mut heap, 10_000, |q, at, e| q.schedule(at, e), |q| q.pop());
        assert_eq!(a, b, "checksums diverge: calendar and heap disagree");
    }

    /// One timed repetition, no warmup: the unit tests check structure,
    /// not speed.
    const ONCE: BenchOptions = BenchOptions {
        repeats: 1,
        warmup: 0,
        progress: false,
    };

    /// The `(layer, kernel)` names of `rows`, in order.
    fn names(rows: &[KernelTiming]) -> Vec<(&'static str, &'static str)> {
        rows.iter().map(|k| (k.layer, k.kernel)).collect()
    }

    #[test]
    fn queue_bench_meets_the_event_floor() {
        const { assert!(QUEUE_BENCH_EVENTS >= 1_000_000) };
        let rows = queue_kernels(&ONCE);
        assert_eq!(names(&rows), [("sim", "calendar"), ("sim", "heap")]);
        for k in &rows {
            assert_eq!(k.units, QUEUE_BENCH_EVENTS);
            assert!(k.median_ms > 0.0 && k.ns_per_unit > 0.0, "{}", k.kernel);
        }
    }

    #[test]
    fn probe_bench_records_events_only_when_tracing() {
        let mut ctx = RunContext::fast();
        ctx.cluster_sizes = vec![1, 2];
        let null = SharedProbe::Null;
        probe_workload(&ctx)(&null);
        assert!(null.snapshot().is_none(), "null probe must record nothing");

        let rows = probe_kernels(&ctx, &ONCE);
        assert_eq!(
            names(&rows),
            [("sim", "probe_null"), ("sim", "probe_trace")]
        );
        assert!(rows[0].units > 0, "trace probe recorded nothing");
        assert_eq!(rows[0].units, rows[1].units);
        for k in &rows {
            assert!(
                k.median_ms >= 0.0 && k.ns_per_unit.is_finite(),
                "{}",
                k.kernel
            );
        }
    }

    #[test]
    fn attack_bench_times_each_stage_on_frozen_inputs() {
        let rows = attack_kernels(&RunContext::fast(), &ONCE);
        assert_eq!(
            names(&rows),
            [
                ("attack", "observe"),
                ("attack", "traffic"),
                ("attack", "residency")
            ]
        );
        for k in &rows {
            assert!(k.units > 0, "{} analyzed nothing", k.kernel);
            assert!(
                k.median_ms >= 0.0 && k.ns_per_unit.is_finite(),
                "{}",
                k.kernel
            );
        }
    }

    #[test]
    fn time_repeats_returns_one_sample_per_repeat() {
        let samples = time_repeats(4, || std::hint::black_box(()));
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|&ms| ms >= 0.0 && ms.is_finite()));
    }
}
