//! The printed metrics: end-to-end from an untraced run, per-layer from
//! the spans of a traced run, and the per-layer self-time table.

use crate::harness::Run;
use crate::registry::CPU_PHASE_ARTIFACTS;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{self, Span, BENCH};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metric names and units, in output order. The median op
/// latency is printed on the summary lines instead (see `tbench/README.md`:
/// on `registry` it jumps between artifact clusters, so no bound holds).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metric names and units, in output order, except the
/// per-artifact `core.<id>_ms` entries (see [`per_layer_names`]).
const PER_LAYER: [(&str, &str); 27] = [
    ("cpu.adam_ms", "ms"),
    ("cpu.ns_per_line", "ns"),
    ("cpu.share", "ratio"),
    ("cpu.lines", "count"),
    ("npu.run_ms", "ms"),
    ("comm.step_ms", "ms"),
    ("sim.des_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.des_events", "count"),
    ("serve.sim_ms_p50", "ms"),
    ("serve.sim_ms_p99", "ms"),
    ("serve.us_per_iter", "us"),
    ("serve.share", "ratio"),
    ("serve.iterations", "count"),
    ("attack.score_ms", "ms"),
    ("attack.share", "ratio"),
    ("fleet.sim_ms_p50", "ms"),
    ("fleet.sim_ms_p99", "ms"),
    ("fleet.ns_per_event", "ns"),
    ("fleet.share", "ratio"),
    ("fleet.events", "count"),
    ("explore.parallel_eff", "ratio"),
    ("explore.frontier_ms", "ms"),
    ("core.train_artifacts_share", "ratio"),
    ("bench.share", "ratio"),
    ("bench.idle_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name and unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(
        tensortee::artifact::registry()
            .iter()
            .map(|a| (format!("core.{}_ms", a.id), "ms")),
    );
    names
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run. Throughput and the tail
/// latency are medians over the run's units, so that a burst of time
/// stolen from the host's cores moves them less.
pub fn end_to_end(setup_s: &[f64], run: &Run) -> Vec<Metric> {
    let values = [
        median(setup_s),
        median(&run.unit_rates),
        median(&run.unit_p90_ms),
        peak_rss_mb().unwrap_or(0.0).max(run.child_peak_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

/// Span-derived aggregates the per-layer metrics read.
struct Layers<'a> {
    spans: &'a [Span],
    /// Σ self time per layer, ns.
    self_ns: BTreeMap<&'static str, u64>,
    /// Per op: Σ span time per layer inside the op, ns.
    per_op: BTreeMap<(u64, &'static str), u64>,
}

impl<'a> Layers<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut per_op = BTreeMap::new();
        for s in spans.iter().filter(|s| s.layer != BENCH) {
            let mut up = by_id.get(&s.parent);
            while let Some(p) = up {
                if p.layer == BENCH && p.name == "op" {
                    *per_op.entry((p.id, s.layer)).or_default() += s.dur_ns();
                    break;
                }
                up = by_id.get(&p.parent);
            }
        }
        Layers {
            spans,
            self_ns: trace::self_time_by_layer(spans),
            per_op,
        }
    }

    fn durations_ms(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    fn total_ns(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    fn per_op_ms_p50(&self, layer: &str) -> f64 {
        let v: Vec<f64> = self
            .per_op
            .iter()
            .filter(|((_, l), _)| *l == layer)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect();
        median(&v)
    }

    fn self_ns(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64
    }
}

/// Worker capacity of a run in ns: workers × wall.
fn capacity_ns(run: &Run, workers: usize) -> f64 {
    run.wall.as_nanos() as f64 * workers as f64
}

/// The per-layer metrics of a traced run; `untraced` is the wall time of
/// the same units measured without spans.
pub fn per_layer(spans: &[Span], run: &Run, workers: usize, untraced: Duration) -> Vec<Metric> {
    let l = Layers::new(spans);
    let cap = capacity_ns(run, workers);
    let count = |name: &str| run.counts.get(name).copied().unwrap_or(0) as f64;
    let share = |layer: &str| ratio(l.self_ns(layer), cap);
    let accounted: f64 = l.self_ns.values().map(|&ns| ns as f64).sum();
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    set("cpu.adam_ms", l.per_op_ms_p50("cpu"));
    set(
        "cpu.ns_per_line",
        ratio(l.total_ns("cpu"), count("cpu.lines")),
    );
    set("cpu.share", share("cpu"));
    set("cpu.lines", count("cpu.lines"));
    set("npu.run_ms", l.per_op_ms_p50("npu"));
    set("comm.step_ms", l.per_op_ms_p50("comm"));
    set("sim.des_ms", l.per_op_ms_p50("sim"));
    set(
        "sim.ns_per_event",
        ratio(l.total_ns("sim"), count("sim.des_events")),
    );
    set("sim.des_events", count("sim.des_events"));
    let serve = l.durations_ms("serve");
    set("serve.sim_ms_p50", median(&serve));
    set("serve.sim_ms_p99", quantile(&serve, 0.99));
    set(
        "serve.us_per_iter",
        ratio(l.total_ns("serve") / 1e3, count("serve.iterations")),
    );
    set("serve.share", share("serve"));
    set("serve.iterations", count("serve.iterations"));
    set("attack.score_ms", median(&l.durations_ms("attack")));
    set("attack.share", share("attack"));
    let fleet = l.durations_ms("fleet");
    set("fleet.sim_ms_p50", median(&fleet));
    set("fleet.sim_ms_p99", quantile(&fleet, 0.99));
    set(
        "fleet.ns_per_event",
        ratio(l.total_ns("fleet"), count("fleet.events")),
    );
    set("fleet.share", share("fleet"));
    set("fleet.events", count("fleet.events"));
    set(
        "explore.parallel_eff",
        ratio(run.busy.as_secs_f64(), run.capacity.as_secs_f64()),
    );
    set("explore.frontier_ms", median(&l.durations_ms("explore")));
    let core: BTreeMap<&str, f64> =
        spans
            .iter()
            .filter(|s| s.layer == "core")
            .fold(BTreeMap::new(), |mut m, s| {
                *m.entry(s.name).or_default() += s.dur_ns() as f64;
                m
            });
    let cpu_phase = CPU_PHASE_ARTIFACTS
        .iter()
        .filter_map(|id| core.get(id))
        .fold(0.0, |a, b| a + b);
    set("core.train_artifacts_share", ratio(cpu_phase, cap));
    for (id, ns) in &core {
        set(&format!("core.{id}_ms"), ns / 1e6);
    }
    set("bench.share", share(BENCH));
    set("bench.idle_share", ratio((cap - accounted).max(0.0), cap));
    set(
        "trace.overhead_pct",
        100.0
            * ratio(
                run.wall.as_secs_f64() - untraced.as_secs_f64(),
                untraced.as_secs_f64(),
            ),
    );
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: v.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// The per-layer self-time table of a traced run: every layer's self
/// time as a share of worker capacity (workers × wall), with the
/// benchmark's own work and the workers' idle time as the remainder.
pub fn self_time_table(spans: &[Span], run: &Run, workers: usize) -> String {
    let by_layer = trace::self_time_by_layer(spans);
    let cap = capacity_ns(run, workers);
    let accounted: u64 = by_layer.values().sum();
    let mut rows: Vec<(String, f64)> = by_layer
        .iter()
        .filter(|(layer, _)| **layer != BENCH)
        .map(|(layer, &ns)| (layer.to_string(), ns as f64))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.push((
        "bench (benchmark overhead)".into(),
        by_layer.get(BENCH).copied().unwrap_or(0) as f64,
    ));
    rows.push((
        "idle (workers waiting)".into(),
        (cap - accounted as f64).max(0.0),
    ));
    let mut out = format!(
        "self time by layer ({workers} worker(s) x {:.3} s wall = {:.1} ms capacity)\n",
        run.wall.as_secs_f64(),
        cap / 1e6
    );
    let _ = writeln!(out, "  {:<28} {:>12} {:>8}", "layer", "self_ms", "share");
    for (layer, ns) in rows {
        let _ = writeln!(
            out,
            "  {:<28} {:>12.3} {:>7.2}%",
            layer,
            ns / 1e6,
            100.0 * ratio(ns, cap)
        );
    }
    out
}
