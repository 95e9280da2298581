//! Bench-trajectory invariants (the `tensortee bench` / `BENCH_<rev>.json`
//! contract):
//!
//! * the JSON shape is well-formed per the hand-rolled `tensortee::json`
//!   validator and carries one entry per registry artifact (floor ≥ 28)
//!   plus the pinned list of kernel microbench rows,
//! * timings are the *only* floats — masking every `Json::Float` makes
//!   two independent measurements byte-identical (what lets the CI
//!   ratchet compare structure strictly and timings with a tolerance).

use tensortee::artifact::{registry, RunContext};
use tensortee::json::{is_well_formed, Json};
use tensortee::perf::{BenchOptions, BenchTrajectory, SCHEMA};

/// A thin context so two full measurements stay in test-suite time: one
/// small model, minimal sweep/serve budgets.
fn thin() -> RunContext {
    let mut ctx = RunContext::fast();
    ctx.models.truncate(1); // GPT
    ctx.explore_points = 6;
    ctx.serve_requests = 8;
    ctx.fleet_requests = 16;
    ctx.cluster_sizes = vec![1, 2];
    ctx
}

/// Replaces every float in `json` with 0.0, leaving structure, strings
/// and integers untouched.
fn mask_floats(json: Json) -> Json {
    match json {
        Json::Float(_) => Json::Float(0.0),
        Json::Array(items) => Json::Array(items.into_iter().map(mask_floats).collect()),
        Json::Object(pairs) => Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k, mask_floats(v)))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn trajectory_covers_the_registry_and_differs_only_in_timings() {
    let ctx = thin();
    let opts = BenchOptions {
        repeats: 1,
        warmup: 0,
        progress: false,
    };
    let first = BenchTrajectory::measure(&ctx, &opts);
    let second = BenchTrajectory::measure(&ctx, &opts);

    // One entry per registry artifact, in registry order, floor ≥ 28.
    assert!(first.artifacts.len() >= 28, "{}", first.artifacts.len());
    assert_eq!(first.artifacts.len(), registry().len());
    for (timing, artifact) in first.artifacts.iter().zip(registry()) {
        assert_eq!(timing.id, artifact.id);
        assert!(timing.min_ms <= timing.median_ms && timing.median_ms <= timing.max_ms);
    }
    // All six explore scenarios, each priced over the context budget.
    assert_eq!(first.sweeps.len(), 6);
    for sweep in &first.sweeps {
        assert_eq!(
            sweep.points, ctx.explore_points as usize,
            "{}",
            sweep.scenario
        );
        assert!(sweep.evaluations >= sweep.points, "{}", sweep.scenario);
        assert!(sweep.per_point_us >= 0.0);
    }
    // The kernel microbenches, pinned in row order: the calendar queue
    // then its heap reference, the probe-overhead pair, then the
    // tee-attack stages. Every row prices a non-empty unit count.
    let kernels: Vec<(&str, &str)> = first.kernels.iter().map(|k| (k.layer, k.kernel)).collect();
    assert_eq!(
        kernels,
        [
            ("sim", "calendar"),
            ("sim", "heap"),
            ("sim", "probe_null"),
            ("sim", "probe_trace"),
            ("attack", "observe"),
            ("attack", "traffic"),
            ("attack", "residency"),
        ]
    );
    for k in &first.kernels {
        assert!(k.units > 0, "{}/{}: no units", k.layer, k.kernel);
        assert!(k.ns_per_unit.is_finite(), "{}/{}", k.layer, k.kernel);
    }
    // Both queues churn the ≥ 10^6-event hold-model workload.
    for k in &first.kernels[..2] {
        assert!(k.units >= 1_000_000, "{}: {}", k.kernel, k.units);
    }

    // Well-formed per the hand-rolled validator, schema-tagged.
    let json = first.to_json();
    let serialized = json.to_string();
    assert!(is_well_formed(&serialized), "{serialized}");
    assert!(serialized.contains(&format!("\"schema\":\"{SCHEMA}\"")));
    assert!(serialized.contains("\"profile\":\"fast\""));

    // Two runs differ only in timing fields: byte-identical after
    // masking every float.
    assert_eq!(
        mask_floats(json).to_string(),
        mask_floats(second.to_json()).to_string(),
        "non-timing fields differ between bench runs"
    );

    // The baseline file name embeds the measured revision.
    let name = first.file_name();
    assert!(
        name.starts_with("BENCH_") && name.ends_with(".json"),
        "{name}"
    );
    assert_eq!(name, format!("BENCH_{}.json", first.rev));
}
