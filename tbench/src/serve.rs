//! `serve`: a seeded serving design sweep with attack scoring.
//!
//! A unit is one sweep: a Latin-hypercube sample of models × load factors
//! × KV-HBM budgets (one tight enough to force spills), each point run
//! through `tee_serve::simulate` under every mode. A seeded quarter of
//! the points runs under a recording probe and is scored by `tee_attack`.
//! The sweep sizes and the traffic come from the run context, as they do
//! for `tensortee explore serve`: its point budget, its model subset, its
//! serving trace length and nominal rate, and its conversation lengths.

use crate::harness::Run;
use crate::stats::Digest;
use crate::sweep::{self, Checked, Migrations, Outcome};
use crate::trace;
use tee_attack::{extractable_bits, Observation, Shaping, MEASUREMENT_QUANTUM};
use tee_explore::{Knob, Space};
use tee_serve::{
    simulate, simulate_probed, KvProtocol, KvSpec, Request, ServeConfig, ServeReport, TraceConfig,
};
use tee_sim::probe::SharedProbe;
use tee_sim::SplitMix64;
use tee_workloads::zoo::ModelConfig;
use tensortee::experiments::serve_profile;
use tensortee::{RunContext, SecureMode};

/// KV budget of the spill-forcing level, in tokens of context (the
/// explorer's attack scenario uses the same budget to force spills).
const SPILL_TOKENS: u64 = 500;

/// The sweep's knobs: the context's models, the explorer's serving load
/// factors, and its KV residency levels plus the spill-forcing budget
/// (level value 0).
fn space(ctx: &RunContext) -> Space {
    Space::new(vec![
        Knob::labeled(
            "model",
            ctx.models
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, i as f64)),
        ),
        Knob::numeric("load", [0.5, 1.0, 2.0, 4.0]),
        Knob::labeled(
            "kv_budget",
            [
                ("spill", 0.0),
                ("2 resident", 2.0),
                ("4 resident", 4.0),
                ("8 resident", 8.0),
            ],
        ),
    ])
}

/// One serving point: the configuration, the trace, and the shaping
/// defence to score when the point is probed.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// The served model.
    pub model: ModelConfig,
    /// The serving system.
    pub cfg: ServeConfig,
    /// The request trace (shared by every mode).
    pub trace: Vec<Request>,
    /// `Some` for the probed slice: the defence the attack scores.
    pub probe: Option<Shaping>,
}

/// The `ctx.explore_points` points of sweep `k`, a pure function of
/// `(ctx, k)`.
pub fn sweep_points(ctx: &RunContext, k: usize) -> Vec<ServePoint> {
    let n = ctx.explore_points as usize;
    let space = space(ctx);
    let root = SplitMix64::new(ctx.seed).split(k as u64);
    let points = space.latin_hypercube(n, root.split(0).next_u64());
    let mut order: Vec<usize> = (0..n).collect();
    root.split(1).shuffle(&mut order);
    let probed = &order[..n / 4];
    let mut draw = root.split(2);
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let model = ctx.models[space.value(p, 0) as usize];
            let rate = ctx.serve_rate_rps * space.value(p, 1);
            let mut trace_cfg = TraceConfig::poisson(ctx.serve_requests, rate, draw.next_u64());
            if ctx.fast {
                // Trimmed conversations, as the explorer and the
                // registered serving artifacts use in the fast context.
                trace_cfg.prompt_mean = 256;
                trace_cfg.output_mean = 48;
            }
            let resident = space.value(p, 2) as u64;
            let mut cfg = ServeConfig::for_model(&model, resident, trace_cfg.steady_tokens())
                .with_npu(ctx.cfg.npu.clone());
            if resident == 0 {
                cfg = cfg.with_kv_hbm_bytes(KvSpec::of(&model).bytes_per_token * SPILL_TOKENS);
            }
            let shaping = Shaping::all()[draw.next_below(3) as usize];
            ServePoint {
                model,
                cfg,
                trace: trace_cfg.generate(),
                probe: probed.contains(&i).then_some(shaping),
            }
        })
        .collect()
}

/// What one (point, mode) op produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOp {
    /// The serving report.
    pub report: ServeReport,
    /// Extractable bits per transfer after shaping (probed points only).
    pub leak_bits: Option<f64>,
}

/// Runs `point` under `mode`, scoring the attack on probed points.
pub fn eval(point: &ServePoint, mode: SecureMode) -> ServeOp {
    let profile = serve_profile(mode);
    let Some(shaping) = point.probe else {
        let report = trace::span("serve", "simulate", || {
            simulate(&point.cfg, &point.model, &profile, &point.trace)
        });
        return ServeOp {
            report,
            leak_bits: None,
        };
    };
    let probe = SharedProbe::recording();
    let report = trace::span("serve", "simulate_probed", || {
        simulate_probed(&point.cfg, &point.model, &profile, &point.trace, &probe)
    });
    let leak_bits = trace::span("attack", "score", || {
        let snap = probe.snapshot().expect("freshly created recording probe");
        let view = Observation::from_trace(&snap);
        let shaped = shaping.apply(&view);
        extractable_bits(&shaped.observation.features(MEASUREMENT_QUANTUM))
    });
    ServeOp {
        report,
        leak_bits: Some(leak_bits),
    }
}

fn migrations(r: &ServeReport) -> Migrations {
    let fetched = r.kv_stats.get("fetched_bytes");
    let offloaded = r.kv_stats.get("offloaded_bytes");
    Migrations {
        exposed: r.kv_exposed_time,
        bytes: fetched + offloaded,
        staged_price: KvProtocol::Staged.transfer_time(fetched)
            + KvProtocol::Staged.transfer_time(offloaded),
    }
}

impl Outcome for ServeOp {
    /// Every request completes, and the direct protocol (TensorTEE)
    /// exposes no more KV-migration time than the staged one (SGX+MGX) on
    /// the same trace (see [`sweep::direct_within_staged`]).
    fn check(ops: &[Option<&Self>; 3]) -> Checked {
        let mut ok =
            ops.map(|o| o.is_some_and(|o| o.report.completed_requests == o.report.total_requests));
        let mut by_own_bytes = false;
        if let (Some(sgx), Some(tt)) = (ops[1], ops[2]) {
            let holds;
            (holds, by_own_bytes) =
                sweep::direct_within_staged(migrations(&tt.report), migrations(&sgx.report));
            if !holds {
                ok[1] = false;
                ok[2] = false;
            }
        }
        Checked { ok, by_own_bytes }
    }

    fn feed(&self, d: &mut Digest) {
        let r = &self.report;
        d.u64(u64::from(r.total_requests));
        d.u64(u64::from(r.completed_requests));
        d.u64(r.output_tokens);
        d.u64(r.iterations);
        for t in [
            r.makespan,
            r.npu_time,
            r.kv_transfer_time,
            r.kv_exposed_time,
        ] {
            d.u64(t.as_ps());
        }
        for h in [&r.ttft_ns, &r.latency_ns, &r.tpot_ns] {
            d.u64(h.count());
            for q in [0.5, 0.99] {
                d.u64(h.percentile(q).unwrap_or(0));
            }
        }
        for (k, v) in r.kv_stats.iter() {
            d.str(k);
            d.u64(v);
        }
        d.f64(self.leak_bits.unwrap_or(-1.0));
    }

    fn count(&self, run: &mut Run) {
        run.count("serve.iterations", self.report.iterations);
    }

    fn objectives(&self) -> Vec<f64> {
        vec![
            self.report.goodput_tps(),
            self.report.kv_exposed_time.as_secs_f64(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::context;

    fn debug(points: &[ServePoint]) -> String {
        format!("{points:?}")
    }

    fn small(seed: u64, points: u32) -> RunContext {
        context(seed, 1).with_explore_points(points)
    }

    #[test]
    fn sweeps_are_pure_functions_of_the_seed() {
        let a = small(3, 8);
        assert_eq!(debug(&sweep_points(&a, 0)), debug(&sweep_points(&a, 0)));
        assert_ne!(
            debug(&sweep_points(&a, 0)),
            debug(&sweep_points(&small(4, 8), 0))
        );
        assert_ne!(debug(&sweep_points(&a, 0)), debug(&sweep_points(&a, 1)));
        let ctx = context(3, 1);
        let points = sweep_points(&ctx, 0);
        assert_eq!(points.len(), ctx.explore_points as usize);
        assert_eq!(
            points.iter().filter(|p| p.probe.is_some()).count(),
            points.len() / 4
        );
        assert!(points
            .iter()
            .all(|p| p.trace.len() == ctx.serve_requests as usize));
        assert!(points
            .iter()
            .any(|p| p.cfg.kv_hbm_bytes == KvSpec::of(&p.model).bytes_per_token * SPILL_TOKENS));
    }

    #[test]
    fn digest_is_the_same_for_one_and_two_workers() {
        let points = sweep_points(&small(5, 8), 0);
        let digest = |workers| {
            let mut run = Run::default();
            let results = sweep::run(&mut run, workers, &points, eval);
            sweep::book(&mut run, 0, &results);
            (run.digest, run.failed)
        };
        assert_eq!(digest(1), digest(2));
        assert_eq!(digest(1).1, 0);
    }

    fn exposed(op: &ServeOp) -> tee_sim::Time {
        op.report.kv_exposed_time
    }

    fn check(ops: &[ServeOp; 3]) -> Checked {
        ServeOp::check(&[Some(&ops[0]), Some(&ops[1]), Some(&ops[2])])
    }

    /// The three modes' results on a spill point where both secure runs
    /// migrate KV and the staged one exposes it.
    fn migrating() -> [ServeOp; 3] {
        sweep_points(&small(5, 16), 0)
            .iter()
            .filter(|p| p.cfg.kv_hbm_bytes == KvSpec::of(&p.model).bytes_per_token * SPILL_TOKENS)
            .map(|p| SecureMode::all().map(|m| eval(p, m)))
            .find(|ops| migrations(&ops[2].report).bytes > 0 && exposed(&ops[1]) > exposed(&ops[2]))
            .expect("a spill point whose secure runs migrate KV")
    }

    #[test]
    fn checks_catch_corruption() {
        let ops = migrating();
        let honest = check(&ops);
        assert_eq!(honest.ok, [true; 3]);

        let mut swapped = ops.clone();
        swapped[1].report.kv_exposed_time = exposed(&ops[2]);
        swapped[2].report.kv_exposed_time = exposed(&ops[1]);
        assert_eq!(
            check(&swapped).ok,
            [true, false, false],
            "staged and direct swapped"
        );

        let mut dropped = ops[0].clone();
        dropped.report.completed_requests -= 1;
        assert_eq!(ServeOp::check(&[Some(&dropped), None, None]).ok, [false; 3]);
    }

    #[test]
    fn the_own_bytes_bound_catches_corruption() {
        let mut ops = migrating();
        // The staged run migrated nothing, so the direct run is held to
        // the staged price of its own bytes.
        ops[1].report.kv_stats.reset();
        ops[1].report.kv_exposed_time = tee_sim::Time::ZERO;
        let bound = migrations(&ops[2].report).staged_price;
        assert_eq!(
            check(&ops),
            Checked {
                ok: [true; 3],
                by_own_bytes: true
            }
        );
        ops[2].report.kv_exposed_time = bound + tee_sim::Time::from_ns(1);
        assert_eq!(
            check(&ops),
            Checked {
                ok: [true, false, false],
                by_own_bytes: true
            },
            "direct exposes more than staged would for its bytes"
        );
    }
}
