//! `fleet`: a seeded fleet design sweep over multi-tenant session traces.
//!
//! A unit is one sweep: a Latin-hypercube sample of the explorer's fleet
//! space (`tensortee explore fleet`: models × instance counts × placement
//! policies × loads × steady/diurnal traffic), each point run through
//! `tee_fleet::simulate` under every mode. The sweep size and the traffic
//! (turns, nominal rate, tenants, turn lengths) come from the run context,
//! as they do for the explorer.

use crate::harness::Run;
use crate::stats::Digest;
use crate::sweep::{self, Checked, Migrations, Outcome};
use crate::trace;
use tee_fleet::{simulate, FleetConfig, FleetReport, Policy};
use tee_serve::{Diurnal, KvProtocol, ServeConfig, SessionRequest, SessionTraceConfig};
use tee_sim::SplitMix64;
use tee_workloads::zoo::ModelConfig;
use tensortee::experiments::serve_profile;
use tensortee::explore::{space_for, Scenario};
use tensortee::{RunContext, SecureMode};

/// One fleet point: the configuration and the session trace.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// The served model.
    pub model: ModelConfig,
    /// The fleet.
    pub cfg: FleetConfig,
    /// The session trace (shared by every mode).
    pub trace: Vec<SessionRequest>,
}

/// The `ctx.explore_points` points of sweep `k`, a pure function of
/// `(ctx, k)`.
pub fn sweep_points(ctx: &RunContext, k: usize) -> Vec<FleetPoint> {
    let space = space_for(Scenario::Fleet, ctx);
    let root = SplitMix64::new(ctx.seed).split(k as u64);
    let points = space.latin_hypercube(ctx.explore_points as usize, root.split(0).next_u64());
    let mut draw = root.split(1);
    points
        .iter()
        .map(|p| {
            let model = ctx.models[space.value(p, 0) as usize];
            let instances = space.value(p, 1) as usize;
            let policy = Policy::all()[space.value(p, 2) as usize];
            let rate = ctx.fleet_rate_rps * space.value(p, 3);
            let mut trace_cfg = SessionTraceConfig::poisson(
                ctx.fleet_requests,
                rate,
                ctx.fleet_tenants,
                draw.next_u64(),
            );
            if space.value(p, 4) == 1.0 {
                // The explorer's diurnal traffic level.
                trace_cfg = trace_cfg.with_diurnal(Diurnal::new(4.0, 0.6));
            }
            if ctx.fast {
                // Trimmed turns, as the explorer and the registered
                // fleet artifacts use in the fast context.
                trace_cfg.prompt_mean = 192;
                trace_cfg.output_mean = 32;
            }
            let serve = ServeConfig::for_model(&model, 4, trace_cfg.steady_tokens())
                .with_npu(ctx.cfg.npu.clone());
            FleetPoint {
                model,
                cfg: FleetConfig::new(serve, instances).with_policy(policy),
                trace: trace_cfg.generate(),
            }
        })
        .collect()
}

/// Runs `point` under `mode`.
pub fn eval(point: &FleetPoint, mode: SecureMode) -> FleetReport {
    let profile = serve_profile(mode);
    trace::span("fleet", "simulate", || {
        simulate(&point.cfg, &point.model, &profile, &point.trace)
    })
}

/// The staged protocol pays each migration's session establishment and
/// serializes the transfer against the destination's compute.
fn migrations(r: &FleetReport) -> Migrations {
    Migrations {
        exposed: r.handoff_exposed_time,
        bytes: r.migrated_bytes,
        staged_price: r.handoff_setup_time + KvProtocol::Staged.transfer_time(r.migrated_bytes),
    }
}

impl Outcome for FleetReport {
    /// Every turn completes or is rejected, and the direct protocol
    /// (TensorTEE) exposes no more handoff time than the staged one
    /// (SGX+MGX) on the same trace (see [`sweep::direct_within_staged`]).
    fn check(ops: &[Option<&Self>; 3]) -> Checked {
        let mut ok = ops.map(|o| {
            o.is_some_and(|r| r.completed_requests + r.rejected_requests == r.total_requests)
        });
        let mut by_own_bytes = false;
        if let (Some(sgx), Some(tt)) = (ops[1], ops[2]) {
            let holds;
            (holds, by_own_bytes) = sweep::direct_within_staged(migrations(tt), migrations(sgx));
            if !holds {
                ok[1] = false;
                ok[2] = false;
            }
        }
        Checked { ok, by_own_bytes }
    }

    fn feed(&self, d: &mut Digest) {
        for x in [
            u64::from(self.total_requests),
            u64::from(self.completed_requests),
            u64::from(self.rejected_requests),
            self.output_tokens,
            self.iterations,
            self.migrations,
            self.migrated_bytes,
            self.events_processed,
        ] {
            d.u64(x);
        }
        for t in [
            self.makespan,
            self.handoff_transfer_time,
            self.handoff_setup_time,
            self.handoff_exposed_time,
        ] {
            d.u64(t.as_ps());
        }
        for h in [&self.ttft_ns, &self.latency_ns, &self.tpot_ns] {
            d.u64(h.count());
            for q in [0.5, 0.99] {
                d.u64(h.percentile(q).unwrap_or(0));
            }
        }
        for (k, v) in self.router_stats.iter() {
            d.str(k);
            d.u64(v);
        }
    }

    fn count(&self, run: &mut Run) {
        run.count("fleet.events", self.events_processed);
    }

    fn objectives(&self) -> Vec<f64> {
        vec![self.goodput_tps(), self.handoff_exposed_time.as_secs_f64()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::context;
    use tee_sim::Time;

    fn debug(points: &[FleetPoint]) -> String {
        format!("{points:?}")
    }

    fn small(seed: u64) -> RunContext {
        context(seed, 1).with_explore_points(6)
    }

    #[test]
    fn sweeps_are_pure_functions_of_the_seed() {
        let a = small(3);
        assert_eq!(debug(&sweep_points(&a, 0)), debug(&sweep_points(&a, 0)));
        assert_ne!(
            debug(&sweep_points(&a, 0)),
            debug(&sweep_points(&small(4), 0))
        );
        assert_ne!(debug(&sweep_points(&a, 0)), debug(&sweep_points(&a, 1)));
        let ctx = context(3, 1);
        let points = sweep_points(&ctx, 0);
        assert_eq!(points.len(), ctx.explore_points as usize);
        assert!(points
            .iter()
            .all(|p| p.trace.len() == ctx.fleet_requests as usize));
    }

    #[test]
    fn digest_is_the_same_for_one_and_two_workers() {
        let points = sweep_points(&small(5), 0);
        let digest = |workers| {
            let mut run = Run::default();
            let results = sweep::run(&mut run, workers, &points, eval);
            sweep::book(&mut run, 0, &results);
            (run.digest, run.failed)
        };
        assert_eq!(digest(1), digest(2));
        assert_eq!(digest(1).1, 0);
    }

    fn check(ops: &[FleetReport; 3]) -> Checked {
        FleetReport::check(&[Some(&ops[0]), Some(&ops[1]), Some(&ops[2])])
    }

    /// The three modes' reports on a point where the secure runs migrate.
    fn migrating() -> [FleetReport; 3] {
        sweep_points(&small(5), 0)
            .iter()
            .map(|p| SecureMode::all().map(|m| eval(p, m)))
            .find(|ops| ops[1].migrated_bytes > 0 && ops[2].migrated_bytes > 0)
            .expect("a point whose secure runs migrate KV")
    }

    #[test]
    fn checks_catch_corruption() {
        let ops = migrating();
        assert_eq!(check(&ops).ok, [true; 3]);

        let mut swapped = ops.clone();
        swapped[2].handoff_exposed_time = ops[1]
            .handoff_exposed_time
            .max(migrations(&ops[2]).staged_price)
            + Time::from_ns(1);
        assert_eq!(
            check(&swapped).ok,
            [true, false, false],
            "direct exposes more than staged"
        );

        let mut lost = ops[0].clone();
        lost.completed_requests -= 1;
        assert_eq!(
            FleetReport::check(&[Some(&lost), None, None]).ok,
            [false; 3]
        );
    }

    #[test]
    fn the_own_bytes_bound_catches_corruption() {
        let mut ops = migrating();
        // The staged run migrated nothing, so the direct run is held to
        // the staged price of its own handoffs.
        ops[1].migrated_bytes = 0;
        ops[1].handoff_exposed_time = Time::ZERO;
        let bound = migrations(&ops[2]).staged_price;
        assert_eq!(
            check(&ops),
            Checked {
                ok: [true; 3],
                by_own_bytes: true
            }
        );
        ops[2].handoff_exposed_time = bound + Time::from_ns(1);
        assert_eq!(
            check(&ops),
            Checked {
                ok: [true, false, false],
                by_own_bytes: true
            },
            "direct exposes more than staged would for its handoffs"
        );
    }
}
