//! Calibrated per-iteration cost surrogate for a fleet instance.
//!
//! A fleet run pushes 10^5–10^7 iterations through M instances; pricing
//! every iteration with a full [`tee_npu::NpuEngine`] stream simulation
//! (as `tee_serve::simulate` does per instance) would dominate wall
//! clock. Instead each `(model, profile)` pair is calibrated **once**
//! against the engine with a handful of probe iterations, fitting
//!
//! ```text
//! iter_time = base                         // weights + code stream
//!           + α·p + β·Σpᵢ²                 // prefill: linear + per-request
//!                                          //   quadratic attention
//!           + γ·r + δ·c                    // decode: per-request GEMV +
//!                                          //   per-context-token KV stream
//! ```
//!
//! The probes are the serve scheduler's own fused-iteration kernel
//! ([`tee_serve::iteration_layer`], the AMLA-style memory-bound decode
//! kernel). The fit is a pure function of the probe timings, so the surrogate is exactly as deterministic as
//! the engine, and per-iteration pricing is O(batch) integer/float
//! arithmetic instead of a pipeline simulation.

use tee_npu::engine::NpuEngine;
use tee_npu::NpuConfig;
use tee_serve::config::SecurityProfile;
use tee_serve::iteration_layer;
use tee_sim::Time;
use tee_workloads::zoo::ModelConfig;

/// Probe prompt length for the prefill fit (the quadratic term is solved
/// from probes at `P` and `2P`).
const PROBE_P: u64 = 512;
/// Probe decode count for the per-request marginal.
const PROBE_R: u64 = 64;
/// Probe context length for the per-token KV-stream marginal.
const PROBE_C: u64 = 65_536;

/// The calibrated linear surrogate of one instance's fused iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterCost {
    /// Fixed per-iteration picoseconds (weight + code streams).
    base_ps: f64,
    /// Picoseconds per prefill prompt token (linear projections/streams).
    per_prefill_token_ps: f64,
    /// Picoseconds per prompt token squared (per-request attention).
    per_prefill_sq_ps: f64,
    /// Picoseconds per decode request (GEMV projections + KV append).
    per_decode_ps: f64,
    /// Picoseconds per cached context token streamed (decode attention).
    per_ctx_token_ps: f64,
}

impl IterCost {
    /// Calibrates the surrogate for `(model, profile)` by timing probe
    /// iterations on the real engine with the `npu` shape.
    pub fn calibrate(model: &ModelConfig, profile: &SecurityProfile, npu: &NpuConfig) -> Self {
        let engine = NpuEngine::new(npu.clone(), profile.mac);
        let probe = |prefill: &[u64], decodes: u64, context: u64| -> f64 {
            engine
                .run(&[iteration_layer(model, prefill, decodes, context)])
                .total
                .as_ps() as f64
        };
        let t0 = probe(&[], 0, 0);
        // Decode marginals: per-request at zero context, per-token on top.
        let per_decode = (probe(&[], PROBE_R, 0) - t0).max(0.0) / PROBE_R as f64;
        let t_ctx0 = probe(&[], 1, 0);
        let per_ctx = (probe(&[], 1, PROBE_C) - t_ctx0).max(0.0) / PROBE_C as f64;
        // Prefill: cost(p) = α·p + β·p², solved from probes at P and 2P.
        let t1 = probe(&[PROBE_P], 0, 0) - t0;
        let t2 = probe(&[2 * PROBE_P], 0, 0) - t0;
        let p = PROBE_P as f64;
        let beta = ((t2 - 2.0 * t1) / (2.0 * p * p)).max(0.0);
        let alpha = ((t1 - beta * p * p) / p).max(0.0);
        IterCost {
            base_ps: t0.max(1.0),
            per_prefill_token_ps: alpha,
            per_prefill_sq_ps: beta,
            per_decode_ps: per_decode,
            per_ctx_token_ps: per_ctx,
        }
    }

    /// Prices one iteration: `prefills` are the new prompt lengths being
    /// prefilled, `r` is the decode count and `ctx_sum` the total cached
    /// context streamed for attention (decode contexts plus any carried
    /// history the prefills attend to).
    pub fn iteration(&self, prefills: &[u64], r: u64, ctx_sum: u64) -> Time {
        let p_sum: u64 = prefills.iter().sum();
        let p_sq: f64 = prefills.iter().map(|&p| (p as f64) * (p as f64)).sum();
        let ps = self.base_ps
            + self.per_prefill_token_ps * p_sum as f64
            + self.per_prefill_sq_ps * p_sq
            + self.per_decode_ps * r as f64
            + self.per_ctx_token_ps * ctx_sum as f64;
        Time::from_ps((ps.round() as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_workloads::zoo::by_name;

    /// The surrogate on the default (Table 1) NPU.
    fn calibrate(model: &ModelConfig, profile: &SecurityProfile) -> IterCost {
        IterCost::calibrate(model, profile, &NpuConfig::default())
    }

    #[test]
    fn calibration_is_deterministic_and_positive() {
        let model = by_name("GPT").unwrap();
        let a = calibrate(&model, &SecurityProfile::tensor_tee());
        let b = calibrate(&model, &SecurityProfile::tensor_tee());
        assert_eq!(a, b);
        assert!(a.base_ps > 0.0);
        assert!(a.per_decode_ps >= 0.0 && a.per_ctx_token_ps >= 0.0);
    }

    #[test]
    fn cost_is_monotone_in_work() {
        let model = by_name("GPT").unwrap();
        let c = calibrate(&model, &SecurityProfile::non_secure());
        let idle = c.iteration(&[], 0, 0);
        let one = c.iteration(&[], 1, 256);
        let eight = c.iteration(&[], 8, 8 * 256);
        let prefill = c.iteration(&[512], 0, 0);
        assert!(idle >= Time::from_ps(1));
        assert!(one > idle);
        assert!(eight > one);
        assert!(prefill > one, "{prefill} vs {one}");
        // Quadratic attention: one long prompt beats two half-prompts.
        let long = c.iteration(&[1024], 0, 0);
        let split = c.iteration(&[512, 512], 0, 0);
        assert!(long >= split);
    }

    #[test]
    fn secure_modes_cost_at_least_non_secure() {
        let model = by_name("GPT").unwrap();
        let ns = calibrate(&model, &SecurityProfile::non_secure());
        let sgx = calibrate(&model, &SecurityProfile::sgx_mgx());
        let work = |c: &IterCost| c.iteration(&[256], 8, 4096);
        assert!(work(&sgx) >= work(&ns), "{} vs {}", work(&sgx), work(&ns));
    }

    /// Relative error of the surrogate against the engine on one batch.
    fn surrogate_error(
        model: &ModelConfig,
        profile: &SecurityProfile,
        prefills: &[u64],
        decodes: &[u64],
    ) -> f64 {
        let c = calibrate(model, profile);
        let engine = NpuEngine::new(NpuConfig::default(), profile.mac);
        let (r, ctx_sum) = (decodes.len() as u64, decodes.iter().sum());
        let exact = engine
            .run(&[iteration_layer(model, prefills, r, ctx_sum)])
            .total
            .as_ps() as f64;
        let approx = c.iteration(prefills, r, ctx_sum).as_ps() as f64;
        (approx - exact).abs() / exact
    }

    #[test]
    fn surrogate_tracks_engine_within_tolerance() {
        // The surrogate must stay close to the engine on batches it was
        // not calibrated on. Measured worst case over this table: 12.48%
        // (GPT, non-secure, the lone 4000-token prefill, where the fitted
        // quadratic extrapolates furthest from its 512/1024-token probes);
        // 11.06% on GPT2-M. Every decode-only and mixed batch is exact.
        // The 15% bound leaves a 2.5-point margin over the worst case.
        const BOUND: f64 = 0.15;
        let batches: [(&[u64], &[u64]); 6] = [
            (&[], &[]),
            (&[4000], &[]),
            (&[], &[1; 32]),
            (&[300, 700], &[100, 400, 900, 1600]),
            (&[], &[16_384]),
            (&[128; 8], &[2048; 16]),
        ];
        for name in ["GPT", "GPT2-M"] {
            let model = by_name(name).unwrap();
            for profile in [
                SecurityProfile::non_secure(),
                SecurityProfile::sgx_mgx(),
                SecurityProfile::tensor_tee(),
            ] {
                for (prefills, decodes) in batches {
                    let err = surrogate_error(&model, &profile, prefills, decodes);
                    assert!(
                        err < BOUND,
                        "{name} {:?} prefills {prefills:?} + {} decodes: surrogate off by {:.1}%",
                        profile.mac,
                        decodes.len(),
                        err * 100.0
                    );
                }
            }
        }
    }
}
