//! The continuous-batching serving simulator.
//!
//! A deterministic discrete-event loop on [`tee_sim::EventQueue`] around
//! the shared [`Batcher`] (see [`crate::batch`] for admission and
//! per-token bookkeeping). This driver adds the clock and the pricing:
//!
//! 1. arrivals are pushed to the batcher; a whole delta cycle drains
//!    before the next iteration launches, so co-arrivals batch together,
//! 2. the batcher's `schedule` callback reserves each running request's
//!    KV residency in the HBM budget (in admission order; surplus KV
//!    offloads to CPU DRAM via [`crate::kv::KvPool`]); a request that
//!    does not fit sits the iteration out,
//! 3. the iteration is priced as **one fused NPU kernel** through
//!    [`tee_npu::NpuEngine`] under the profile's MAC scheme: model
//!    weights stream once per iteration, prefill tokens add GEMM-shaped
//!    work, decodes add GEMV-shaped work whose attention is
//!    memory-bound KV streaming plus a small rescaling term (the
//!    AMLA-style decode kernel shape — rescaling, not multiplies,
//!    dominates FlashAttention decode; see PAPERS.md),
//! 4. KV fetch/offload traffic pays the profile's transfer protocol;
//!    the direct protocol overlaps the iteration's compute, the staging
//!    protocol serializes (§3.3 vs §4.4, as in training).
//!
//! The loop is bit-reproducible: same config + profile + trace → the
//! same [`ServeReport`].

use crate::batch::Batcher;
use crate::config::{KvSpec, SecurityProfile, ServeConfig};
use crate::kv::KvPool;
use crate::report::ServeReport;
use crate::trace::Request;
use std::collections::BTreeSet;
use tee_comm::schedule::exposed_time;
use tee_npu::engine::{Layer, NpuEngine};
use tee_sim::probe::SharedProbe;
use tee_sim::{EventQueue, Time};
use tee_workloads::zoo::ModelConfig;

const FP16: u64 = 2;

/// Discrete events of the serving loop.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Request `trace[i]` arrives.
    Arrival(usize),
    /// The in-flight iteration completes.
    IterDone,
}

/// Simulates serving `trace` on one system under one security profile.
///
/// # Panics
///
/// Panics if `cfg.max_batch` is zero.
pub fn simulate(
    cfg: &ServeConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[Request],
) -> ServeReport {
    simulate_probed(cfg, model, profile, trace, &SharedProbe::Null)
}

/// [`simulate`] with an observability probe: iterations emit
/// prefill/decode/mixed spans on the `NPU` track, KV migrations emit
/// `link` transfer spans and `CPU` spill/fetch instants, and the byte
/// counters accumulate in the probe's metrics registry. The report is
/// byte-identical to the unprobed run — probes only observe.
///
/// # Panics
///
/// Panics if `cfg.max_batch` is zero.
pub fn simulate_probed(
    cfg: &ServeConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[Request],
    probe: &SharedProbe,
) -> ServeReport {
    let mut batch = Batcher::new(cfg.max_batch, cfg.prefill_token_budget);
    let kv = KvSpec::of(model);
    let engine = NpuEngine::new(cfg.npu.clone(), profile.mac);
    let mut pool = KvPool::new(cfg.kv_hbm_bytes);
    let mut queue: EventQueue<Event> = EventQueue::new();
    for (i, r) in trace.iter().enumerate() {
        queue.schedule(r.arrival, Event::Arrival(i));
    }
    let mut busy = false;
    let mut npu_time = Time::ZERO;
    let mut kv_transfer_time = Time::ZERO;
    let mut kv_exposed_time = Time::ZERO;

    loop {
        // Drain the whole delta cycle so co-arrivals (a bursty group lands
        // on one timestamp) are all admissible before the next iteration
        // launches.
        let events = queue.pop_batch();
        if events.is_empty() {
            break;
        }
        let now = queue.now();
        for (_, event) in events {
            match event {
                Event::Arrival(i) => {
                    if probe.enabled() {
                        probe.instant("CPU", "arrival", now);
                    }
                    batch.push(trace[i].into());
                }
                Event::IterDone => {
                    batch.finish(now, |a| {
                        pool.release(a.req.request.id);
                    });
                    busy = false;
                }
            }
        }
        if busy {
            continue;
        }
        // Reserve KV residency in admission order; the head request is
        // forced so progress is guaranteed even when its KV alone exceeds
        // the budget. A skipped request's KV stays (or goes) cold.
        let mut protected: BTreeSet<u32> = BTreeSet::new();
        let mut fetched = 0u64;
        let mut offloaded = 0u64;
        let Some(it) = batch.launch(|a| {
            let force = protected.is_empty();
            if force {
                // First request of a new iteration: advance the LRU clock.
                pool.tick();
            }
            // KV bytes this request holds by the end of the iteration:
            // the full prompt for a prefill, one more token for a decode.
            let tokens = if a.is_prefill() {
                a.req.request.prompt_tokens
            } else {
                a.context() + 1
            };
            let id = a.req.request.id;
            let Some(out) = pool.reserve(id, tokens * kv.bytes_per_token, &protected, force) else {
                return false;
            };
            protected.insert(id);
            fetched += out.fetched_bytes;
            offloaded += out.offloaded_bytes;
            true
        }) else {
            continue;
        };

        // One fused kernel per iteration (continuous batching launches the
        // whole transformer stack once over the mixed batch).
        let npu = engine
            .run(&[iteration_layer(
                model,
                &it.prefills,
                it.decodes,
                it.decode_context,
            )])
            .total;
        // KV migration: fetches and offloads each cross the CPU↔NPU link
        // once under the profile's protocol.
        let kv_time = profile.kv_protocol.transfer_time(fetched)
            + profile.kv_protocol.transfer_time(offloaded);
        let kv_exposed = if profile.kv_protocol.can_overlap_compute() {
            exposed_time(npu, kv_time)
        } else {
            kv_time
        };
        npu_time += npu;
        kv_transfer_time += kv_time;
        kv_exposed_time += kv_exposed;
        if probe.enabled() {
            probe.span("NPU", it.kind(), now, now + npu);
            probe.count("serve.iterations", 1);
            if kv_time > Time::ZERO {
                probe.span("link", "kv_transfer", now, now + kv_time);
                probe.count("serve.kv_exposed_ps", kv_exposed.as_ps());
            }
            if fetched > 0 {
                probe.instant("CPU", "kv_fetch", now);
                probe.count("serve.kv_fetch_bytes", fetched);
            }
            if offloaded > 0 {
                probe.instant("CPU", "kv_offload", now);
                probe.count("serve.kv_offload_bytes", offloaded);
            }
        }
        queue.schedule_after(npu + kv_exposed, Event::IterDone);
        busy = true;
    }

    let m = batch.metrics().clone();
    ServeReport {
        total_requests: trace.len() as u32,
        completed_requests: m.completed,
        output_tokens: m.output_tokens,
        makespan: m.last_completion,
        iterations: m.iterations,
        ttft_ns: m.ttft_ns,
        latency_ns: m.latency_ns,
        tpot_ns: m.tpot_ns,
        npu_time,
        kv_transfer_time,
        kv_exposed_time,
        kv_stats: pool.stats().clone(),
    }
}

/// The fused NPU kernel of one iteration: one GEMM-shaped prompt pass
/// per length in `prefill_prompts` plus `decodes` GEMV-shaped decode
/// steps that together stream `decode_context` cached tokens, across all
/// `model.layers` transformer layers. The same three inputs drive the
/// fleet's `IterCost` surrogate.
///
/// Weights stream once; decode attention streams each request's cached
/// KV (memory-bound — the AMLA analysis shows decode attention is
/// dominated by rescaling/streaming, not multiplies) and appends one
/// token of KV per request. The fleet's `IterCost` surrogate calibrates
/// against this same kernel.
pub fn iteration_layer(
    model: &ModelConfig,
    prefill_prompts: &[u64],
    decodes: u64,
    decode_context: u64,
) -> Layer {
    let h = model.hidden;
    let layers = model.layers;
    let weight_bytes = 12 * h * h * FP16 * layers;
    let (r, ctx_sum) = (decodes, decode_context);
    let p: u64 = prefill_prompts.iter().sum();

    // GEMV projections per decode + quadratic prompt GEMMs per prefill;
    // attention adds 2·H MACs per cached/prompt token (QKᵀ and AV) plus
    // the per-score rescaling additions, absorbed into the same term.
    // Each request's prompt attends only within itself, so the quadratic
    // term is per-request — batching prefills must not cross-multiply
    // independent prompts.
    let prefill_attn: u64 = prefill_prompts.iter().map(|&pi| pi * pi * 2 * h).sum();
    let macs =
        layers * (r * 12 * h * h + ctx_sum * 2 * h) + layers * (p * 12 * h * h + prefill_attn);
    // Streams in: decode KV reads + per-layer hidden states; prefill
    // token activations.
    let in_bytes =
        ctx_sum * kv_bytes_per_layer(h) * layers + r * h * FP16 * layers + p * h * FP16 * layers;
    // Streams out: hidden states plus the KV append (one token per
    // decode, the whole prompt per prefill).
    let out_bytes = (r + p) * h * FP16 * layers + (r + p) * kv_bytes_per_layer(h) * layers;
    Layer {
        macs: macs.max(1),
        in_bytes,
        w_bytes: weight_bytes,
        out_bytes,
    }
}

fn kv_bytes_per_layer(hidden: u64) -> u64 {
    2 * hidden * FP16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;
    use tee_workloads::zoo::by_name;

    fn small_cfg(model: &ModelConfig) -> ServeConfig {
        ServeConfig::for_model(model, 4, 640)
    }

    fn small_trace() -> Vec<Request> {
        TraceConfig::poisson(12, 16.0, 42).generate()
    }

    #[test]
    fn every_request_completes_and_metrics_fill() {
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model);
        let r = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &small_trace());
        assert_eq!(r.completed_requests, r.total_requests);
        assert_eq!(r.ttft_ns.count(), u64::from(r.total_requests));
        assert_eq!(r.latency_ns.count(), u64::from(r.total_requests));
        assert!(r.output_tokens > 0);
        assert!(r.goodput_tps() > 0.0);
        assert!(r.iterations > 0);
        assert!(r.npu_time > Time::ZERO);
        assert!(r.makespan > Time::ZERO);
    }

    #[test]
    fn simulation_is_deterministic() {
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model);
        let trace = small_trace();
        let a = simulate(&cfg, &model, &SecurityProfile::sgx_mgx(), &trace);
        let b = simulate(&cfg, &model, &SecurityProfile::sgx_mgx(), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn kv_pressure_triggers_offload_and_staging_exposes_it() {
        let model = by_name("GPT").unwrap();
        // A budget holding barely one request forces migration.
        let kv = KvSpec::of(&model);
        let cfg = small_cfg(&model).with_kv_hbm_bytes(kv.bytes_per_token * 800);
        let trace = small_trace();
        let staged = simulate(&cfg, &model, &SecurityProfile::sgx_mgx(), &trace);
        let direct = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &trace);
        assert!(staged.kv_stats.get("offloads") > 0, "{}", staged.kv_stats);
        assert!(staged.kv_transfer_time > Time::ZERO);
        assert!(
            staged.kv_exposed_time > direct.kv_exposed_time,
            "staging serializes KV migration: {} vs {}",
            staged.kv_exposed_time,
            direct.kv_exposed_time
        );
        assert!(direct.goodput_tps() > staged.goodput_tps());
    }

    #[test]
    fn ample_hbm_means_no_migration() {
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model).with_kv_hbm_bytes(u64::MAX / 2);
        let r = simulate(&cfg, &model, &SecurityProfile::non_secure(), &small_trace());
        assert_eq!(r.kv_stats.get("offloads"), 0);
        assert_eq!(r.kv_transfer_time, Time::ZERO);
        assert_eq!(r.kv_exposed_time, Time::ZERO);
    }

    #[test]
    fn batching_beats_serial_decode() {
        // The fused iteration streams weights once for the whole batch, so
        // decoding 8 contexts costs far less than 8× one context.
        let model = by_name("GPT2-M").unwrap();
        let one = iteration_layer(&model, &[], 1, 256);
        let eight = iteration_layer(&model, &[], 8, 8 * 256);
        assert_eq!(one.w_bytes, eight.w_bytes);
        assert!(eight.in_bytes < 8 * (one.in_bytes + one.w_bytes));
    }

    #[test]
    fn prefill_attention_is_per_request_quadratic() {
        // Two 512-token prompts must cost two 512² attention terms, not
        // one 1024² term — independent requests never attend to each
        // other.
        let model = by_name("GPT2-M").unwrap();
        let split = iteration_layer(&model, &[512, 512], 0, 0);
        let fused = iteration_layer(&model, &[1024], 0, 0);
        assert!(split.macs < fused.macs);
        let h = model.hidden;
        assert_eq!(
            (fused.macs - split.macs),
            model.layers * (1024 * 1024 - 2 * 512 * 512) * 2 * h
        );
        // Linear terms (projections, streams) are token-count-shaped and
        // identical either way.
        assert_eq!(split.in_bytes, fused.in_bytes);
        assert_eq!(split.out_bytes, fused.out_bytes);
    }

    #[test]
    fn bursty_co_arrivals_join_one_prefill_iteration() {
        // All members of a same-timestamp burst are admitted before the
        // first iteration launches, so their TTFTs tie instead of
        // serializing one prefill iteration apart.
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model);
        let trace = TraceConfig::bursty(4, 8.0, 4, 3).generate();
        assert!(trace.iter().all(|r| r.arrival == trace[0].arrival));
        let r = simulate(&cfg, &model, &SecurityProfile::non_secure(), &trace);
        assert_eq!(r.ttft_ns.count(), 4);
        assert_eq!(
            r.ttft_ns.min(),
            r.ttft_ns.max(),
            "co-arriving prompts prefill together"
        );
    }

    #[test]
    fn probed_run_matches_unprobed_and_records_kv_traffic() {
        let model = by_name("GPT").unwrap();
        let kv = KvSpec::of(&model);
        // Tight HBM forces KV spill/fetch so the probe sees migrations.
        let cfg = small_cfg(&model).with_kv_hbm_bytes(kv.bytes_per_token * 800);
        let trace = small_trace();
        let profile = SecurityProfile::sgx_mgx();
        let plain = simulate(&cfg, &model, &profile, &trace);
        let recorder = SharedProbe::recording();
        let probed = simulate_probed(&cfg, &model, &profile, &trace, &recorder);
        assert_eq!(plain, probed, "probing must not change the report");
        let snap = recorder.snapshot().expect("recording");
        assert_eq!(snap.metrics().get("serve.iterations"), plain.iterations);
        assert!(snap.metrics().get("serve.kv_offload_bytes") > 0);
        for track in ["NPU", "link", "CPU"] {
            assert!(
                snap.events().iter().any(|e| e.track() == track),
                "missing track {track}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn zero_batch_rejected() {
        let model = by_name("GPT").unwrap();
        let cfg = ServeConfig {
            max_batch: 0,
            ..small_cfg(&model)
        };
        simulate(&cfg, &model, &SecurityProfile::non_secure(), &[]);
    }
}
