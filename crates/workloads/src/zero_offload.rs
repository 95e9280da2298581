//! The ZeRO-Offload step schedule (Figure 1).
//!
//! One training step:
//!
//! 1. NPU runs forward + backward (fp16),
//! 2. fp32 gradients stream NPU → CPU (overlappable with backward),
//! 3. CPU runs the Adam update on fp32 master weights + optimizer state,
//! 4. fp16 weights stream CPU → NPU (overlappable with the next forward).

use crate::census::TensorCensus;
use crate::layers::{training_step, LayerSpec};
use crate::zoo::ModelConfig;

/// Everything needed to simulate one training step of one model.
#[derive(Debug, Clone)]
pub struct StepSchedule {
    /// The model.
    pub model: ModelConfig,
    /// NPU layer list (forward + backward).
    pub npu_layers: Vec<LayerSpec>,
    /// NPU → CPU gradient bytes (fp32).
    pub grad_bytes: u64,
    /// CPU-side Adam tensor sizes (fp32 parameter tensors; the kernel
    /// derives the g/m/v streams).
    pub adam_tensor_sizes: Vec<u64>,
    /// CPU → NPU weight bytes (fp16).
    pub weight_bytes: u64,
}

impl StepSchedule {
    /// Builds the full-size schedule for a model.
    pub fn of(model: &ModelConfig) -> Self {
        let census = TensorCensus::of(model);
        StepSchedule {
            model: *model,
            npu_layers: training_step(model),
            grad_bytes: model.grad_bytes(),
            adam_tensor_sizes: census.sizes(),
            weight_bytes: model.weight_bytes(),
        }
    }

    /// A proportionally scaled schedule for fast simulation: all byte
    /// volumes divided by `factor` (compute scales with them), preserving
    /// the phase *ratios* that determine the end-to-end breakdown.
    pub fn scaled(&self, factor: u64) -> StepSchedule {
        assert!(factor > 0, "scale factor must be positive");
        StepSchedule {
            model: self.model,
            npu_layers: self
                .npu_layers
                .iter()
                .map(|l| LayerSpec {
                    kind: l.kind,
                    macs: (l.macs / factor).max(1),
                    in_bytes: (l.in_bytes / factor).max(64),
                    w_bytes: if l.w_bytes == 0 {
                        0
                    } else {
                        (l.w_bytes / factor).max(64)
                    },
                    out_bytes: (l.out_bytes / factor).max(64),
                })
                .collect(),
            grad_bytes: (self.grad_bytes / factor).max(64),
            adam_tensor_sizes: TensorCensus {
                model: self.model.name,
                tensors: self
                    .adam_tensor_sizes
                    .iter()
                    .map(|&b| crate::census::TensorInfo {
                        name: String::new(),
                        bytes: b,
                    })
                    .collect(),
            }
            .scaled(factor)
            .sizes(),
            weight_bytes: (self.weight_bytes / factor).max(64),
        }
    }

    /// Total CPU fp32 bytes touched by Adam (4 streams: w, g, m, v).
    pub fn adam_bytes(&self) -> u64 {
        self.adam_tensor_sizes.iter().sum::<u64>() * 4
    }

    /// The per-replica schedule for `n_npus`-way data parallelism.
    ///
    /// Data parallelism splits the *global batch* across replicas, so the
    /// batch-dependent quantities shrink by `n_npus` — layer MACs and
    /// activation bytes (inputs/outputs of forward and backward) — while
    /// the model-dependent quantities stay full-size on every replica:
    /// layer weights, the fp32 gradient buffer (now produced by the ring
    /// all-reduce rather than a single backward), the CPU optimizer
    /// state, and the fp16 weight update.
    ///
    /// `n_npus == 1` returns an exact clone, so a one-replica cluster
    /// reproduces the single-NPU schedule bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `n_npus` is zero.
    pub fn data_parallel_replica(&self, n_npus: u32) -> StepSchedule {
        assert!(n_npus > 0, "a cluster needs at least one replica");
        if n_npus == 1 {
            return self.clone();
        }
        let n = u64::from(n_npus);
        StepSchedule {
            model: self.model,
            npu_layers: self
                .npu_layers
                .iter()
                .map(|l| LayerSpec {
                    kind: l.kind,
                    macs: (l.macs / n).max(1),
                    in_bytes: (l.in_bytes / n).max(64),
                    w_bytes: l.w_bytes,
                    out_bytes: (l.out_bytes / n).max(64),
                })
                .collect(),
            grad_bytes: self.grad_bytes,
            adam_tensor_sizes: self.adam_tensor_sizes.clone(),
            weight_bytes: self.weight_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::by_name;

    #[test]
    fn schedule_is_complete() {
        let m = by_name("GPT2-M").unwrap();
        let s = StepSchedule::of(&m);
        assert!(!s.npu_layers.is_empty());
        assert!(!s.adam_tensor_sizes.is_empty());
        assert_eq!(s.grad_bytes, m.grad_bytes());
        assert_eq!(s.weight_bytes, m.weight_bytes());
    }

    #[test]
    fn scaled_preserves_structure() {
        let s = StepSchedule::of(&by_name("GPT").unwrap());
        let t = s.scaled(4096);
        assert_eq!(t.npu_layers.len(), s.npu_layers.len());
        assert_eq!(t.adam_tensor_sizes.len(), s.adam_tensor_sizes.len());
        assert!(t.grad_bytes <= s.grad_bytes / 4096 + 64);
        assert!(t.adam_bytes() < s.adam_bytes());
    }

    #[test]
    fn adam_bytes_counts_four_streams() {
        let s = StepSchedule::of(&by_name("GPT").unwrap());
        let params: u64 = s.adam_tensor_sizes.iter().sum();
        assert_eq!(s.adam_bytes(), params * 4);
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        let s = StepSchedule::of(&by_name("GPT").unwrap());
        let _ = s.scaled(0);
    }

    #[test]
    fn replica_of_one_is_identity() {
        let s = StepSchedule::of(&by_name("GPT2-M").unwrap());
        let r = s.data_parallel_replica(1);
        assert_eq!(r.npu_layers, s.npu_layers);
        assert_eq!(r.grad_bytes, s.grad_bytes);
        assert_eq!(r.adam_tensor_sizes, s.adam_tensor_sizes);
        assert_eq!(r.weight_bytes, s.weight_bytes);
    }

    #[test]
    fn replica_splits_batch_keeps_model() {
        let s = StepSchedule::of(&by_name("GPT2-M").unwrap());
        let r = s.data_parallel_replica(4);
        assert_eq!(r.npu_layers.len(), s.npu_layers.len());
        for (a, b) in r.npu_layers.iter().zip(&s.npu_layers) {
            assert!(a.macs <= b.macs / 4 + 1, "MACs split across replicas");
            assert_eq!(a.w_bytes, b.w_bytes, "weights replicated");
        }
        // Model-size quantities are untouched.
        assert_eq!(r.grad_bytes, s.grad_bytes);
        assert_eq!(r.weight_bytes, s.weight_bytes);
        assert_eq!(r.adam_bytes(), s.adam_bytes());
    }

    #[test]
    #[should_panic]
    fn zero_replicas_rejected() {
        let s = StepSchedule::of(&by_name("GPT").unwrap());
        let _ = s.data_parallel_replica(0);
    }
}
