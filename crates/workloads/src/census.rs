//! The Figure-4 tensor census: how many tensors the CPU-side optimizer
//! touches per model, and how large they are.
//!
//! "The tensor sizes grow to MBytes, but the growth rate of tensor numbers
//! is slow, reaching only a few hundred" — the property that makes
//! tensor-granularity metadata viable on-chip (512 Meta Table entries).

use crate::zoo::ModelConfig;

/// One named parameter tensor (fp32 master copy on the CPU).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorInfo {
    /// Diagnostic name ("layer3.mlp.fc1").
    pub name: String,
    /// fp32 bytes.
    pub bytes: u64,
}

/// The census result for one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorCensus {
    /// Model name.
    pub model: &'static str,
    /// Every parameter tensor.
    pub tensors: Vec<TensorInfo>,
}

impl TensorCensus {
    /// Enumerates the parameter tensors of a transformer stack: per layer
    /// QKV, attention-out, two MLP matrices, two layer-norms and biases.
    /// Embeddings stay on the NPU (ZeRO-Offload keeps them with the
    /// compute) and are excluded, as in Figure 4.
    pub fn of(model: &ModelConfig) -> Self {
        let h = model.hidden;
        let f = 4; // fp32
        let mut tensors = Vec::new();
        for l in 0..model.layers {
            let mut push = |suffix: &str, bytes: u64| {
                tensors.push(TensorInfo {
                    name: format!("layer{l}.{suffix}"),
                    bytes,
                });
            };
            push("attn.qkv", h * 3 * h * f);
            push("attn.out", h * h * f);
            push("mlp.fc1", h * 4 * h * f);
            push("mlp.fc2", 4 * h * h * f);
            push("ln1", 2 * h * f);
            push("ln2", 2 * h * f);
            push("attn.bias", (3 * h + h) * f);
            push("mlp.bias", (4 * h + h) * f);
        }
        tensors.push(TensorInfo {
            name: "final_ln".into(),
            bytes: 2 * h * f,
        });
        TensorCensus {
            model: model.name,
            tensors,
        }
    }

    /// Tensor count (Figure 4 left axis).
    pub fn count(&self) -> usize {
        self.tensors.len()
    }

    /// Largest tensor in bytes (Figure 4 right axis).
    pub fn max_bytes(&self) -> u64 {
        self.tensors.iter().map(|t| t.bytes).max().unwrap_or(0)
    }

    /// Total fp32 parameter bytes (one of the four Adam streams).
    pub fn total_bytes(&self) -> u64 {
        self.tensors.iter().map(|t| t.bytes).sum()
    }

    /// The per-tensor sizes, for building an Adam workload.
    pub fn sizes(&self) -> Vec<u64> {
        self.tensors.iter().map(|t| t.bytes).collect()
    }

    /// A proportionally scaled census (for fast benches): sizes divided by
    /// `factor`, count preserved. Tensors are clamped to at least 4 KiB
    /// (64 cachelines) so that scaled tensors keep a *tensor-like* shape —
    /// the stream detection and update-round mechanics of TenAnalyzer are
    /// meaningless on single-line tensors.
    pub fn scaled(&self, factor: u64) -> TensorCensus {
        TensorCensus {
            model: self.model,
            tensors: self
                .tensors
                .iter()
                .map(|t| TensorInfo {
                    name: t.name.clone(),
                    bytes: (t.bytes / factor).max(4096),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{by_name, TABLE2};

    #[test]
    fn counts_are_few_hundred() {
        for m in TABLE2 {
            let c = TensorCensus::of(&m);
            assert!(
                (90..=400).contains(&c.count()),
                "{}: {} tensors",
                m.name,
                c.count()
            );
        }
    }

    #[test]
    fn sizes_reach_megabytes() {
        let big = TensorCensus::of(&by_name("LLAMA2-7B").unwrap());
        assert!(
            big.max_bytes() > 100 << 20,
            "large models have 100MB+ tensors"
        );
        let small = TensorCensus::of(&by_name("GPT").unwrap());
        assert!(small.max_bytes() > 1 << 20);
        assert!(small.max_bytes() < big.max_bytes());
    }

    #[test]
    fn totals_track_params() {
        let m = by_name("GPT2-M").unwrap();
        let c = TensorCensus::of(&m);
        // Census covers the 12·L·H² transformer weights (no embeddings).
        let expected = 12 * m.layers * m.hidden * m.hidden * 4;
        let total = c.total_bytes();
        assert!(
            total as f64 / expected as f64 > 0.99 && total < expected * 2,
            "census {total} vs 12LH² {expected}"
        );
    }

    #[test]
    fn scaled_preserves_count() {
        let c = TensorCensus::of(&by_name("GPT").unwrap());
        let s = c.scaled(1024);
        assert_eq!(s.count(), c.count());
        assert!(s.max_bytes() <= c.max_bytes() / 1024 + 4096);
        assert!(s.sizes().iter().all(|&b| b >= 4096));
    }
}
