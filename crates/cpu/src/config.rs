//! CPU-side configuration (Table 1) and derived latencies.

use tee_mem::{DramConfig, HierarchyConfig};
use tee_sim::ClockDomain;

/// Static configuration of the simulated CPU socket.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Core frequency in GHz (Table 1: 3.5 GHz).
    pub freq_ghz: f64,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// DRAM configuration (Table 1: DDR4-2400, 2 channels).
    pub dram: DramConfig,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// L3 hit latency in cycles.
    pub l3_latency: u64,
    /// AES pipeline latency in cycles (Table 1: 40).
    pub aes_latency: u64,
    /// MAC computation latency in cycles (Table 1: 40).
    pub mac_latency: u64,
    /// Maximum outstanding misses per core (MSHR / memory-level parallelism).
    pub mlp: usize,
    /// Compute cycles per element for the Adam update (vectorized fp32).
    pub adam_cycles_per_element: f64,
    /// Metadata-cache capacity in bytes (Table 1: 32 KB).
    pub metadata_cache_bytes: u64,
    /// Protected-region capacity in 64 B lines (sizes the Merkle tree).
    pub protected_lines: usize,
    /// Whether engines perform real AES/MAC/Merkle computation (security
    /// tests) or count-only modeling (fast timing sweeps).
    pub functional_crypto: bool,
}

impl Default for CpuConfig {
    /// The Table-1 configuration.
    fn default() -> Self {
        CpuConfig {
            freq_ghz: 3.5,
            hierarchy: HierarchyConfig::default(),
            dram: DramConfig::ddr4_2400_2ch(),
            l1_latency: 4,
            l2_latency: 14,
            l3_latency: 38,
            aes_latency: 40,
            mac_latency: 40,
            mlp: 10,
            adam_cycles_per_element: 1.0,
            metadata_cache_bytes: 32 << 10,
            protected_lines: 1 << 21, // 128 MiB protected region
            functional_crypto: false,
        }
    }
}

impl CpuConfig {
    /// A proportionally scaled-down configuration for fast benchmarking:
    /// caches and protected region shrink 8×, so MB-scale working sets
    /// reproduce the memory-bound behaviour of the full-size system.
    pub fn scaled_down() -> Self {
        let mut cfg = Self::default();
        cfg.hierarchy.l3.size_bytes = 1 << 20; // 1 MiB
        cfg.hierarchy.l2.size_bytes = 32 << 10;
        cfg.hierarchy.l1.size_bytes = 8 << 10;
        cfg.protected_lines = 1 << 18; // 16 MiB protected region
        cfg
    }

    /// The core clock domain.
    pub fn clock(&self) -> ClockDomain {
        ClockDomain::from_ghz(self.freq_ghz)
    }

    /// Converts core cycles to simulated time.
    pub fn cycles(&self, n: u64) -> tee_sim::Time {
        self.clock().cycles_to_time(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CpuConfig::default();
        assert_eq!(c.freq_ghz, 3.5);
        assert_eq!(c.hierarchy.cores, 8);
        assert_eq!(c.hierarchy.l1.size_bytes, 32 << 10);
        assert_eq!(c.hierarchy.l2.size_bytes, 256 << 10);
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.aes_latency, 40);
        assert_eq!(c.mac_latency, 40);
        assert_eq!(c.metadata_cache_bytes, 32 << 10);
    }

    #[test]
    fn scaled_down_preserves_shape() {
        let c = CpuConfig::scaled_down();
        assert!(c.hierarchy.l3.size_bytes < CpuConfig::default().hierarchy.l3.size_bytes);
        assert_eq!(c.freq_ghz, 3.5);
    }

    #[test]
    fn cycle_conversion() {
        let c = CpuConfig::default();
        // 35 cycles at 3.5 GHz = 10 ns.
        assert_eq!(c.cycles(35), tee_sim::Time::from_ns(10));
    }
}
