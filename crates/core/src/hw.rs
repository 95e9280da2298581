//! Hardware overhead accounting (§6.5).
//!
//! The paper budgets the TenAnalyzer at 24 KB of on-chip storage
//! (0.0072 mm² at 7 nm via CACTI-7): a 512-entry Meta Table, a 10-entry
//! Tensor Filter, a 6 KB bitmap cache and 512 poison bits. This module
//! reproduces the arithmetic so the budget is regenerated, not quoted.

use crate::report::Table;

/// Bit widths of one Meta Table entry (§6.5).
#[derive(Debug, Clone, Copy)]
pub struct MetaEntryBits {
    /// Address field.
    pub address: u32,
    /// Dimension fields.
    pub dims: u32,
    /// Stride field.
    pub stride: u32,
    /// Version number.
    pub vn: u32,
    /// Tensor MAC.
    pub mac: u32,
    /// UF/BS flags.
    pub flags: u32,
}

impl Default for MetaEntryBits {
    fn default() -> Self {
        MetaEntryBits {
            address: 64,
            dims: 92,
            stride: 10,
            vn: 56,
            mac: 56,
            flags: 2,
        }
    }
}

impl MetaEntryBits {
    /// Total bits per entry.
    pub fn total(&self) -> u32 {
        self.address + self.dims + self.stride + self.vn + self.mac + self.flags
    }
}

/// The §6.5 hardware budget.
#[derive(Debug, Clone, Copy)]
pub struct HardwareBudget {
    /// Meta Table entries (512).
    pub meta_entries: u32,
    /// Bits per Meta Table entry.
    pub entry_bits: MetaEntryBits,
    /// Tensor Filter entries (10).
    pub filter_entries: u32,
    /// Addresses collected per filter entry (4).
    pub filter_addresses: u32,
    /// Bitmap cache bytes (6 KB).
    pub bitmap_cache_bytes: u32,
    /// Poison bits (512, one per trackable tensor).
    pub poison_bits: u32,
}

impl Default for HardwareBudget {
    fn default() -> Self {
        HardwareBudget {
            meta_entries: 512,
            entry_bits: MetaEntryBits::default(),
            filter_entries: 10,
            filter_addresses: 4,
            bitmap_cache_bytes: 6 << 10,
            poison_bits: 512,
        }
    }
}

impl HardwareBudget {
    /// Meta Table bytes.
    pub fn meta_table_bytes(&self) -> u32 {
        (self.meta_entries * self.entry_bits.total()).div_ceil(8)
    }

    /// Tensor Filter bytes: per entry, 4 addresses (64 b) + VN + MAC.
    pub fn filter_bytes(&self) -> u32 {
        let bits_per_entry = self.filter_addresses * 64 + 56 + 56;
        (self.filter_entries * bits_per_entry).div_ceil(8)
    }

    /// Poison-bit storage bytes.
    pub fn poison_bytes(&self) -> u32 {
        self.poison_bits.div_ceil(8)
    }

    /// Total on-chip bytes for all components.
    pub fn total_bytes(&self) -> u32 {
        self.meta_table_bytes()
            + self.filter_bytes()
            + self.bitmap_cache_bytes
            + self.poison_bytes()
    }

    /// Estimated area in mm² at 7 nm. CACTI-7 reports ~0.0003 mm²/KB for
    /// small SRAM arrays at this node; the paper's 24 KB → 0.0072 mm²
    /// implies exactly that coefficient.
    pub fn area_mm2(&self) -> f64 {
        const MM2_PER_KB: f64 = 0.0072 / 24.0;
        self.total_bytes() as f64 / 1024.0 * MM2_PER_KB
    }

    /// The budget as a component/storage [`Table`] — the single rendering
    /// the `sec65` artifact report ingests.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["component", "storage"]);
        t.row([
            format!(
                "Meta Table ({} x {} b)",
                self.meta_entries,
                self.entry_bits.total()
            ),
            format!("{} B", self.meta_table_bytes()),
        ]);
        t.row([
            format!("Tensor Filter ({} entries)", self.filter_entries),
            format!("{} B", self.filter_bytes()),
        ]);
        t.row([
            "Bitmap cache".into(),
            format!("{} B", self.bitmap_cache_bytes),
        ]);
        t.row(["Poison bits".into(), format!("{} B", self.poison_bytes())]);
        t.row([
            "Total".into(),
            format!(
                "{:.1} KB ({:.4} mm2 @ 7 nm)",
                self.total_bytes() as f64 / 1024.0,
                self.area_mm2()
            ),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_280_bits() {
        // 64 + 92 + 10 + 56 + 56 + 2 (§6.5).
        assert_eq!(MetaEntryBits::default().total(), 280);
    }

    #[test]
    fn total_close_to_paper_24kb() {
        let b = HardwareBudget::default();
        let kb = b.total_bytes() as f64 / 1024.0;
        assert!(
            (22.0..26.0).contains(&kb),
            "paper reports 24 KB, computed {kb:.1} KB"
        );
    }

    #[test]
    fn area_matches_paper_coefficient() {
        let b = HardwareBudget::default();
        assert!((b.area_mm2() - 0.0072).abs() < 0.0012);
    }

    #[test]
    fn table_lists_every_component_and_total() {
        let t = HardwareBudget::default().table();
        assert_eq!(t.len(), 5);
        let md = t.to_markdown();
        assert!(md.contains("Meta Table (512 x 280 b)"));
        assert!(md.contains("24.0 KB"));
    }

    #[test]
    fn components_are_positive() {
        let b = HardwareBudget::default();
        assert!(b.meta_table_bytes() > 16_000, "512×280b ≈ 17.5 KB");
        assert!(b.filter_bytes() > 0);
        assert_eq!(b.poison_bytes(), 64);
    }
}
