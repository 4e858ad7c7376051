//! Device specifications and the instruction-cost timing model.

use sass::{Arch, OpCategory};

pub use common::Dim3;

/// Per-category instruction costs for the timing model.
///
/// Costs are warp-level issue costs in simulated cycles. Global-memory cost
/// additionally grows with the number of distinct cache lines the warp's
/// active lanes touch, so uncoalesced code is genuinely slower — the
/// property the paper's memory-divergence study (§6.1) measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed issue cost of every warp instruction.
    pub issue: u64,
    /// Base cost per category (indexed by [`OpCategory::ALL`] position).
    pub category: [u64; 14],
    /// Extra cost per distinct cache line of a global access.
    pub global_per_line: u64,
    /// Extra cost per active lane of an atomic.
    pub atomic_per_lane: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        let mut category = [1u64; 14];
        for (i, cat) in OpCategory::ALL.iter().enumerate() {
            category[i] = match cat {
                OpCategory::Integer => 2,
                OpCategory::Float => 2,
                OpCategory::Double => 8,
                OpCategory::Conversion => 2,
                OpCategory::Move => 1,
                OpCategory::Predicate => 1,
                OpCategory::Warp => 2,
                OpCategory::MemGlobal => 24,
                OpCategory::MemShared => 4,
                OpCategory::MemLocal => 8,
                OpCategory::MemConst => 2,
                OpCategory::Atomic => 16,
                OpCategory::Control => 2,
                OpCategory::Misc => 1,
            };
        }
        CostModel { issue: 1, category, global_per_line: 8, atomic_per_lane: 4 }
    }
}

impl CostModel {
    /// Base cost of a category.
    pub fn of(&self, cat: OpCategory) -> u64 {
        let idx = OpCategory::ALL.iter().position(|c| *c == cat).unwrap_or(0);
        self.category[idx]
    }
}

/// Static properties of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Architecture family.
    pub arch: Arch,
    /// Marketing-style name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors (affects `SR_SMID` only; CTA
    /// scheduling order is deterministic regardless of the worker count).
    pub num_sms: u32,
    /// Global memory capacity in bytes.
    pub global_mem: u64,
    /// Shared memory capacity per CTA in bytes.
    pub shared_per_cta: u32,
    /// Default per-thread local-memory (stack) bytes when a launch does not
    /// override it.
    pub default_local: u32,
    /// Cache line size in bytes (divergence accounting granularity).
    pub cache_line: u32,
    /// Timing model.
    pub cost: CostModel,
}

impl DeviceSpec {
    /// A representative device of the given family (the Volta preset mirrors
    /// the paper's TITAN V testbed).
    pub fn preset(arch: Arch) -> DeviceSpec {
        let (name, num_sms, mem_gb) = match arch {
            Arch::Kepler => ("SimK40", 15, 2),
            Arch::Maxwell => ("SimM40", 24, 2),
            Arch::Pascal => ("SimP100", 56, 4),
            Arch::Volta => ("SimTitanV", 80, 4),
        };
        DeviceSpec {
            arch,
            name: name.to_string(),
            num_sms,
            global_mem: mem_gb * 1024 * 1024 * 1024,
            shared_per_cta: 48 * 1024,
            default_local: 16 * 1024,
            cache_line: 128,
            cost: CostModel::default(),
        }
    }

    /// A small-memory preset for unit tests (64 MiB).
    pub fn test(arch: Arch) -> DeviceSpec {
        DeviceSpec { global_mem: 64 * 1024 * 1024, ..DeviceSpec::preset(arch) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_all_arches() {
        for arch in Arch::ALL {
            let s = DeviceSpec::preset(arch);
            assert_eq!(s.arch, arch);
            assert!(s.num_sms > 0);
            assert_eq!(s.cache_line, 128);
        }
    }

    #[test]
    fn cost_model_orders_memory_above_alu() {
        let c = CostModel::default();
        assert!(c.of(OpCategory::MemGlobal) > c.of(OpCategory::Integer));
        assert!(c.of(OpCategory::MemShared) < c.of(OpCategory::MemGlobal));
        assert!(c.of(OpCategory::Double) > c.of(OpCategory::Float));
    }

    #[test]
    fn dim3_helpers() {
        assert_eq!(Dim3::linear(7).count(), 7);
        assert_eq!(Dim3::xyz(2, 3, 4).count(), 24);
        assert_eq!(Dim3::xyz(128, 128, 1).to_string(), "{128,128,1}");
    }
}
