//! Execution statistics collected per launch.

use sass::{Op, OpCategory};
use std::collections::BTreeMap;

/// Memory-system counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Warp-level global loads executed.
    pub global_loads: u64,
    /// Warp-level global stores executed.
    pub global_stores: u64,
    /// Sum over global accesses of the distinct cache lines touched.
    pub global_lines: u64,
    /// Warp-level shared accesses.
    pub shared_accesses: u64,
    /// Warp-level local accesses.
    pub local_accesses: u64,
    /// Atomic/reduction operations (thread-level).
    pub atomics: u64,
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Warp-level instructions executed (one per issued instruction).
    pub warp_instructions: u64,
    /// Thread-level instructions (sum of active lanes per issue).
    pub thread_instructions: u64,
    /// Simulated cycles under the cost model.
    pub cycles: u64,
    /// Executed warp-level instruction counts per opcode mnemonic.
    pub per_op: BTreeMap<String, u64>,
    /// Executed warp-level instruction counts per category.
    pub per_category: BTreeMap<OpCategory, u64>,
    /// Memory counters.
    pub mem: MemStats,
    /// Warp instructions fetched from an already decoded slot of the
    /// device's code-page cache: `warp_instructions - decode_misses`.
    pub decode_hits: u64,
    /// Instruction slots the launch decoded (each at its first execution
    /// since the code was written), under any scheduler.
    pub decode_misses: u64,
}

/// One slot per encoded opcode value ([`Op::index`]).
const OP_SLOTS: usize = {
    let (mut n, mut i) = (0, 0);
    while i < Op::ALL.len() {
        if Op::ALL[i] as usize >= n {
            n = Op::ALL[i] as usize + 1;
        }
        i += 1;
    }
    n
};

/// What the executor counts while a CTA runs: the scalar fields of
/// [`ExecStats`] in `sum`, and the per-opcode histogram as a flat array — no
/// `String`, no tree walk per issued instruction. The warp-instruction count
/// and the per-category histogram follow from the per-opcode one, so a step
/// bumps two counters. CTAs add up in CTA-linear order and become the public
/// maps once per launch.
pub(crate) struct CtaStats {
    /// Everything but `warp_instructions`, `per_op` and `per_category`,
    /// which stay zero and empty until [`CtaStats::finish`].
    pub sum: ExecStats,
    per_op: [u64; OP_SLOTS],
}

impl Default for CtaStats {
    fn default() -> CtaStats {
        CtaStats { sum: ExecStats::default(), per_op: [0; OP_SLOTS] }
    }
}

impl CtaStats {
    /// Records one issued instruction.
    pub fn record(&mut self, op: Op, active: u32) {
        let lanes = if active == u32::MAX { 32 } else { active.count_ones() };
        self.sum.thread_instructions += lanes as u64;
        self.per_op[op.index() as usize] += 1;
    }

    pub fn add(&mut self, other: &CtaStats) {
        self.sum.merge(&other.sum);
        self.per_op.iter_mut().zip(other.per_op).for_each(|(a, b)| *a += b);
    }

    /// The public statistics: histogram entries exist for executed
    /// opcodes and categories only.
    pub fn finish(mut self) -> ExecStats {
        for op in Op::ALL {
            let n = self.per_op[op.index() as usize];
            if n > 0 {
                self.sum.warp_instructions += n;
                *self.sum.per_op.entry(op.mnemonic().to_string()).or_insert(0) += n;
                *self.sum.per_category.entry(op.category()).or_insert(0) += n;
            }
        }
        self.sum
    }
}

impl ExecStats {
    /// Merges another launch's statistics into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.warp_instructions += other.warp_instructions;
        self.thread_instructions += other.thread_instructions;
        self.cycles += other.cycles;
        for (k, v) in &other.per_op {
            // No key clone for an opcode both sides already have.
            if let Some(c) = self.per_op.get_mut(k) {
                *c += v;
            } else {
                self.per_op.insert(k.clone(), *v);
            }
        }
        for (k, v) in &other.per_category {
            *self.per_category.entry(*k).or_insert(0) += v;
        }
        self.mem.global_loads += other.mem.global_loads;
        self.mem.global_stores += other.mem.global_stores;
        self.mem.global_lines += other.mem.global_lines;
        self.mem.shared_accesses += other.mem.shared_accesses;
        self.mem.local_accesses += other.mem.local_accesses;
        self.mem.atomics += other.mem.atomics;
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map-based reference `CtaStats` is checked against: one issued
    /// instruction, straight into the public maps.
    trait Record {
        fn record(&mut self, op: Op, active: u32);
    }

    impl Record for ExecStats {
        fn record(&mut self, op: Op, active: u32) {
            self.warp_instructions += 1;
            self.thread_instructions += active.count_ones() as u64;
            *self.per_op.entry(op.mnemonic().to_string()).or_insert(0) += 1;
            *self.per_category.entry(op.category()).or_insert(0) += 1;
        }
    }

    #[test]
    fn record_counts_ops_and_lanes() {
        let mut s = ExecStats::default();
        s.record(Op::Iadd, 0xffff_ffff);
        s.record(Op::Iadd, 0x1);
        s.record(Op::Ldg, 0xf);
        assert_eq!(s.warp_instructions, 3);
        assert_eq!(s.thread_instructions, 37);
        assert_eq!(s.per_op["IADD"], 2);
        assert_eq!(s.per_category[&OpCategory::MemGlobal], 1);
    }

    #[test]
    fn flat_counters_convert_to_the_same_maps_as_record() {
        for (i, cat) in OpCategory::ALL.iter().enumerate() {
            assert_eq!(*cat as usize, i, "flat arrays index by declaration order");
        }
        let (mut flat, mut cta, mut want) =
            (CtaStats::default(), CtaStats::default(), ExecStats::default());
        for (n, op) in Op::ALL.iter().enumerate().filter(|(n, _)| n % 3 != 1) {
            cta.record(*op, n as u32);
            want.record(*op, n as u32);
        }
        cta.sum.cycles = 7;
        want.cycles = 7;
        want.merge(&want.clone());
        flat.add(&cta);
        flat.add(&cta);
        assert_eq!(flat.finish(), want);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ExecStats::default();
        a.record(Op::Fmul, u32::MAX);
        let mut b = ExecStats::default();
        b.record(Op::Fmul, u32::MAX);
        b.cycles = 10;
        a.merge(&b);
        assert_eq!(a.per_op["FMUL"], 2);
        assert_eq!(a.cycles, 10);
        assert_eq!(a.thread_instructions, 64);
    }
}
