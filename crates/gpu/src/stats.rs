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

/// Statistics of one launch as the executor counts them: the scalar fields
/// of [`ExecStats`] by name and the per-opcode histogram as a flat array — no
/// `String`, no tree walk per issued instruction. A step bumps two counters;
/// `warp_instructions` and `decode_hits` follow from the histogram at launch
/// end, and the per-category histogram when [`ExecStats`] is built from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Warp-level instructions executed: the histogram's sum.
    pub warp_instructions: u64,
    /// Thread-level instructions (sum of active lanes per issue).
    pub thread_instructions: u64,
    /// Simulated cycles under the cost model.
    pub cycles: u64,
    /// Memory counters.
    pub mem: MemStats,
    /// Warp instructions fetched from an already decoded slot.
    pub decode_hits: u64,
    /// Instruction slots the launch decoded.
    pub decode_misses: u64,
    per_op: OpCounts,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct OpCounts([u64; OP_SLOTS]);

impl Default for OpCounts {
    fn default() -> OpCounts {
        OpCounts([0; OP_SLOTS])
    }
}

impl LaunchStats {
    /// Records one issued instruction.
    pub(crate) fn record(&mut self, op: Op, active: u32) {
        let lanes = if active == u32::MAX { 32 } else { active.count_ones() };
        self.thread_instructions += lanes as u64;
        self.per_op.0[op.index() as usize] += 1;
    }

    /// Adds a CTA's counters; the histogram's sums are left to launch end.
    pub(crate) fn add(&mut self, other: &LaunchStats) {
        self.thread_instructions += other.thread_instructions;
        self.cycles += other.cycles;
        self.mem.add(&other.mem);
        self.decode_misses += other.decode_misses;
        self.per_op.0.iter_mut().zip(other.per_op.0).for_each(|(a, b)| *a += b);
    }

    /// Warp-level instructions of opcode `op` the launch executed.
    pub fn op_count(&self, op: Op) -> u64 {
        self.per_op.0[op.index() as usize]
    }

    /// Every executed opcode with its count, in [`Op::ALL`] order.
    pub fn ops(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Op::ALL.iter().map(|&op| (op, self.op_count(op))).filter(|&(_, n)| n > 0)
    }

    /// The scalar fields, as an [`ExecStats`] with empty maps.
    pub fn scalars(&self) -> ExecStats {
        ExecStats {
            warp_instructions: self.warp_instructions,
            thread_instructions: self.thread_instructions,
            cycles: self.cycles,
            mem: self.mem.clone(),
            decode_hits: self.decode_hits,
            decode_misses: self.decode_misses,
            ..ExecStats::default()
        }
    }
}

/// Histogram entries exist for executed opcodes and categories only.
impl From<&LaunchStats> for ExecStats {
    fn from(s: &LaunchStats) -> ExecStats {
        s.scalars().with_ops(s.ops())
    }
}

impl MemStats {
    fn add(&mut self, o: &MemStats) {
        self.global_loads += o.global_loads;
        self.global_stores += o.global_stores;
        self.global_lines += o.global_lines;
        self.shared_accesses += o.shared_accesses;
        self.local_accesses += o.local_accesses;
        self.atomics += o.atomics;
    }
}

impl ExecStats {
    /// Merges another launch's statistics into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.warp_instructions += other.warp_instructions;
        self.thread_instructions += other.thread_instructions;
        self.cycles += other.cycles;
        for (k, v) in &other.per_op {
            *self.per_op.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.per_category {
            *self.per_category.entry(*k).or_insert(0) += v;
        }
        self.mem.add(&other.mem);
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
    }

    /// Adds per-opcode warp-instruction counts to `per_op` and
    /// `per_category`; the scalar fields are left as they are.
    pub fn with_ops(mut self, ops: impl IntoIterator<Item = (Op, u64)>) -> ExecStats {
        for (op, n) in ops {
            match self.per_op.get_mut(op.mnemonic()) {
                Some(c) => *c += n,
                None => drop(self.per_op.insert(op.mnemonic().to_string(), n)),
            }
            *self.per_category.entry(op.category()).or_insert(0) += n;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map-based reference `LaunchStats` is checked against: one issued
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
            (LaunchStats::default(), LaunchStats::default(), ExecStats::default());
        for (n, op) in Op::ALL.iter().enumerate().filter(|(n, _)| n % 3 != 1) {
            cta.record(*op, n as u32);
            want.record(*op, n as u32);
            assert_eq!(cta.op_count(*op), 1);
        }
        cta.cycles = 7;
        want.cycles = 7;
        want.merge(&want.clone());
        flat.add(&cta);
        flat.add(&cta);
        // What `Device::launch` derives at launch end.
        flat.warp_instructions = flat.ops().map(|(_, n)| n).sum();
        assert_eq!(ExecStats::from(&flat), want);
        // `with_ops` adds into existing entries and leaves the scalars.
        let doubled = flat.scalars().with_ops(flat.ops().chain(flat.ops()));
        assert_eq!(doubled.per_op.values().sum::<u64>(), 2 * want.warp_instructions);
        assert_eq!(doubled.warp_instructions, want.warp_instructions);
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
