//! Instrumentation request types: injection points, arguments, and the
//! per-function instrumentation specification built up by tool calls.

use ptx::regalloc::{arg_slot, FIRST_CALLER};
use std::collections::HashSet;
use std::sync::Arc;

/// Where to inject relative to the instrumented instruction (the paper's
/// `IPOINT_BEFORE` / `IPOINT_AFTER`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IPoint {
    /// Run the injected function before the original instruction.
    Before,
    /// Run it after (only reached when the original falls through).
    After,
}

/// An argument passed to an injected device function (the paper's
/// `nvbit_add_call_arg_*` family). Argument passing is positional and must
/// match the injected function's signature. The ordering is arbitrary but
/// total — the planner's coalescing pass keys groups on argument lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arg {
    /// The evaluated guard predicate of the instrumented instruction
    /// (1 = the instruction actually executes on this thread).
    GuardPred,
    /// The value of a general-purpose register at the instrumentation point.
    RegVal(u8),
    /// The value of a register pair (64-bit, e.g. an address base).
    RegVal64(u8),
    /// The value of a predicate register (0/1).
    PredVal(u8),
    /// A 32-bit immediate fixed at instrumentation time.
    Imm32(i32),
    /// A 64-bit immediate (e.g. the device address of a tool counter).
    Imm64(u64),
    /// A value from a constant bank at launch time.
    CBank {
        /// Bank index.
        bank: u8,
        /// Byte offset.
        offset: u16,
    },
}

impl Arg {
    /// Number of 32-bit ABI argument slots the argument occupies.
    pub fn slots(&self) -> u8 {
        match self {
            Arg::Imm64(_) | Arg::RegVal64(_) => 2,
            _ => 1,
        }
    }
}

/// The ABI argument walk: each argument with the first register it is
/// materialized into, in the PTX compiler's order ([`arg_slot`] from
/// [`FIRST_CALLER`]). The one definition behind save-tier selection,
/// effect lowering's argument lookup and argument emission (which adds the
/// window limit, the first callee-saved register).
pub(crate) fn abi_slots(args: &[Arg]) -> impl Iterator<Item = (u8, &Arg)> {
    let mut next = FIRST_CALLER;
    args.iter().map(move |arg| {
        let slot = arg_slot(next, arg.slots() == 2);
        next = slot.saturating_add(arg.slots());
        (slot, arg)
    })
}

/// One past the highest ABI register materializing `args` writes.
pub(crate) fn arg_window(args: &[Arg]) -> u8 {
    abi_slots(args).last().map_or(FIRST_CALLER, |(slot, arg)| slot.saturating_add(arg.slots()))
}

/// One injected call at an instrumentation site. Its positional arguments
/// live in the owning [`FuncSpec`] ([`FuncSpec::args`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Index of the instrumented instruction.
    pub idx: usize,
    /// Name of the tool device function to call (shared with the core's
    /// table of loaded tool functions).
    pub func: Arc<str>,
    /// Before or after the original instruction.
    pub ipoint: IPoint,
    /// Where the arguments sit in the spec's argument pool: start, count.
    args: (usize, usize),
    /// Opt-in to basic-block call coalescing: the injection follows the
    /// *multiplicity protocol* — the code generator always appends one
    /// trailing `Imm32` multiplicity argument, and the planner may merge
    /// identical coalescible injections within a basic block into a single
    /// call whose multiplicity is the number of sites it represents. Only
    /// injections whose explicit arguments are all block-invariant
    /// (immediates, constant-bank reads) are merged; the tool function must
    /// accept the extra final `u32` argument.
    pub coalesce: bool,
}

/// The accumulated instrumentation specification of one function: every
/// requested injection in request order, flat. A site may carry several
/// (paper: "multiple function injections to the same location").
#[derive(Debug, Clone, Default)]
pub struct FuncSpec {
    calls: Vec<Injection>,
    /// The argument lists of `calls`, each contiguous.
    args: Vec<Arg>,
    /// Instructions whose original operation is removed (paper:
    /// `nvbit_remove_orig`).
    pub removed: HashSet<usize>,
    /// Set by every edit and by the core when a tool function the spec calls
    /// is reloaded, cleared by the core when it has built an image of the
    /// spec: a set flag is what makes a function's image stale.
    pub dirty: bool,
}

impl FuncSpec {
    /// True if nothing was requested.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty() && self.removed.is_empty()
    }

    /// Every requested injection, in request order.
    pub fn injections(&self) -> &[Injection] {
        &self.calls
    }

    /// The positional arguments of one of this spec's injections.
    pub fn args(&self, inj: &Injection) -> &[Arg] {
        &self.args[inj.args.0..][..inj.args.1]
    }

    /// Adds an injection, marking the spec dirty.
    pub fn insert_call(&mut self, idx: usize, func: impl Into<Arc<str>>, ipoint: IPoint) {
        self.calls.push(Injection {
            idx,
            func: func.into(),
            ipoint,
            args: (self.args.len(), 0),
            coalesce: false,
        });
        self.dirty = true;
    }

    /// Applies `edit` to the most recently inserted call at `idx`, marking
    /// the spec dirty; `false` if no call was inserted there yet.
    fn edit_latest(
        &mut self,
        idx: usize,
        edit: impl FnOnce(&mut Injection, &mut Vec<Arg>),
    ) -> bool {
        let Some(call) = self.calls.iter_mut().rev().find(|c| c.idx == idx) else { return false };
        edit(call, &mut self.args);
        self.dirty = true;
        true
    }

    /// Appends an argument to the most recently inserted call at `idx`.
    ///
    /// Returns `false` if no call was inserted there yet.
    pub fn add_arg(&mut self, idx: usize, arg: Arg) -> bool {
        self.edit_latest(idx, |call, pool| {
            let (start, len) = call.args;
            if start + len != pool.len() {
                // Another call's arguments follow: continue at the pool's end.
                pool.extend_from_within(start..start + len);
                call.args.0 = pool.len() - len;
            }
            pool.push(arg);
            call.args.1 += 1;
        })
    }

    /// Marks the most recent injection at `idx` as coalescible (opt-in to
    /// the planner's basic-block coalescing pass and its multiplicity
    /// protocol — see [`Injection::coalesce`]).
    ///
    /// Returns `false` if no call was inserted there yet.
    pub fn set_coalesce(&mut self, idx: usize) -> bool {
        self.edit_latest(idx, |call, _| call.coalesce = true)
    }

    /// Marks the original instruction at `idx` for removal.
    pub fn remove_orig(&mut self, idx: usize) {
        self.removed.insert(idx);
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FuncSpec {
        /// The injections requested at instruction `idx`, in request order.
        fn site(&self, idx: usize) -> impl Iterator<Item = &Injection> {
            self.injections().iter().filter(move |c| c.idx == idx)
        }
    }

    #[test]
    fn multiple_injections_per_site_accumulate_in_order() {
        let mut s = FuncSpec::default();
        s.insert_call(3, "a", IPoint::Before);
        s.insert_call(1, "c", IPoint::Before);
        s.insert_call(3, "b", IPoint::After);
        let at3: Vec<&Injection> = s.site(3).collect();
        assert_eq!(at3.len(), 2);
        assert_eq!(&*at3[0].func, "a");
        assert_eq!(at3[1].ipoint, IPoint::After);
        assert_eq!(s.injections().len(), 3);
        assert!(s.dirty);
    }

    #[test]
    fn args_attach_to_the_latest_injection() {
        let mut s = FuncSpec::default();
        assert!(!s.add_arg(0, Arg::GuardPred), "no call inserted yet");
        s.insert_call(0, "f", IPoint::Before);
        assert!(s.add_arg(0, Arg::GuardPred));
        assert!(s.add_arg(0, Arg::Imm64(0xdead)));
        s.insert_call(0, "g", IPoint::Before);
        assert!(s.add_arg(0, Arg::RegVal(7)));
        let at0: Vec<&[Arg]> = s.site(0).map(|inj| s.args(inj)).collect();
        assert_eq!(at0, [&[Arg::GuardPred, Arg::Imm64(0xdead)][..], &[Arg::RegVal(7)]]);
    }

    #[test]
    fn an_argument_list_that_is_no_longer_the_last_still_grows() {
        // Site 0's call is followed by site 1's before it gets its second
        // argument: the tool interleaved its requests.
        let mut s = FuncSpec::default();
        s.insert_call(0, "f", IPoint::Before);
        s.add_arg(0, Arg::Imm32(1));
        s.insert_call(1, "g", IPoint::Before);
        s.add_arg(1, Arg::Imm32(2));
        s.add_arg(0, Arg::Imm32(3));
        s.add_arg(1, Arg::Imm32(4));
        let args = |idx| s.args(s.site(idx).next().unwrap());
        assert_eq!(args(0), [Arg::Imm32(1), Arg::Imm32(3)]);
        assert_eq!(args(1), [Arg::Imm32(2), Arg::Imm32(4)]);
    }

    #[test]
    fn coalesce_attaches_to_the_latest_injection_and_dirties() {
        let mut s = FuncSpec::default();
        assert!(!s.set_coalesce(0), "no call inserted yet");
        s.insert_call(0, "f", IPoint::Before);
        s.dirty = false; // as after a build
        assert!(s.set_coalesce(0));
        assert!(s.site(0).all(|inj| inj.coalesce));
        assert!(s.dirty, "a coalesce edit makes the built image stale");
    }

    #[test]
    fn the_slot_walk_even_aligns_wide_arguments() {
        // GuardPred lands in R4; the Imm64 pair skips R5 for R6:R7.
        let args = [Arg::GuardPred, Arg::Imm64(0)];
        assert_eq!(abi_slots(&args).map(|(slot, _)| slot).collect::<Vec<_>>(), vec![4, 6]);
        assert_eq!(arg_window(&args), 8);
        assert_eq!(arg_window(&[]), 4);
        assert_eq!(arg_window(&[Arg::Imm64(0), Arg::Imm32(0)]), 7);
        // Absurd lists saturate instead of wrapping.
        assert_eq!(arg_window(&vec![Arg::Imm64(0); 200]), u8::MAX);
    }

    #[test]
    fn slots_account_for_wide_arguments() {
        assert_eq!(Arg::GuardPred.slots(), 1);
        assert_eq!(Arg::Imm64(0).slots(), 2);
        assert_eq!(Arg::RegVal64(4).slots(), 2);
    }
}
