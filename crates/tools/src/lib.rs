//! NVBit instrumentation tools reproducing the paper's use cases.
//!
//! **Paper mapping:** §6 — the tools the paper builds on the framework,
//! each a thin client of the [`nvbit::NvbitApi`] inspection/injection API.
//!
//! * [`InstrCount`] — the thread-level instruction counter of Listing 1.
//!   Its sites opt into the planner's call coalescing, which makes the
//!   per-basic-block variant the paper sketches exact, and at the top rung
//!   each call of its counting body is lowered to a register add.
//! * [`OpcodeHistogram`] — the per-opcode execution histogram of §6.2, the
//!   same counter with one slot per opcode, with optional **grid-dimension
//!   sampling** (instrumented once per unique grid, uninstrumented
//!   otherwise, with counts extrapolated).
//! * [`MemDivergence`] — the memory-address-divergence tool of Listing 8
//!   (average unique cache lines per warp-level global memory instruction),
//!   with a switch to exclude pre-compiled libraries (emulating what a
//!   compiler-based instrumenter could see, Figure 6).
//! * [`WfftEmu`] — the `WFFT32` instruction-emulation tool of §6.3.
//! * [`MemTrace`] + [`CacheSim`] — an address-trace tool and a host-side
//!   cache simulator built on it (the paper's "entire cache simulators can
//!   be built around these mechanisms").
//! * [`FaultInjector`] — single-bit register fault injection (§6.3's
//!   prior-art use case).
//!
//! Each tool is attached with [`nvbit::attach_tool`] and exposes its results
//! through a shared handle that remains readable after the run:
//!
//! ```
//! use cuda::Driver;
//! use gpu::DeviceSpec;
//! use nvbit::attach_tool;
//! use nvbit_tools::InstrCount;
//! use sass::Arch;
//! use workloads::specaccel::{benchmark, Size};
//!
//! let drv = Driver::new(DeviceSpec::preset(Arch::Volta));
//! let (tool, results) = InstrCount::new();
//! attach_tool(&drv, tool);
//! benchmark("ostencil").unwrap().run(&drv, Size::Small).unwrap();
//! drv.shutdown();
//! assert!(results.total() > 0);
//! ```

#![warn(missing_docs)]

pub mod cache_sim;
pub mod fault;
pub mod instr_count;
pub mod mem_divergence;
pub mod mem_trace;
pub mod opcode_hist;
pub mod wfft_emu;

pub use cache_sim::{CacheConfig, CacheSim, CacheSimResults, ChannelCacheSim};
pub use fault::{FaultInjector, FaultSpec};
pub use instr_count::{CoalescedInstrCount, InstrCount, InstrCountResults};
pub use mem_divergence::{MemDivergence, MemDivergenceResults};
pub use mem_trace::{MemTrace, MemTraceResults};
pub use opcode_hist::{OpcodeHistogram, OpcodeHistogramResults, SamplingMode};
pub use wfft_emu::WfftEmu;

use cuda::CuFunction;
use nvbit::{IPoint, Instr, NvbitApi};

/// Every PTX source a bundled tool hands to `load_tool_functions`, by the
/// constant's name: what `tests/ptx_pin.rs` pins the compiled bytes of.
pub const TOOL_PTX: [(&str, &str); 5] = [
    ("COUNT_PMULT_FN", COUNT_PMULT_FN),
    ("COUNT_WIDE_FN", COUNT_WIDE_FN),
    ("MDIV_FN", mem_divergence::MDIV_FN),
    ("TRACE_CHAN_FN", mem_trace::TRACE_CHAN_FN),
    ("FLIP_FN", fault::FLIP_FN),
];

/// What to instrument at a launch of kernel `func`: the kernel and the
/// functions it can reach ([`NvbitApi::get_related_funcs`], callees'
/// callees included) that are not in `instrumented` yet, which records
/// them; `None` once the kernel is. A device function two kernels reach is
/// instrumented once, at the first kernel's launch.
pub(crate) fn uninstrumented(
    api: &NvbitApi<'_>,
    func: CuFunction,
    instrumented: &mut std::collections::HashSet<u32>,
) -> Option<Vec<CuFunction>> {
    instrumented.insert(func.raw()).then(|| {
        let related = api.get_related_funcs(func).unwrap_or_default();
        let fresh = related.into_iter().filter(|f| instrumented.insert(f.raw()));
        std::iter::once(func).chain(fresh).collect()
    })
}

/// Reads a `u64` device counter.
pub(crate) fn read_u64(drv: &cuda::Driver, addr: u64) -> u64 {
    let mut b = [0u8; 8];
    drv.memcpy_dtoh(&mut b, addr).expect("counter readback");
    u64::from_le_bytes(b)
}

/// Guarded multiplicity-protocol counting function: adds `%mult` only when
/// `%pred` is non-zero — *executed*-level counting under the multiplicity
/// protocol. The guarded early return compiles to the single-diamond shape
/// ([`sass::pressure::BodyShape::Diamond`]) that the body classifier
/// accepts past the straight-leaf threshold, so its one effect, the guarded
/// add, is what the top rung lowers each call to.
pub(crate) const COUNT_PMULT_FN: &str = r#"
.func nvbit_count_pmult(.reg .u32 %pred, .reg .u64 %ctr, .reg .u32 %mult)
{
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    cvt.u64.u32 %rd1, %mult;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

/// Counts `instr` of `func` into the `u64` at `ctr` through `body`, a
/// counting body with [`COUNT_PMULT_FN`]'s parameters, injected before the
/// instruction and coalesce-marked. A guarded instruction passes its guard
/// predicate, so lanes where it is false do not count and the call stays
/// per-site; an unguarded one passes constant 1, so its call is
/// block-invariant and the planner may merge it with its block's others.
pub(crate) fn count_site(
    api: &NvbitApi<'_>,
    func: CuFunction,
    instr: &Instr,
    body: &str,
    ctr: u64,
) {
    let idx = instr.idx;
    api.insert_call(func, idx, body, IPoint::Before).unwrap();
    if instr.has_guard() {
        api.add_call_arg_guard_pred(func, idx).unwrap();
    } else {
        api.add_call_arg_imm32(func, idx, 1).unwrap();
    }
    api.add_call_arg_imm64(func, idx, ctr).unwrap();
    api.set_coalesce(func, idx).unwrap();
}

/// Register-hungry variant of [`COUNT_PMULT_FN`]: computes the same
/// `+%mult` through a redundant shift/subtract expansion
/// (`64m−32m−16m−8m−4m−2m−m = m`) whose six simultaneously-live
/// temporaries push the compiled body's write ceiling past R16 (R20 under
/// the scratch ABI). Semantically identical to `nvbit_count_pmult`; exists
/// as the input whose writes pass the out-of-line call's callee-save cap,
/// and as a spliceable body with no effect to lower: every rung calls it.
pub(crate) const COUNT_WIDE_FN: &str = r#"
.func nvbit_count_wide(.reg .u32 %pred, .reg .u64 %ctr, .reg .u32 %mult)
{
    .reg .u64 %rd<10>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    cvt.u64.u32 %rd1, %mult;
    shl.b64 %rd2, %rd1, 1;
    shl.b64 %rd3, %rd1, 2;
    shl.b64 %rd4, %rd1, 3;
    shl.b64 %rd5, %rd1, 4;
    shl.b64 %rd6, %rd1, 5;
    shl.b64 %rd7, %rd1, 6;
    sub.u64 %rd8, %rd7, %rd6;
    sub.u64 %rd8, %rd8, %rd5;
    sub.u64 %rd8, %rd8, %rd4;
    sub.u64 %rd8, %rd8, %rd3;
    sub.u64 %rd8, %rd8, %rd2;
    sub.u64 %rd8, %rd8, %rd1;
    atom.global.add.u64 %rd9, [%ctr], %rd8;
    ret;
}
"#;
