//! NVBit instrumentation tools reproducing the paper's use cases.
//!
//! **Paper mapping:** §6 — the tools the paper builds on the framework,
//! each a thin client of the [`nvbit::NvbitApi`] inspection/injection API.
//!
//! * [`InstrCount`] — the thread-level instruction counter of Listing 1,
//!   plus its basic-block-optimized variant ([`BbInstrCount`]) and the
//!   planner-driven variant ([`CoalescedInstrCount`]) whose sites opt into
//!   basic-block call coalescing and leaf inlining.
//! * [`OpcodeHistogram`] — the per-opcode execution histogram of §6.2, with
//!   optional **grid-dimension sampling** (instrumented once per unique
//!   grid, uninstrumented otherwise, with counts extrapolated).
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
pub use instr_count::{BbInstrCount, CoalescedInstrCount, InstrCount, InstrCountResults};
pub use mem_divergence::{MemDivergence, MemDivergenceResults};
pub use mem_trace::{MemTrace, MemTraceResults};
pub use opcode_hist::{OpcodeHistogram, OpcodeHistogramResults, SamplingMode};
pub use wfft_emu::WfftEmu;

/// Every PTX source a bundled tool hands to `load_tool_functions`, by the
/// constant's name: what `tests/ptx_pin.rs` pins the compiled bytes of.
pub const TOOL_PTX: [(&str, &str); 8] = [
    ("COUNT_FN", COUNT_FN),
    ("COUNT_BB_FN", COUNT_BB_FN),
    ("COUNT_MULT_FN", COUNT_MULT_FN),
    ("COUNT_PMULT_FN", COUNT_PMULT_FN),
    ("COUNT_WIDE_FN", COUNT_WIDE_FN),
    ("MDIV_FN", mem_divergence::MDIV_FN),
    ("TRACE_CHAN_FN", mem_trace::TRACE_CHAN_FN),
    ("FLIP_FN", fault::FLIP_FN),
];

/// Reads a `u64` device counter.
pub(crate) fn read_u64(drv: &cuda::Driver, addr: u64) -> u64 {
    let mut b = [0u8; 8];
    drv.memcpy_dtoh(&mut b, addr).expect("counter readback");
    u64::from_le_bytes(b)
}

/// The shared `count_one` instrumentation device function (Listing 1's
/// counting body): bumps a `u64` counter once per executing thread.
pub(crate) const COUNT_FN: &str = r#"
.func nvbit_count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    mov.u64 %rd1, 1;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

/// Basic-block counting function: adds the block's instruction count once
/// per thread entering the block (the optimization the paper sketches after
/// Listing 1).
pub(crate) const COUNT_BB_FN: &str = r#"
.func nvbit_count_block(.reg .u32 %pred, .reg .u32 %len, .reg .u64 %ctr)
{
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    cvt.u64.u32 %rd1, %len;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

/// Multiplicity-protocol counting function: adds `%mult` to a `u64` counter
/// once per thread reaching the call. The trailing `%mult` argument is
/// appended by the planner (1 for an unmerged site, N when the call stands
/// for N coalesced sites of a basic block). There is deliberately no guard
/// argument — the count is *issue-level* — and the body is small, call-free
/// and register-API-free so the inlining pass can splice it into the
/// trampoline.
pub(crate) const COUNT_MULT_FN: &str = r#"
.func nvbit_count_mult(.reg .u64 %ctr, .reg .u32 %mult)
{
    .reg .u64 %rd<3>;
    cvt.u64.u32 %rd1, %mult;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

/// Guarded multiplicity-protocol counting function: adds `%mult` only when
/// `%pred` is non-zero — *executed*-level counting under the multiplicity
/// protocol. The guarded early return compiles to the single-diamond shape
/// ([`sass::pressure::BodyShape::Diamond`]) that the body classifier
/// accepts past the straight-leaf threshold, so this body is spliced into
/// the trampoline predicated instead of called.
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

/// Register-hungry variant of [`COUNT_PMULT_FN`]: computes the same
/// `+%mult` through a redundant shift/subtract expansion
/// (`64m−32m−16m−8m−4m−2m−m = m`) whose six simultaneously-live
/// temporaries push the compiled body's write ceiling past the first save
/// tier (R20 under the scratch ABI). Semantically identical to
/// `nvbit_count_pmult`; exists to exercise a non-empty exact save — at
/// sites where more registers are live than its pairs can move off, the
/// splice stores the few it still clobbers.
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
