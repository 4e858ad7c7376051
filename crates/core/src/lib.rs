//! **NVBit** — a dynamic binary instrumentation framework for the simulated
//! GPU stack, reproducing the system of *NVBit: A Dynamic Binary
//! Instrumentation Framework for NVIDIA GPUs* (MICRO 2019).
//!
//! The framework interposes on the CUDA driver ([`cuda::Interposer`]),
//! lifts SASS machine code into a machine-independent [`Instr`] view,
//! lets tools inject device functions before/after any instruction, and
//! dynamically recompiles the kernel with **trampolines** so that the
//! instrumented copy occupies exactly the same addresses as the original
//! (enabling O(memcpy) switching between the two — the basis of the paper's
//! sampling methodology, §6.2).
//!
//! **Paper mapping:** §4 — SASS lifting (§4.1), instrumentation-function
//! compilation (§4.2), trampoline code generation and register save/restore
//! (§4.3–4.4), and the original/instrumented code-swap machinery.
//!
//! # Writing a tool
//!
//! A tool implements [`NvbitTool`] (the analog of an NVBit `.so`):
//!
//! * instrumentation *device functions* are written in the PTX dialect and
//!   registered with [`NvbitApi::load_tool_functions`] (the Tool Functions
//!   Loader);
//! * in `at_cuda_event`, on the entry of a kernel launch, the tool inspects
//!   the kernel ([`NvbitApi::get_instrs`], [`NvbitApi::get_basic_blocks`],
//!   [`NvbitApi::get_related_funcs`]) and injects calls
//!   ([`NvbitApi::insert_call`], [`NvbitApi::add_call_arg`],
//!   [`NvbitApi::remove_orig`]);
//! * [`NvbitApi::enable_instrumented`] switches between the original and
//!   instrumented versions per launch (sampling);
//! * device-API reads/writes of the instrumented thread's registers are
//!   expressed with the `nvbit.readreg`/`nvbit.writereg` PTX intrinsics,
//!   which the framework backs with the register save area (writes are
//!   *permanent*: the restore routine loads them back into the register
//!   file — the mechanism behind instruction emulation, §6.3).
//!
//! # Example: the paper's Listing 1 (thread-level instruction counter)
//!
//! ```
//! use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
//! use gpu::{DeviceSpec, Dim3};
//! use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool};
//! use sass::Arch;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! /// Counts every executed thread-level instruction of every kernel.
//! struct InstrCount {
//!     counter: Rc<Cell<u64>>, // device address of the managed counter
//!     instrumented: std::collections::HashSet<cuda::CuFunction>,
//! }
//!
//! const IFUNC: &str = r#"
//! .func count_instrs(.reg .u32 %pred, .reg .u64 %ctr)
//! {
//!     .reg .u32 %r<4>;
//!     .reg .pred %p<2>;
//!     // A false guard predicate means the instrumented instruction does
//!     // not actually execute (paper Listing 8, line 9).
//!     setp.eq.u32 %p1, %pred, 0;
//!     @%p1 ret;
//!     mov.u32 %r1, 1;
//!     atom.global.add.u32 %r2, [%ctr], %r1;
//!     ret;
//! }
//! "#;
//!
//! impl NvbitTool for InstrCount {
//!     fn at_init(&mut self, api: &NvbitApi<'_>) {
//!         api.load_tool_functions(IFUNC).unwrap();
//!         let addr = api.driver().with_device(|d| d.alloc(8)).unwrap();
//!         self.counter.set(addr);
//!     }
//!
//!     fn at_cuda_event(
//!         &mut self,
//!         api: &NvbitApi<'_>,
//!         is_exit: bool,
//!         cbid: CbId,
//!         params: &CbParams<'_>,
//!     ) {
//!         let CbParams::LaunchKernel { func, .. } = params else { return };
//!         if is_exit || cbid != CbId::LaunchKernel || !self.instrumented.insert(*func) {
//!             return;
//!         }
//!         let n = api.get_instrs(*func).unwrap().len();
//!         for idx in 0..n {
//!             api.insert_call(*func, idx, "count_instrs", IPoint::Before).unwrap();
//!             api.add_call_arg_guard_pred(*func, idx).unwrap();
//!             api.add_call_arg_imm64(*func, idx, self.counter.get()).unwrap();
//!         }
//!     }
//! }
//!
//! // Run an application under the tool.
//! let counter = Rc::new(Cell::new(0u64));
//! let drv = Driver::new(DeviceSpec::preset(Arch::Volta));
//! attach_tool(&drv, InstrCount { counter: counter.clone(), instrumented: Default::default() });
//! let ctx = drv.ctx_create().unwrap();
//! let m = drv
//!     .module_load(&ctx, FatBinary::from_ptx("app", "
//! .entry store(.param .u64 p)
//! {
//!     .reg .u64 %rd<2>;
//!     ld.param.u64 %rd1, [p];
//!     st.global.u64 [%rd1], %rd1;
//!     exit;
//! }
//! "))
//!     .unwrap();
//! let f = drv.module_get_function(&m, "store").unwrap();
//! let buf = drv.mem_alloc(64).unwrap();
//! drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
//!
//! // The kernel executes 3 instructions on each of 32 threads.
//! let mut out = [0u8; 8];
//! drv.memcpy_dtoh(&mut out, counter.get()).unwrap();
//! assert_eq!(u64::from_le_bytes(out), 96);
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod core;
pub mod hal;
pub mod instr;
pub mod lift;
pub mod plan;
pub mod saverestore;
pub mod spec;
pub mod verify;

pub use crate::core::{attach_tool, NvbitApi, NvbitCore, NvbitTool, SaveStats};
pub use codegen::SavePolicy;
pub use hal::Hal;
pub use instr::Instr;
pub use plan::{PlanLevel, PlanOpts, PlanStats};
pub use spec::{Arg, IPoint};
pub use verify::{DiagKind, Diagnostic};

/// Errors raised by the instrumentation framework.
#[derive(Debug)]
pub enum NvbitError {
    /// A driver-level failure.
    Driver(cuda::DriverError),
    /// Compilation of tool device functions failed.
    ToolCompile(ptx::PtxError),
    /// Reference to an unknown tool device function.
    UnknownToolFunction(String),
    /// An instruction index outside the function body.
    BadInstrIndex {
        /// Offending index.
        index: usize,
        /// Function size in instructions.
        len: usize,
    },
    /// The instrumentation request is invalid (e.g. too many arguments).
    BadRequest(String),
    /// Code generation failed to encode an instruction.
    Encode(sass::SassError),
    /// The generated instrumented image failed pre-swap verification; the
    /// swap was refused to protect the application.
    VerifyFailed(Vec<verify::Diagnostic>),
}

impl std::fmt::Display for NvbitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvbitError::Driver(e) => write!(f, "driver error: {e}"),
            NvbitError::ToolCompile(e) => write!(f, "tool function compilation failed: {e}"),
            NvbitError::UnknownToolFunction(n) => {
                write!(f, "unknown tool function `{n}` (load_tool_functions first?)")
            }
            NvbitError::BadInstrIndex { index, len } => {
                write!(f, "instruction index {index} out of range (function has {len})")
            }
            NvbitError::BadRequest(s) => write!(f, "bad instrumentation request: {s}"),
            NvbitError::Encode(e) => write!(f, "code generation encode failure: {e}"),
            NvbitError::VerifyFailed(diags) => {
                write!(f, "instrumented image failed verification ({} finding(s)", diags.len())?;
                match diags.first() {
                    Some(first) => write!(f, "; first: {first})"),
                    None => write!(f, ")"),
                }
            }
        }
    }
}

impl std::error::Error for NvbitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NvbitError::Driver(e) => Some(e),
            NvbitError::ToolCompile(e) => Some(e),
            NvbitError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cuda::DriverError> for NvbitError {
    fn from(e: cuda::DriverError) -> Self {
        NvbitError::Driver(e)
    }
}

impl From<ptx::PtxError> for NvbitError {
    fn from(e: ptx::PtxError) -> Self {
        NvbitError::ToolCompile(e)
    }
}

impl From<sass::SassError> for NvbitError {
    fn from(e: sass::SassError) -> Self {
        NvbitError::Encode(e)
    }
}

impl From<gpu::GpuError> for NvbitError {
    fn from(e: gpu::GpuError) -> Self {
        NvbitError::Driver(cuda::DriverError::Gpu(e))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NvbitError>;
