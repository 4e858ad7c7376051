//! A functional SIMT GPU simulator that executes encoded SASS.
//!
//! **Paper mapping:** §2 (GPU background) and §5 — the execution substrate
//! on which every instrumented kernel and every overhead measurement runs.
//!
//! This crate stands in for the GPU hardware in the NVBit reproduction
//! stack. Its defining property is that it executes **encoded instruction
//! bytes fetched from simulated device memory** — the same memory the driver
//! loads modules into and that NVBit patches with trampolines and code
//! swaps. A mispatched branch is an execution fault here, not a silently
//! ignored IR edit.
//!
//! Architectural model:
//!
//! * warps of 32 threads, per-thread 255×32-bit registers + 7 predicates;
//! * divergence via a runtime SIMT stack driven by `SSY`/`SYNC` (robust to
//!   binary rewriting, unlike a static reconvergence oracle — see
//!   `DESIGN.md`);
//! * per-entry return-address stacks, so calls work under divergence;
//! * global/shared/local/constant memories, warp-serialized atomics;
//! * CTA barriers with round-robin warp scheduling (deterministic);
//! * code is fetched through one device-owned cache of decoded 256-byte
//!   code pages, checked against memory once per page per launch — code
//!   written by the host, by a swap or by a guest store is seen from the
//!   next launch on;
//! * CTAs execute serially or across a scoped thread pool
//!   ([`device::Scheduler`]); statistics (decode counters included) are
//!   bit-identical either way, and device memory too for kernels that
//!   don't observe atomic return values (see `Scheduler`);
//! * an instruction-cost timing model in which global-memory cost grows
//!   with the number of unique cache lines touched per warp access.
//!
//! # Example
//!
//! ```
//! use gpu::{Device, DeviceSpec, LaunchConfig, Dim3};
//! use sass::{Arch, asm, codec::codec_for};
//!
//! let mut dev = Device::new(DeviceSpec::preset(Arch::Volta));
//! // A kernel that stores its lane id to consecutive words of a buffer.
//! let prog = asm::assemble_arch(
//!     "S2R R4, SR_LANEID ;\n\
//!      LDC.64 R6, c[0x0][0x160] ;\n\
//!      SHL R8, R4, 0x2 ;\n\
//!      IADD.U64 R6, R6, R8 ;\n\
//!      STG [R6], R4 ;\n\
//!      EXIT ;",
//!     Arch::Volta,
//! ).unwrap();
//! let code = codec_for(Arch::Volta).encode_stream(&prog).unwrap();
//! let code_addr = dev.alloc(code.len() as u64).unwrap();
//! dev.write(code_addr, &code).unwrap();
//! let buf = dev.alloc(128).unwrap();
//! let mut cfg = LaunchConfig::new(code_addr, Dim3::xyz(1, 1, 1), Dim3::xyz(32, 1, 1));
//! cfg.push_param_u64(buf);
//! let stats = dev.launch(&cfg).unwrap();
//! assert!(stats.warp_instructions >= 6);
//! let mut out = vec![0u8; 128];
//! dev.read(buf, &mut out).unwrap();
//! assert_eq!(u32::from_le_bytes(out[4..8].try_into().unwrap()), 1);
//! ```

pub mod device;
pub mod executor;
pub mod mem;
pub mod spec;
pub mod stats;

pub use device::{Device, LaunchConfig, Origin, Scheduler};
pub use mem::Memory;
pub use spec::{CostModel, DeviceSpec, Dim3};
pub use stats::{ExecStats, LaunchStats, MemStats};

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Device memory exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// Access to an unallocated or out-of-range device address.
    BadAddress {
        /// Offending address.
        addr: u64,
        /// Access size.
        len: u64,
    },
    /// The launch configuration is invalid.
    BadLaunch(String),
    /// An execution fault (decode failure, bad memory access, stack
    /// imbalance, trap, unimplemented proxy instruction, ...).
    Fault {
        /// Program counter of the faulting instruction.
        pc: u64,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfMemory { requested, available } => {
                write!(f, "out of device memory: requested {requested}, available {available}")
            }
            GpuError::BadAddress { addr, len } => {
                write!(f, "bad device address 0x{addr:x} (+{len})")
            }
            GpuError::BadLaunch(s) => write!(f, "bad launch: {s}"),
            GpuError::Fault { pc, reason } => write!(f, "fault at pc 0x{pc:x}: {reason}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GpuError>;
