//! A SASS-like machine ISA for a simulated NVIDIA-style GPU.
//!
//! **Paper mapping:** §2 (background) — the SASS assembly level that NVBit
//! operates on, below PTX, where pre-compiled libraries and JIT-generated
//! code are indistinguishable.
//!
//! This crate is the bottom layer of the NVBit reproduction stack. It defines
//! a fixed-width, binary-encoded machine instruction set with the structural
//! properties that NVBit's mechanisms depend on:
//!
//! * two **encoding families** — [`codec::ENC64`] (8-byte instructions, used
//!   by the Kepler/Maxwell/Pascal-class architectures) and [`codec::ENC128`]
//!   (16-byte instructions, used by the Volta-class architecture) — so that a
//!   hardware abstraction layer is genuinely required above it;
//! * a register file of up to 255 general-purpose registers plus the zero
//!   register `RZ`, and 7 predicate registers plus the always-true `PT`;
//! * guarded (predicated) execution on every instruction;
//! * relative and absolute control flow, calls, and a reconvergence-stack
//!   discipline (`SSY`/`SYNC`);
//! * loads and stores against global, shared, local and constant memory.
//!
//! The crate provides the ISA definition ([`Instruction`], [`Op`],
//! [`Operand`]), binary encoders/decoders per family ([`codec`]), a textual
//! assembler and disassembler ([`asm`]), basic-block partitioning
//! ([`mod@cfg`]), liveness dataflow analysis ([`mod@dataflow`]),
//! dominator/post-dominator analysis with coalescing-region enumeration
//! ([`mod@dom`]) — bundled per function body as one [`Analysis`] — and the
//! save-tier ladder with the tool-body shape classifier that decides which
//! tool bodies are spliceable, the precondition of effect lowering
//! ([`mod@pressure`]).
//!
//! # Example
//!
//! ```
//! use sass::{Arch, asm, codec::codec_for};
//!
//! let prog = asm::assemble(
//!     "MOV32I R0, 0x2a ;\n\
//!      EXIT ;",
//! ).unwrap();
//! let codec = codec_for(Arch::Volta);
//! let bytes = codec.encode_stream(&prog).unwrap();
//! assert_eq!(bytes.len(), 2 * Arch::Volta.instruction_size());
//! let back = codec.decode_stream(&bytes).unwrap();
//! assert_eq!(prog, back);
//! ```

pub mod analysis;
pub mod arch;
pub mod asm;
pub mod cfg;
pub mod codec;
pub mod dataflow;
pub mod dom;
pub mod inst;
pub mod op;
pub mod pressure;
pub mod reg;

pub use analysis::Analysis;
pub use arch::{Arch, EncodingFamily};
pub use cfg::CfgFailure;
pub use dataflow::{Dataflow, LiveSet, RegSet};
pub use dom::Dom;
pub use inst::{Guard, Instruction, MemSpace, Mods, Operand, Width};
pub use op::{CmpOp, Op, OpCategory, SubOp};
pub use pressure::BodyShape;
pub use reg::{Pred, Reg, SpecialReg};

/// Offset of the kernel parameter area within constant bank 0, matching the
/// real CUDA ABI's `c[0x0][0x160]`: where a launch writes the parameters
/// and where compiled code reads them.
pub const PARAM_BASE: u16 = 0x160;

/// Errors produced by the assembler, codecs and CFG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SassError {
    /// A field value does not fit in the encoding of the selected family
    /// (for example a 32-bit immediate in an `Enc64` arithmetic form).
    FieldRange {
        /// Instruction that failed to encode, in disassembled form.
        instr: String,
        /// Description of the offending field.
        field: &'static str,
    },
    /// The byte stream does not decode to a valid instruction.
    BadEncoding {
        /// Byte offset of the undecodable word.
        offset: usize,
        /// Explanation of the failure.
        reason: String,
    },
    /// The byte stream length is not a multiple of the instruction size.
    TruncatedStream {
        /// Total length of the stream handed to the decoder.
        len: usize,
        /// Instruction size of the decoding family.
        instr_size: usize,
    },
    /// A textual assembly parse error.
    Parse {
        /// 1-based source line of the error.
        line: usize,
        /// Explanation of the failure.
        reason: String,
    },
    /// The instruction's operand list does not match its opcode's format.
    BadOperands {
        /// Instruction in disassembled form.
        instr: String,
        /// Explanation of the mismatch.
        reason: String,
    },
}

impl std::fmt::Display for SassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SassError::FieldRange { instr, field } => {
                write!(f, "field `{field}` out of range while encoding `{instr}`")
            }
            SassError::BadEncoding { offset, reason } => {
                write!(f, "bad encoding at byte offset {offset}: {reason}")
            }
            SassError::TruncatedStream { len, instr_size } => write!(
                f,
                "stream of {len} bytes is not a multiple of the instruction size {instr_size}"
            ),
            SassError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
            SassError::BadOperands { instr, reason } => {
                write!(f, "bad operands for `{instr}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SassError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SassError>;
