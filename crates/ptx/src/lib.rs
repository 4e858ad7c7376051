//! A PTX-like virtual ISA and backend compiler for the simulated GPU stack.
//!
//! **Paper mapping:** §4.2 — the JIT path that compiles PTX instrumentation
//! functions to SASS at run time, and the driver's module-load JIT for
//! applications shipping embedded PTX.
//!
//! This crate stands in for NVIDIA's PTX + `ptxas`/driver-JIT pipeline. It
//! provides:
//!
//! * a textual, typed, virtual-register IR closely modelled on PTX
//!   ([`ast`], [`parser`]);
//! * a backend compiler ([`compile_module`]) that performs control-flow
//!   analysis, reconvergence-point (`SSY`/`SYNC`) placement, linear-scan
//!   register allocation and instruction selection down to encoded SASS for
//!   any [`sass::Arch`];
//! * a reference interpreter ([`interp`]) with SIMT semantics, used for
//!   differential testing of the compiler and simulator;
//! * per-function metadata (register counts, stack sizes, call relocations,
//!   source-line tables) that the driver and the NVBit core consume.
//!
//! # Example
//!
//! ```
//! use ptx::compile_module;
//! use sass::Arch;
//!
//! let src = r#"
//! .entry scale_by_two(.param .u64 buf, .param .u32 n)
//! {
//!     .reg .u32 %r<4>;
//!     .reg .u64 %rd<3>;
//!     .reg .pred %p<2>;
//!     ld.param.u64 %rd1, [buf];
//!     ld.param.u32 %r1, [n];
//!     mov.u32 %r2, %tid.x;
//!     setp.ge.u32 %p1, %r2, %r1;
//!     @%p1 bra DONE;
//!     mul.wide.u32 %rd2, %r2, 4;
//!     add.u64 %rd2, %rd1, %rd2;
//!     ld.global.u32 %r3, [%rd2];
//!     add.u32 %r3, %r3, %r3;
//!     st.global.u32 [%rd2], %r3;
//! DONE:
//!     exit;
//! }
//! "#;
//! let module = compile_module(src, Arch::Volta).unwrap();
//! let f = &module.functions[0];
//! assert_eq!(f.name, "scale_by_two");
//! assert!(f.reg_count > 0);
//! assert!(!f.code.is_empty());
//! ```

pub mod ast;
pub mod cfg;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod regalloc;
pub mod types;

use sass::Arch;

pub use ast::{Function, FunctionKind, Module, PtxInstr, PtxOp, Statement};
pub use types::PtxType;

/// Errors from parsing, verification or compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum PtxError {
    /// Lexical or syntactic error with 1-based line number.
    Parse {
        /// Source line of the failure.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// Semantic error (undeclared register, type mismatch, bad operand).
    Semantic {
        /// Function in which the error occurred, if known.
        function: String,
        /// Explanation.
        reason: String,
    },
    /// The function needs more physical registers than the target provides.
    OutOfRegisters {
        /// Function that failed to allocate.
        function: String,
        /// Number of simultaneously-live 32-bit register slots required.
        required: usize,
    },
    /// Instruction selection produced SASS that the target family cannot
    /// encode (compiler bug: legalization should prevent this).
    Encode {
        /// Function being encoded.
        function: String,
        /// Underlying ISA error.
        source: sass::SassError,
    },
    /// The interpreter trapped (bad memory access, unsupported pattern).
    Interp {
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for PtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtxError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
            PtxError::Semantic { function, reason } => {
                write!(f, "semantic error in `{function}`: {reason}")
            }
            PtxError::OutOfRegisters { function, required } => write!(
                f,
                "function `{function}` requires {required} register slots, exceeding the target"
            ),
            PtxError::Encode { function, source } => {
                write!(f, "encoding failure in `{function}`: {source}")
            }
            PtxError::Interp { reason } => write!(f, "interpreter trap: {reason}"),
        }
    }
}

impl std::error::Error for PtxError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PtxError>;

/// A relocation record: instruction `instr_index` of the function holds an
/// absolute call/jump whose target is the load address of `target`.
///
/// Produced for `call` instructions; the module loader patches the operand
/// once target load addresses are known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reloc {
    /// Index (not byte offset) of the instruction to patch.
    pub instr_index: usize,
    /// Name of the function whose entry address is the operand value.
    pub target: String,
}

/// Layout of one kernel parameter in constant bank 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamInfo {
    /// Parameter name.
    pub name: String,
    /// Byte size (4 or 8).
    pub size: u32,
    /// Byte offset from the parameter-area base.
    pub offset: u32,
}

/// One entry of the source-correlation table: a SASS instruction index and
/// the source position it descends from (paper: `Instr::getLineInfo`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineInfo {
    /// SASS instruction index within the function body.
    pub instr_index: usize,
    /// Source file name.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
}

/// A function compiled to target SASS, plus the metadata the driver and the
/// instrumentation framework need.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Function name.
    pub name: String,
    /// Whether this is a kernel entry point or a callable device function.
    pub kind: FunctionKind,
    /// Target architecture the code was generated for.
    pub arch: Arch,
    /// Encoded SASS bytes ready to load into device memory.
    pub code: Vec<u8>,
    /// Number of general-purpose registers used (highest index + 1).
    pub reg_count: u32,
    /// Per-thread local-memory stack bytes required.
    pub stack_size: u32,
    /// Static shared-memory bytes required.
    pub shared_size: u32,
    /// Kernel parameter layout (entry functions only).
    pub params: Vec<ParamInfo>,
    /// Call relocations to patch at load time, one per call in call order:
    /// the function's call edges (paper: `nvbit_get_related_funcs`).
    pub relocs: Vec<Reloc>,
    /// Source correlation table; empty when compiled without `.loc`.
    pub line_table: Vec<LineInfo>,
    /// True when the function uses the `nvbit.readreg`/`nvbit.writereg`
    /// device-API intrinsics. Such functions address arbitrary slots of the
    /// register save area at run time, so the instrumentation code generator
    /// must not shrink the save tier below the instrumented function's full
    /// register demand.
    pub uses_reg_api: bool,
}

impl CompiledFunction {
    /// Decodes the function body back into instructions.
    ///
    /// # Panics
    ///
    /// Panics if `code` is corrupt, which cannot happen for values produced
    /// by [`compile_module`].
    pub fn decode(&self) -> Vec<sass::Instruction> {
        sass::codec::codec_for(self.arch)
            .decode_stream(&self.code)
            .expect("compiled code always decodes")
    }
}

/// A compiled module: the unit the driver loads.
#[derive(Debug, Clone)]
pub struct CompiledModule {
    /// Target architecture.
    pub arch: Arch,
    /// Compiled functions in source order.
    pub functions: Vec<CompiledFunction>,
}

impl CompiledModule {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&CompiledFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Parses PTX source into an AST module.
///
/// # Errors
///
/// Returns [`PtxError::Parse`] on malformed source.
pub fn parse_module(src: &str) -> Result<Module> {
    parser::parse(src)
}

/// Parses and compiles PTX source for a target architecture.
///
/// # Errors
///
/// Any of [`PtxError`]'s variants, depending on the failing stage.
pub fn compile_module(src: &str, arch: Arch) -> Result<CompiledModule> {
    compile_ast(&parser::parse(src)?, arch)
}

/// Compiles an already-parsed module.
///
/// # Errors
///
/// See [`compile_module`].
pub fn compile_ast(module: &Module, arch: Arch) -> Result<CompiledModule> {
    let mut functions = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        functions.push(lower::compile_function(&module.names, f, arch)?);
    }
    Ok(CompiledModule { arch, functions })
}
