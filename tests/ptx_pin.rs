//! What the PTX compiler emits, pinned byte for byte.
//!
//! `STANDARD`: FNV-1a over every field of every [`ptx::CompiledFunction`]
//! (or over the error's text, where a source does not compile) for every
//! `workloads::kernels` generator, the fft sources, the library modules,
//! the 32-kernel `alloc_budget` stratum and every tool PTX, on one target
//! of each encoding family. `LEAF`: per tool function (every function of
//! `nvbit_tools::TOOL_PTX` and the fft emulation function), the code bytes
//! and register count of the body the planner classifies, on
//! the same two targets. A compiler change that reorders a tie-break in
//! register allocation or reconvergence planning shows up here as a
//! changed hash for the source it affects.

use ptx::{compile_module, CompiledModule};
use sass::codec::codec_for;
use sass::Arch;
use workloads::{fft, kernels};

mod shared;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_module(h: &mut Fnv, m: &CompiledModule) {
    h.num(m.functions.len() as u64);
    for f in &m.functions {
        h.text(&f.name);
        h.num(f.kind as u64);
        h.num(f.code.len() as u64);
        h.bytes(&f.code);
        h.num(u64::from(f.reg_count));
        h.num(u64::from(f.stack_size));
        h.num(u64::from(f.shared_size));
        h.num(f.params.len() as u64);
        for p in &f.params {
            h.text(&p.name);
            h.num(u64::from(p.size));
            h.num(u64::from(p.offset));
        }
        h.num(f.relocs.len() as u64);
        for r in &f.relocs {
            h.num(r.instr_index as u64);
            h.text(&r.target);
        }
        // The callees, each once in first-call order: the pinned hashes
        // cover this list.
        let mut callees: Vec<&str> = Vec::new();
        for r in &f.relocs {
            if !callees.contains(&r.target.as_str()) {
                callees.push(&r.target);
            }
        }
        h.num(callees.len() as u64);
        callees.iter().for_each(|r| h.text(r));
        h.num(f.line_table.len() as u64);
        for l in &f.line_table {
            h.num(l.instr_index as u64);
            h.text(&l.file);
            h.num(u64::from(l.line));
        }
        h.num(u64::from(f.uses_reg_api));
    }
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FAMILIES: [Arch; 2] = [Arch::Pascal, Arch::Volta];

/// One hash per source under the standard ABI on both encoding families.
fn pin(src: &str) -> u64 {
    let mut h = Fnv(SEED);
    for arch in FAMILIES {
        match compile_module(src, arch) {
            Ok(m) => hash_module(&mut h, &m),
            Err(e) => h.text(&e.to_string()),
        }
    }
    h.0
}

/// `(function, code, reg_count)` of each leaf body `src` compiles to.
fn leaf_bodies(src: &str, arch: Arch) -> Vec<(String, Vec<u8>, u32)> {
    let m = compile_module(src, arch).unwrap();
    let code = |f: &ptx::CompiledFunction| codec_for(arch).encode_stream(&f.leaf_body().unwrap());
    m.functions.iter().map(|f| (f.name.clone(), code(f).unwrap(), f.reg_count)).collect()
}

/// One hash per tool function: its leaf body on both encoding families.
fn leaf_pins() -> Vec<(String, u64)> {
    let tools = nvbit_tools::TOOL_PTX.iter().map(|(n, s)| (*n, s.to_string()));
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (source, src) in tools.chain([("wfft_emu_function", fft::wfft_emu_function_ptx())]) {
        let per_arch: Vec<_> = FAMILIES.iter().map(|&arch| leaf_bodies(&src, arch)).collect();
        for k in 0..per_arch[0].len() {
            let mut h = Fnv(SEED);
            for bodies in &per_arch {
                let (_, code, reg_count) = &bodies[k];
                h.num(code.len() as u64);
                h.bytes(code);
                h.num(u64::from(*reg_count));
            }
            rows.push((format!("{source}/{}", per_arch[0][k].0), h.0));
        }
    }
    rows
}

/// Asserts `got` equals `pinned` row for row, listing `got` on a mismatch.
fn assert_pinned(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let listing: String = got.iter().map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n")).collect();
    assert_eq!(got.len(), pinned.len(), "recorded:\n{listing}");
    for ((name, hash), (pname, phash)) in got.iter().zip(pinned) {
        assert_eq!((name.as_str(), *hash), (*pname, *phash), "recorded:\n{listing}");
    }
}

fn sources() -> Vec<(String, String)> {
    let mut all: Vec<(String, String)> = vec![
        ("stencil5".into(), kernels::stencil5("k")),
        ("trig_map/1".into(), kernels::trig_map("k", 1)),
        ("trig_map/7".into(), kernels::trig_map("k", 7)),
        ("axpby".into(), kernels::axpby("k")),
        ("rng_hist/3".into(), kernels::rng_hist("k", 3)),
        ("rng_hist/16".into(), kernels::rng_hist("k", 16)),
        ("spmv_csr".into(), kernels::spmv_csr("k")),
        ("md_force".into(), kernels::md_force("k")),
        ("lbm_stream/6".into(), kernels::lbm_stream("k", 6)),
        ("lbm_stream/19".into(), kernels::lbm_stream("k", 19)),
        ("reduce_sum".into(), kernels::reduce_sum("k")),
        ("line_sweep".into(), kernels::line_sweep("k")),
        ("transpose_naive".into(), kernels::transpose_naive("k")),
        ("gather".into(), kernels::gather("k")),
        ("wfft_kernel".into(), fft::wfft_kernel_ptx()),
        ("soft_fft_kernel".into(), fft::soft_fft_kernel_ptx()),
        ("wfft_emu_function".into(), fft::wfft_emu_function_ptx()),
        ("cublas".into(), accel::cublas::ptx_source()),
        ("cudnn".into(), accel::cudnn::ptx_source()),
        ("stratum".into(), shared::stratum().0),
    ];
    // Every `short_unique` shape the generator has (the variant picks the
    // instruction mix) in one module, as `jit_unique` loads them.
    let uniq: String = (0..64).map(|v| kernels::short_unique(&format!("u{v}"), v)).collect();
    all.push(("short_unique/0..64".into(), uniq));
    all.extend(nvbit_tools::TOOL_PTX.iter().map(|(n, s)| (format!("tool/{n}"), s.to_string())));
    all
}

#[test]
fn compiled_modules_are_byte_identical_to_the_parent_commit() {
    let got: Vec<(String, u64)> = sources().into_iter().map(|(n, s)| (n, pin(&s))).collect();
    assert_pinned(&got, &STANDARD);
}

#[test]
fn splice_bodies_are_byte_identical_to_the_parent_commit() {
    assert_pinned(&leaf_pins(), &LEAF);
}

/// Every source under the standard ABI on Pascal and Volta, recorded at the
/// commit that still compiled tool functions under a second, scratch ABI.
const STANDARD: [(&str, u64); 26] = [
    ("stencil5", 0xadd2_1b8b_bff6_07a3),
    ("trig_map/1", 0x893a_a8b4_20fa_e5c5),
    ("trig_map/7", 0xf238_ee60_e5b3_4749),
    ("axpby", 0xb8ea_9e86_3a95_021a),
    ("rng_hist/3", 0xb246_0c26_003f_6806),
    ("rng_hist/16", 0xd19a_230d_1dd3_6a76),
    ("spmv_csr", 0xcc53_3cc3_b8ae_f50c),
    ("md_force", 0x7f30_6a5a_81a0_11ec),
    ("lbm_stream/6", 0x285d_eb59_e1b8_a6bc),
    ("lbm_stream/19", 0xb400_b1cd_9963_3120),
    ("reduce_sum", 0x0811_c995_923c_3745),
    ("line_sweep", 0x5252_4d9c_b101_080e),
    ("transpose_naive", 0xb6be_ad6a_5d23_7ed8),
    ("gather", 0x4fa4_42c1_f67a_e97e),
    ("wfft_kernel", 0xb621_ee12_01c1_0fdd),
    ("soft_fft_kernel", 0x1632_7abb_c4a9_df3a),
    ("wfft_emu_function", 0xb397_a8c7_7eb7_46b2),
    ("cublas", 0xd453_9b8b_ef98_e1bd),
    ("cudnn", 0xdf53_a027_0a41_0295),
    ("stratum", 0x7c4f_0738_be48_6376),
    ("short_unique/0..64", 0xbbb7_d945_e366_2fa1),
    ("tool/COUNT_PMULT_FN", 0xa517_aab7_8dc8_6d22),
    ("tool/COUNT_WIDE_FN", 0xfd5e_bfde_8d26_2c10),
    ("tool/MDIV_FN", 0xef42_627e_1811_46b8),
    ("tool/TRACE_CHAN_FN", 0x6936_2d5e_c42f_0720),
    ("tool/FLIP_FN", 0x5327_b61e_3401_e281),
];

/// Every tool function's leaf body (the body a retired splice rung copied
/// into the trampoline, hence the test's name) on Pascal and Volta,
/// recorded as the scratch-ABI compile of the same commit.
const LEAF: [(&str, u64); 6] = [
    ("COUNT_PMULT_FN/nvbit_count_pmult", 0x1636_5d37_00cd_69ec),
    ("COUNT_WIDE_FN/nvbit_count_wide", 0x083c_5eae_8357_a6b3),
    ("MDIV_FN/nvbit_mdiv", 0xb485_9f73_2767_af51),
    ("TRACE_CHAN_FN/nvbit_trace_chan", 0x8ff9_40ae_f3f7_9aec),
    ("FLIP_FN/nvbit_flip", 0xaca4_fb01_5774_994d),
    ("wfft_emu_function/wfft32_emu", 0x987f_5ed5_5d63_d929),
];
