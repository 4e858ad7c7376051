//! What the PTX compiler emits, pinned byte for byte.
//!
//! FNV-1a over every field of every [`ptx::CompiledFunction`] (or over the
//! error's text, where a source does not compile under an ABI) for every
//! `workloads::kernels` generator, the fft sources, the library modules,
//! the 32-kernel `alloc_budget` stratum and every tool PTX — each under
//! `Abi::Standard` and `Abi::Scratch`, on one target of each encoding
//! family. The values were recorded at the commit before the front end
//! moved to borrowed tokens and dense ids; a front-end change that
//! reorders a tie-break in register allocation or reconvergence planning
//! shows up here as a changed hash for the source it affects.

use ptx::{compile_module_abi, Abi, CompiledModule};
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
        h.num(f.related.len() as u64);
        f.related.iter().for_each(|r| h.text(r));
        h.num(f.line_table.len() as u64);
        for l in &f.line_table {
            h.num(l.instr_index as u64);
            h.text(&l.file);
            h.num(u64::from(l.line));
        }
        h.num(u64::from(f.uses_reg_api));
    }
}

/// One hash per source: both ABIs on both encoding families.
fn pin(src: &str) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for abi in [Abi::Standard, Abi::Scratch] {
        for arch in [Arch::Pascal, Arch::Volta] {
            match compile_module_abi(src, arch, abi) {
                Ok(m) => hash_module(&mut h, &m),
                Err(e) => h.text(&e.to_string()),
            }
        }
    }
    h.0
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
    let listing: String = got.iter().map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n")).collect();
    assert_eq!(got.len(), PARENT.len(), "recorded:\n{listing}");
    for ((name, hash), (pname, phash)) in got.iter().zip(PARENT) {
        assert_eq!((name.as_str(), *hash), (pname, phash), "recorded:\n{listing}");
    }
}

const PARENT: [(&str, u64); 29] = [
    ("stencil5", 0xc49b_0249_2bb6_5111),
    ("trig_map/1", 0xe363_429c_382e_e465),
    ("trig_map/7", 0x116b_de50_755e_690d),
    ("axpby", 0x16b2_a0fd_2545_d1bd),
    ("rng_hist/3", 0x63a2_03c8_6f4a_6581),
    ("rng_hist/16", 0x6161_825d_a616_8171),
    ("spmv_csr", 0x4696_a53e_fea7_95bd),
    ("md_force", 0x7fe1_a965_8fe7_e545),
    ("lbm_stream/6", 0x70b5_7f95_7c59_27c1),
    ("lbm_stream/19", 0x7270_7587_d1b7_c239),
    ("reduce_sum", 0x11d2_4a27_b304_7a25),
    ("line_sweep", 0xa0d3_1f67_434a_5841),
    ("transpose_naive", 0x8757_ff03_3e32_b603),
    ("gather", 0xd27f_7fa3_531c_1ca9),
    ("wfft_kernel", 0x095c_1329_3585_0135),
    ("soft_fft_kernel", 0x110d_552a_0baf_d67b),
    ("wfft_emu_function", 0x211d_6ec8_8b11_cf92),
    ("cublas", 0x82e3_4d0b_0c7c_2251),
    ("cudnn", 0x69f4_e7f8_303b_ee48),
    ("stratum", 0x5465_45d8_08a5_e5cd),
    ("short_unique/0..64", 0x324d_0eb7_363d_f41d),
    ("tool/COUNT_FN", 0xf92e_0136_206c_ea8d),
    ("tool/COUNT_BB_FN", 0x9443_965d_89a1_d19d),
    ("tool/COUNT_MULT_FN", 0x3aa4_68a2_8684_9785),
    ("tool/COUNT_PMULT_FN", 0xbcb1_dccd_41c3_21e1),
    ("tool/COUNT_WIDE_FN", 0x2b75_14ad_0538_4866),
    ("tool/MDIV_FN", 0x99c9_bd01_55f1_4f4c),
    ("tool/TRACE_CHAN_FN", 0x1662_006a_36f4_0449),
    ("tool/FLIP_FN", 0x3481_13f2_e70d_751d),
];
