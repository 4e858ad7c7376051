//! The guest applications, as data.
//!
//! An [`App`] is everything the program under test receives: one PTX
//! module, the initial device buffers and the launch sequence. Nothing here
//! calls the simulator — the same description is executed natively, under a
//! tool, and by the PTX reference interpreter, and the runner knows every
//! output buffer because every buffer is listed.
//!
//! The seed drives input values, the `md` positions (which decide the
//! cutoff branch), the `cg` sparsity pattern and the `jit_unique` kernel
//! draw. Work per seed is kept level (fixed problem sizes, stratified
//! kernel draw) so that a timing difference between two seeds is noise, not
//! a different workload.

use crate::adapter::{kernel_source, Kernel, Rng};

/// One kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Pointer `offset` bytes into buffer `buf` of the same app.
    Ptr {
        buf: usize,
        offset: u64,
    },
    U32(u32),
    F32(f32),
}

/// One `cuLaunchKernel`: 1-D blocks on an up-to-2-D grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Launch {
    /// Index into [`App::kernels`].
    pub kernel: usize,
    pub grid: (u32, u32),
    pub block: u32,
    pub args: Vec<Arg>,
}

/// A guest application.
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    pub name: String,
    /// The PTX module text.
    pub source: String,
    /// Entry names looked up with `cuModuleGetFunction`, in first-use order.
    pub kernels: Vec<String>,
    /// Initial contents of every device buffer; all are read back and
    /// compared after the run.
    pub buffers: Vec<Vec<u8>>,
    pub launches: Vec<Launch>,
}

/// Problem size of the SpecAccel-style analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Elements (the suite's "Medium" is 16 Ki).
    pub n: u32,
    /// Outer iterations.
    pub iters: u32,
}

const BLOCK: u32 = 128;

fn ptr(buf: usize) -> Arg {
    Arg::Ptr { buf, offset: 0 }
}

fn f32_bytes(vals: impl IntoIterator<Item = f32>) -> Vec<u8> {
    vals.into_iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

fn u32_bytes(vals: &[u32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn random_f32(rng: &mut Rng, n: u32, lo: f32, hi: f32) -> Vec<u8> {
    f32_bytes((0..n).map(|_| lo + (hi - lo) * rng.gen_f32()))
}

fn zeros(n: u32) -> Vec<u8> {
    vec![0u8; n as usize * 4]
}

fn module(sources: &[String]) -> String {
    format!(".version 6.0\n{}", sources.join("\n"))
}

fn grid1d(n: u32) -> (u32, u32) {
    (n.div_ceil(BLOCK).max(1), 1)
}

/// A random CSR pattern. Row lengths cycle through 1..`max_len` in a
/// seeded order and columns are uniform, so the seed decides which rows of a
/// warp run long and what they touch, while the number of non-zeros — the
/// work — is the same for every seed.
fn random_csr(rng: &mut Rng, rows: u32, max_len: u32) -> (Vec<u32>, Vec<u32>) {
    let mut lens: Vec<u32> = (0..rows).map(|r| 1 + r % (max_len - 1)).collect();
    rng.shuffle(&mut lens);
    let mut rowptr = vec![0u32];
    let mut cols = Vec::new();
    for len in lens {
        cols.extend((0..len).map(|_| rng.gen_range(0..rows)));
        rowptr.push(cols.len() as u32);
    }
    (rowptr, cols)
}

/// `ostencil` analog: ping-pong 5-point Jacobi steps.
pub fn ostencil(rng: &mut Rng, s: Scale) -> App {
    let w = 128u32;
    let h = (s.n / w).max(4);
    let launches = (0..s.iters)
        .map(|it| {
            let (src, dst) = if it % 2 == 0 { (0, 1) } else { (1, 0) };
            Launch {
                kernel: 0,
                grid: (h - 2, (w - 2).div_ceil(BLOCK)),
                block: BLOCK,
                args: vec![ptr(src), ptr(dst), Arg::U32(h), Arg::U32(w)],
            }
        })
        .collect();
    App {
        name: "ostencil".into(),
        source: module(&[kernel_source(Kernel::Stencil5, "stencil_step")]),
        kernels: vec!["stencil_step".into()],
        buffers: vec![random_f32(rng, h * w, 0.0, 16.0), zeros(h * w)],
        launches,
    }
}

/// `olbm` analog: 8-direction streaming step then an axpby collide.
pub fn olbm(rng: &mut Rng, s: Scale) -> App {
    let n = s.n;
    let mut launches = Vec::new();
    for _ in 0..s.iters {
        launches.push(Launch {
            kernel: 0,
            grid: grid1d(n),
            block: BLOCK,
            args: vec![ptr(0), ptr(1), Arg::U32(n)],
        });
        launches.push(Launch {
            kernel: 1,
            grid: grid1d(n),
            block: BLOCK,
            args: vec![ptr(1), ptr(0), ptr(0), Arg::U32(n), Arg::F32(0.8), Arg::F32(0.2)],
        });
    }
    App {
        name: "olbm".into(),
        source: module(&[
            kernel_source(Kernel::LbmStream(8), "lbm_stream"),
            kernel_source(Kernel::Axpby, "lbm_collide"),
        ]),
        kernels: vec!["lbm_stream".into(), "lbm_collide".into()],
        buffers: vec![random_f32(rng, n + 16, 0.0, 1.0), zeros(n + 16)],
        launches,
    }
}

/// `md` analog: neighbour-loop force kernel with a data-dependent cutoff
/// branch, then a position update.
pub fn md(rng: &mut Rng, s: Scale) -> App {
    let n = s.n / 4;
    let mut launches = Vec::new();
    for _ in 0..s.iters {
        launches.push(Launch {
            kernel: 0,
            grid: grid1d(n),
            block: BLOCK,
            args: vec![ptr(0), ptr(1), Arg::U32(n), Arg::U32(16), Arg::F32(0.5)],
        });
        launches.push(Launch {
            kernel: 1,
            grid: grid1d(n),
            block: BLOCK,
            args: vec![ptr(0), ptr(1), ptr(0), Arg::U32(n), Arg::F32(1.0), Arg::F32(0.01)],
        });
    }
    App {
        name: "md".into(),
        source: module(&[
            kernel_source(Kernel::MdForce, "md_force"),
            kernel_source(Kernel::Axpby, "md_update"),
        ]),
        kernels: vec!["md_force".into(), "md_update".into()],
        buffers: vec![random_f32(rng, n, -1.0, 1.0), zeros(n)],
        launches,
    }
}

/// `cg` analog: CSR SpMV (data-dependent trip counts), a dot-product
/// reduction and an axpy, per iteration.
pub fn cg(rng: &mut Rng, s: Scale) -> App {
    let rows = s.n / 8;
    let (rowptr, cols) = random_csr(rng, rows, 16);
    let nnz = cols.len() as u32;
    let mut launches = Vec::new();
    for _ in 0..s.iters {
        launches.push(Launch {
            kernel: 0,
            grid: grid1d(rows),
            block: BLOCK,
            args: vec![ptr(0), ptr(1), ptr(2), ptr(3), ptr(4), Arg::U32(rows)],
        });
        launches.push(Launch {
            kernel: 1,
            grid: grid1d(rows),
            block: BLOCK,
            args: vec![ptr(4), ptr(5), Arg::U32(rows)],
        });
        launches.push(Launch {
            kernel: 2,
            grid: grid1d(rows),
            block: BLOCK,
            args: vec![ptr(3), ptr(4), ptr(3), Arg::U32(rows), Arg::F32(0.99), Arg::F32(0.01)],
        });
    }
    App {
        name: "cg".into(),
        source: module(&[
            kernel_source(Kernel::SpmvCsr, "cg_spmv"),
            kernel_source(Kernel::ReduceSum, "cg_dot"),
            kernel_source(Kernel::Axpby, "cg_axpy"),
        ]),
        kernels: vec!["cg_spmv".into(), "cg_dot".into(), "cg_axpy".into()],
        buffers: vec![
            u32_bytes(&rowptr),
            u32_bytes(&cols),
            random_f32(rng, nnz, 0.0, 1.0),
            random_f32(rng, rows, 0.5, 1.5),
            zeros(rows),
            zeros(1),
        ],
        launches,
    }
}

/// The four SpecAccel-style analogs `exec_spec` and `sample_swap` run.
pub fn spec_apps(seed: u64, s: Scale) -> Vec<App> {
    let mut rng = Rng::seed_from_u64(seed);
    vec![ostencil(&mut rng, s), md(&mut rng, s), cg(&mut rng, s), olbm(&mut rng, s)]
}

/// The two memory-heavy analogs `trace_chan` runs.
pub fn trace_apps(seed: u64, s: Scale) -> Vec<App> {
    let mut rng = Rng::seed_from_u64(seed);
    vec![cg(&mut rng, s), ostencil(&mut rng, s)]
}

/// Kernels per stratum of the `jit_unique` draw: 27 `short_unique` variants
/// and one renamed copy of each loop/diamond/guarded-exit body.
const STRATUM: usize = 32;
const SHORT_PER_STRATUM: usize = STRATUM - 5;

/// Bytes of output each `jit_unique` kernel owns (room for the 3×34
/// stencil tile).
const OUT_SLICE: u64 = 512;

/// Threads per `jit_unique` launch: one warp, so the executor's share stays
/// below the JIT's (README "Sizing").
const UNIQUE_THREADS: u32 = 32;

/// `jit_unique`: one module of `count` unique short kernels, each launched
/// once on 1 CTA × 32 threads. The seed picks the `short_unique` variants
/// and the order; the *mix* is the same for every seed (per 32 kernels: 27
/// short variants, one each of stencil5 / spmv_csr / md_force / lbm_stream
/// / reduce_sum), so the amount of JIT and execution work is level.
pub fn jit_unique(seed: u64, count: usize) -> App {
    assert!(count.is_multiple_of(STRATUM), "kernel count must be a multiple of {STRATUM}");
    let mut rng = Rng::seed_from_u64(seed ^ 0x6a69_745f_756e_6971);
    let mut variants: Vec<u32> = (0..4096).collect();
    rng.shuffle(&mut variants);
    let mut kinds: Vec<Kernel> = Vec::with_capacity(count);
    for stratum in 0..count / STRATUM {
        let short = &variants[stratum * SHORT_PER_STRATUM..][..SHORT_PER_STRATUM];
        kinds.extend(short.iter().map(|&v| Kernel::ShortUnique(v)));
        kinds.extend([
            Kernel::Stencil5,
            Kernel::SpmvCsr,
            Kernel::MdForce,
            Kernel::LbmStream(4 + (stratum % 5) as u32),
            Kernel::ReduceSum,
        ]);
    }
    rng.shuffle(&mut kinds);

    let n = UNIQUE_THREADS;
    let w = n + 2; // stencil tile width: columns 1..=n are interior
    let (rowptr, cols) = random_csr(&mut rng, n, 8);
    // Buffers: 0 in/out tiles of the short kernels, 1 output slices,
    // 2 stencil input, 3..=6 CSR + x, 7 md positions, 8 lbm input.
    let buffers = vec![
        random_f32(&mut rng, count as u32 * n, 0.0, 1.0),
        vec![0u8; count * OUT_SLICE as usize],
        random_f32(&mut rng, 3 * w, 0.0, 16.0),
        u32_bytes(&rowptr),
        u32_bytes(&cols),
        random_f32(&mut rng, cols.len() as u32, 0.0, 1.0),
        random_f32(&mut rng, n, 0.5, 1.5),
        random_f32(&mut rng, n, -1.0, 1.0),
        random_f32(&mut rng, n + 16, 0.0, 1.0),
    ];

    let mut sources = Vec::with_capacity(count);
    let mut kernels = Vec::with_capacity(count);
    let mut launches = Vec::with_capacity(count);
    for (i, kind) in kinds.iter().enumerate() {
        let name = format!("uk{i}");
        sources.push(kernel_source(*kind, &name));
        kernels.push(name);
        let out = Arg::Ptr { buf: 1, offset: i as u64 * OUT_SLICE };
        let args = match kind {
            Kernel::ShortUnique(_) => {
                vec![Arg::Ptr { buf: 0, offset: i as u64 * u64::from(n) * 4 }, Arg::U32(n)]
            }
            Kernel::Stencil5 => vec![ptr(2), out, Arg::U32(3), Arg::U32(w)],
            Kernel::SpmvCsr => vec![ptr(3), ptr(4), ptr(5), ptr(6), out, Arg::U32(n)],
            Kernel::MdForce => vec![ptr(7), out, Arg::U32(n), Arg::U32(4), Arg::F32(0.5)],
            Kernel::LbmStream(_) => vec![ptr(8), out, Arg::U32(n)],
            Kernel::ReduceSum => vec![ptr(6), out, Arg::U32(n)],
            Kernel::Axpby => unreachable!("not part of the draw"),
        };
        launches.push(Launch { kernel: i, grid: (1, 1), block: UNIQUE_THREADS, args });
    }
    App { name: "jit_unique".into(), source: module(&sources), kernels, buffers, launches }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale { n: 1024, iters: 2 };

    #[test]
    fn same_seed_gives_identical_ptx_and_inputs() {
        assert_eq!(spec_apps(7, SMALL), spec_apps(7, SMALL));
        assert_eq!(trace_apps(7, SMALL), trace_apps(7, SMALL));
        assert_eq!(jit_unique(7, 32), jit_unique(7, 32));
    }

    #[test]
    fn a_different_seed_changes_inputs_but_not_sizes() {
        let (a, b) = (spec_apps(1, SMALL), spec_apps(2, SMALL));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source, "{}: PTX is seed-independent", x.name);
            assert_eq!(x.launches.len(), y.launches.len());
            assert_ne!(x.buffers, y.buffers, "{}: inputs follow the seed", x.name);
        }
    }

    #[test]
    fn a_different_seed_draws_different_unique_kernels() {
        let (a, b) = (jit_unique(1, 64), jit_unique(2, 64));
        assert_ne!(a.source, b.source);
        assert_eq!(a.kernels, b.kernels);
        assert_eq!(a.launches.len(), 64);
        // Level mix: the same number of launches per argument shape.
        let shape = |app: &App| {
            let mut v: Vec<usize> = app.launches.iter().map(|l| l.args.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn every_pointer_argument_stays_inside_its_buffer() {
        let mut apps = spec_apps(3, SMALL);
        apps.push(jit_unique(3, 32));
        for app in &apps {
            for l in &app.launches {
                assert!(l.kernel < app.kernels.len());
                for a in &l.args {
                    if let Arg::Ptr { buf, offset } = a {
                        assert!((*offset as usize) < app.buffers[*buf].len(), "{}", app.name);
                    }
                }
            }
        }
    }
}
