//! A SpecAccel-like benchmark suite (paper §5.2, §6.2).
//!
//! Fifteen synthetic benchmarks named after the SPEC ACCEL programs the
//! paper evaluates, each reproducing the *structural* property that matters
//! for the experiments:
//!
//! * most benchmarks have grid-dim-determined control flow (zero sampling
//!   error, §6.2);
//! * `md` (and the spmv phase of `cg`) have data-dependent control flow —
//!   the source of non-zero sampling error;
//! * `ilbdc` consists of many unique, short, launched-once kernels — the
//!   worst case for JIT-compilation overhead (Figure 5);
//! * `ep` is atomics-heavy, `omriq` special-function-heavy, the rest are
//!   stencil/sweep mixes.

use crate::kernels as k;
use common::Rng;
use cuda::{CuContext, CuFunction, CuModule, Driver, FatBinary, KernelArg};
use gpu::Dim3;

/// Problem-size classes (the paper uses medium for Figure 5 and large for
/// Figures 7–9; tests use small).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Fast enough for debug-mode unit tests.
    Small,
    /// Figure 5 scale.
    Medium,
    /// Figures 7–9 scale.
    Large,
}

impl Size {
    /// (elements, iterations) scale factors.
    fn scale(self) -> (u32, u32) {
        match self {
            Size::Small => (1 << 11, 2),
            Size::Medium => (1 << 14, 12),
            Size::Large => (1 << 15, 30),
        }
    }
}

/// One benchmark of the suite.
pub struct Benchmark {
    /// Benchmark name (SpecAccel-style).
    pub name: &'static str,
    runner: fn(&Ctx<'_>, Size) -> cuda::Result<()>,
}

impl Benchmark {
    /// Runs the benchmark on a driver (creating its own context/modules).
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn run(&self, drv: &Driver, size: Size) -> cuda::Result<()> {
        (self.runner)(&Ctx::new(drv)?, size)
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Benchmark({})", self.name)
    }
}

/// The full suite, in the paper's reporting order.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark { name: "ostencil", runner: ostencil },
        Benchmark { name: "olbm", runner: olbm },
        Benchmark { name: "omriq", runner: omriq },
        Benchmark { name: "md", runner: md },
        Benchmark { name: "palm", runner: palm },
        Benchmark { name: "ep", runner: ep },
        Benchmark { name: "clvrleaf", runner: clvrleaf },
        Benchmark { name: "cg", runner: cg },
        Benchmark { name: "seismic", runner: seismic },
        Benchmark { name: "sp", runner: sp },
        Benchmark { name: "csp", runner: csp },
        Benchmark { name: "miniGhost", runner: mini_ghost },
        Benchmark { name: "ilbdc", runner: ilbdc },
        Benchmark { name: "swim", runner: swim },
        Benchmark { name: "bt", runner: bt },
    ]
}

/// Finds a benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    suite().into_iter().find(|b| b.name == name)
}

/// A fresh context on one driver, with the module and buffer helpers every
/// application here (and in [`crate::apps`]) shares.
pub(crate) struct Ctx<'a> {
    pub(crate) drv: &'a Driver,
    pub(crate) ctx: CuContext,
    /// What each launch through [`Ctx::launch`] returned, in order.
    #[cfg(test)]
    returned: std::cell::RefCell<Vec<gpu::LaunchStats>>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(drv: &'a Driver) -> cuda::Result<Ctx<'a>> {
        Ok(Ctx {
            drv,
            ctx: drv.ctx_create()?,
            #[cfg(test)]
            returned: Default::default(),
        })
    }

    pub(crate) fn module(&self, name: &str, sources: &[String]) -> cuda::Result<CuModule> {
        let src = format!(".version 6.0\n{}", sources.join("\n"));
        self.drv.module_load(&self.ctx, FatBinary::from_ptx(name, src))
    }

    pub(crate) fn func(&self, m: &CuModule, name: &str) -> cuda::Result<CuFunction> {
        self.drv.module_get_function(m, name)
    }

    pub(crate) fn alloc_f32(&self, n: u32, f: impl Fn(u32) -> f32) -> cuda::Result<u64> {
        let a = self.drv.mem_alloc(n as u64 * 4)?;
        let bytes: Vec<u8> = (0..n).flat_map(|i| f(i).to_bits().to_le_bytes()).collect();
        self.drv.memcpy_htod(a, &bytes)?;
        Ok(a)
    }

    pub(crate) fn alloc_u32(&self, vals: &[u32]) -> cuda::Result<u64> {
        let a = self.drv.mem_alloc(vals.len() as u64 * 4)?;
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.drv.memcpy_htod(a, &bytes)?;
        Ok(a)
    }

    fn launch(&self, f: &CuFunction, grid: Dim3, args: &[KernelArg]) -> cuda::Result<()> {
        let _stats = self.drv.launch_kernel(f, grid, Dim3::linear(128), args)?;
        #[cfg(test)]
        self.returned.borrow_mut().push(_stats);
        Ok(())
    }

    fn launch1d(&self, f: &CuFunction, n: u32, args: &[KernelArg]) -> cuda::Result<()> {
        self.launch(f, Dim3::linear(n.div_ceil(128).max(1)), args)
    }

    /// One sweep of the 2-D stencil `f` from `src` into `dst` over `h` × `w`.
    fn sweep(&self, f: &CuFunction, (src, dst): (u64, u64), h: u32, w: u32) -> cuda::Result<()> {
        let args = [KernelArg::Ptr(src), KernelArg::Ptr(dst), KernelArg::U32(h), KernelArg::U32(w)];
        self.launch(f, Dim3::xyz(h - 2, (w - 2).div_ceil(128), 1), &args)
    }
}

fn ostencil(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let w = 128u32;
    let h = (n / w).max(4);
    let m = c.module("ostencil", &[k::stencil5("stencil_step")])?;
    let f = c.func(&m, "stencil_step")?;
    let a = c.alloc_f32(h * w, |i| (i % 17) as f32)?;
    let b = c.alloc_f32(h * w, |_| 0.0)?;
    for it in 0..iters {
        let (src, dst) = if it % 2 == 0 { (a, b) } else { (b, a) };
        c.sweep(&f, (src, dst), h, w)?;
    }
    Ok(())
}

fn olbm(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let m = c.module("olbm", &[k::lbm_stream("lbm_stream", 8), k::axpby("lbm_collide")])?;
    let stream = c.func(&m, "lbm_stream")?;
    let collide = c.func(&m, "lbm_collide")?;
    let grid = c.alloc_f32(n + 16, |i| (i % 9) as f32 * 0.1)?;
    let tmp = c.alloc_f32(n + 16, |_| 0.0)?;
    for _ in 0..iters {
        c.launch1d(&stream, n, &[KernelArg::Ptr(grid), KernelArg::Ptr(tmp), KernelArg::U32(n)])?;
        c.launch1d(
            &collide,
            n,
            &[
                KernelArg::Ptr(tmp),
                KernelArg::Ptr(grid),
                KernelArg::Ptr(grid),
                KernelArg::U32(n),
                KernelArg::F32(0.8),
                KernelArg::F32(0.2),
            ],
        )?;
    }
    Ok(())
}

fn omriq(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let m = c.module("omriq", &[k::trig_map("mriq_phi", 6), k::trig_map("mriq_q", 10)])?;
    let phi = c.func(&m, "mriq_phi")?;
    let q = c.func(&m, "mriq_q")?;
    let x = c.alloc_f32(n, |i| i as f32 * 0.001)?;
    let y = c.alloc_f32(n, |_| 0.0)?;
    for _ in 0..iters.div_ceil(3) {
        c.launch1d(
            &phi,
            n,
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(n), KernelArg::F32(0.5)],
        )?;
        c.launch1d(
            &q,
            n,
            &[KernelArg::Ptr(y), KernelArg::Ptr(x), KernelArg::U32(n), KernelArg::F32(0.25)],
        )?;
    }
    Ok(())
}

fn md(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let n = n / 4;
    let m = c.module("md", &[k::md_force("md_force"), k::axpby("md_update")])?;
    let force_k = c.func(&m, "md_force")?;
    let update = c.func(&m, "md_update")?;
    let pos = c.alloc_f32(n, |i| (i as f32 * 0.37).sin())?;
    let force = c.alloc_f32(n, |_| 0.0)?;
    for _ in 0..iters {
        // Data-dependent cutoff branch: counts change as positions drift.
        c.launch1d(
            &force_k,
            n,
            &[
                KernelArg::Ptr(pos),
                KernelArg::Ptr(force),
                KernelArg::U32(n),
                KernelArg::U32(16),
                KernelArg::F32(0.5),
            ],
        )?;
        c.launch1d(
            &update,
            n,
            &[
                KernelArg::Ptr(pos),
                KernelArg::Ptr(force),
                KernelArg::Ptr(pos),
                KernelArg::U32(n),
                KernelArg::F32(1.0),
                KernelArg::F32(0.01),
            ],
        )?;
    }
    Ok(())
}

fn palm(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let m = c.module(
        "palm",
        &[
            k::axpby("palm_advect"),
            k::stencil5("palm_diffuse"),
            k::trig_map("palm_buoyancy", 2),
            k::axpby("palm_pressure"),
            k::reduce_sum("palm_cfl"),
        ],
    )?;
    let advect = c.func(&m, "palm_advect")?;
    let diffuse = c.func(&m, "palm_diffuse")?;
    let buoy = c.func(&m, "palm_buoyancy")?;
    let press = c.func(&m, "palm_pressure")?;
    let cfl = c.func(&m, "palm_cfl")?;
    let w = 64u32;
    let h = (n / w).max(4);
    let u = c.alloc_f32(h * w, |i| (i % 13) as f32 * 0.05)?;
    let v = c.alloc_f32(h * w, |_| 0.1)?;
    let acc = c.alloc_f32(1, |_| 0.0)?;
    for _ in 0..iters.div_ceil(2) {
        c.launch1d(
            &advect,
            h * w,
            &[
                KernelArg::Ptr(u),
                KernelArg::Ptr(v),
                KernelArg::Ptr(v),
                KernelArg::U32(h * w),
                KernelArg::F32(0.9),
                KernelArg::F32(0.1),
            ],
        )?;
        c.sweep(&diffuse, (v, u), h, w)?;
        c.launch1d(
            &buoy,
            h * w,
            &[KernelArg::Ptr(u), KernelArg::Ptr(v), KernelArg::U32(h * w), KernelArg::F32(0.3)],
        )?;
        c.launch1d(
            &press,
            h * w,
            &[
                KernelArg::Ptr(v),
                KernelArg::Ptr(u),
                KernelArg::Ptr(u),
                KernelArg::U32(h * w),
                KernelArg::F32(0.5),
                KernelArg::F32(0.5),
            ],
        )?;
        c.launch1d(&cfl, h * w, &[KernelArg::Ptr(u), KernelArg::Ptr(acc), KernelArg::U32(h * w)])?;
    }
    Ok(())
}

fn ep(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let steps = 8 + iters;
    let m = c.module("ep", &[k::rng_hist("ep_walk", steps)])?;
    let f = c.func(&m, "ep_walk")?;
    let hist = c.alloc_f32(64, |_| 0.0)?;
    for launch in 0..3 {
        c.launch1d(&f, n, &[KernelArg::Ptr(hist), KernelArg::U32(launch * 7919)])?;
    }
    Ok(())
}

fn clvrleaf(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let srcs: Vec<String> =
        ["ideal_gas", "viscosity", "flux_calc", "advec_cell", "advec_mom", "reset"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                if i % 2 == 0 {
                    k::axpby(&format!("clvr_{name}"))
                } else {
                    k::lbm_stream(&format!("clvr_{name}"), 4)
                }
            })
            .collect();
    let m = c.module("clvrleaf", &srcs)?;
    let x = c.alloc_f32(n + 8, |i| (i % 23) as f32 * 0.02)?;
    let y = c.alloc_f32(n + 8, |_| 1.0)?;
    for _ in 0..iters.div_ceil(2) {
        for (i, name) in ["ideal_gas", "viscosity", "flux_calc", "advec_cell", "advec_mom", "reset"]
            .iter()
            .enumerate()
        {
            let f = c.func(&m, &format!("clvr_{name}"))?;
            if i % 2 == 0 {
                c.launch1d(
                    &f,
                    n,
                    &[
                        KernelArg::Ptr(x),
                        KernelArg::Ptr(y),
                        KernelArg::Ptr(y),
                        KernelArg::U32(n),
                        KernelArg::F32(0.7),
                        KernelArg::F32(0.3),
                    ],
                )?;
            } else {
                c.launch1d(&f, n, &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(n)])?;
            }
        }
    }
    Ok(())
}

fn cg(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let rows = n / 8;
    let m =
        c.module("cg", &[k::spmv_csr("cg_spmv"), k::axpby("cg_axpy"), k::reduce_sum("cg_dot")])?;
    let spmv = c.func(&m, "cg_spmv")?;
    let axpy = c.func(&m, "cg_axpy")?;
    let dot = c.func(&m, "cg_dot")?;

    // Random CSR structure: row lengths 1..16 (divergent loops).
    let mut rng = Rng::seed_from_u64(42);
    let mut rowptr = vec![0u32];
    let mut cols = Vec::new();
    for _ in 0..rows {
        let len = rng.gen_range(1..16u32);
        for _ in 0..len {
            cols.push(rng.gen_range(0..rows));
        }
        rowptr.push(cols.len() as u32);
    }
    let nnz = cols.len() as u32;
    let d_rowptr = c.alloc_u32(&rowptr)?;
    let d_cols = c.alloc_u32(&cols)?;
    let d_vals = c.alloc_f32(nnz, |i| 1.0 / (1.0 + i as f32))?;
    let x = c.alloc_f32(rows, |_| 1.0)?;
    let y = c.alloc_f32(rows, |_| 0.0)?;
    let acc = c.alloc_f32(1, |_| 0.0)?;

    for _ in 0..iters {
        c.launch1d(
            &spmv,
            rows,
            &[
                KernelArg::Ptr(d_rowptr),
                KernelArg::Ptr(d_cols),
                KernelArg::Ptr(d_vals),
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::U32(rows),
            ],
        )?;
        c.launch1d(&dot, rows, &[KernelArg::Ptr(y), KernelArg::Ptr(acc), KernelArg::U32(rows)])?;
        c.launch1d(
            &axpy,
            rows,
            &[
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::Ptr(x),
                KernelArg::U32(rows),
                KernelArg::F32(0.99),
                KernelArg::F32(0.01),
            ],
        )?;
    }
    Ok(())
}

fn seismic(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let w = 128u32;
    let h = (n / w).max(4);
    let m =
        c.module("seismic", &[k::stencil5("seismic_pressure"), k::stencil5("seismic_velocity")])?;
    let p = c.func(&m, "seismic_pressure")?;
    let v = c.func(&m, "seismic_velocity")?;
    let a = c.alloc_f32(h * w, |i| if i == h * w / 2 { 100.0 } else { 0.0 })?;
    let b = c.alloc_f32(h * w, |_| 0.0)?;
    for _ in 0..iters {
        for (f, src, dst) in [(&p, a, b), (&v, b, a)] {
            c.sweep(f, (src, dst), h, w)?;
        }
    }
    Ok(())
}

fn sweep_bench(c: &Ctx<'_>, size: Size, prefix: &str, sweeps: usize) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let rows = (n / 64).max(8);
    let w = 64u32;
    let names: Vec<String> = (0..sweeps).map(|i| format!("{prefix}_sweep{i}")).collect();
    let srcs: Vec<String> = names.iter().map(|nm| k::line_sweep(nm)).collect();
    let m = c.module(prefix, &srcs)?;
    let data = c.alloc_f32(rows * w, |i| (i % 31) as f32 * 0.01)?;
    for _ in 0..iters.div_ceil(3) {
        for nm in &names {
            let f = c.func(&m, nm)?;
            c.launch1d(&f, rows, &[KernelArg::Ptr(data), KernelArg::U32(rows), KernelArg::U32(w)])?;
        }
    }
    Ok(())
}

fn sp(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    sweep_bench(c, size, "sp", 3)
}

fn csp(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    sweep_bench(c, size, "csp", 4)
}

fn mini_ghost(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let w = 128u32;
    let h = (n / w).max(4);
    let m = c.module("miniGhost", &[k::stencil5("mg_stencil"), k::reduce_sum("mg_checksum")])?;
    let st = c.func(&m, "mg_stencil")?;
    let ck = c.func(&m, "mg_checksum")?;
    let a = c.alloc_f32(h * w, |i| (i % 7) as f32)?;
    let b = c.alloc_f32(h * w, |_| 0.0)?;
    let acc = c.alloc_f32(1, |_| 0.0)?;
    for it in 0..iters {
        let (src, dst) = if it % 2 == 0 { (a, b) } else { (b, a) };
        c.sweep(&st, (src, dst), h, w)?;
        c.launch1d(&ck, h * w, &[KernelArg::Ptr(dst), KernelArg::Ptr(acc), KernelArg::U32(h * w)])?;
    }
    Ok(())
}

fn ilbdc(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    // Many unique, short, launched-once kernels: the Figure 5 worst case.
    let (n, _) = size.scale();
    let n = n / 4;
    let count = match size {
        Size::Small => 8,
        Size::Medium => 24,
        Size::Large => 32,
    };
    let srcs: Vec<String> =
        (0..count).map(|v| k::short_unique(&format!("ilbdc_k{v}"), v)).collect();
    let m = c.module("ilbdc", &srcs)?;
    let x = c.alloc_f32(n, |i| i as f32 * 0.01)?;
    for v in 0..count {
        let f = c.func(&m, &format!("ilbdc_k{v}"))?;
        c.launch1d(&f, n, &[KernelArg::Ptr(x), KernelArg::U32(n)])?;
    }
    Ok(())
}

fn swim(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let m = c.module(
        "swim",
        &[k::axpby("swim_calc1"), k::axpby("swim_calc2"), k::stencil5("swim_calc3")],
    )?;
    let c1 = c.func(&m, "swim_calc1")?;
    let c2 = c.func(&m, "swim_calc2")?;
    let c3 = c.func(&m, "swim_calc3")?;
    let w = 64u32;
    let h = (n / w).max(4);
    let u = c.alloc_f32(h * w, |i| (i % 11) as f32 * 0.1)?;
    let v = c.alloc_f32(h * w, |_| 0.5)?;
    for _ in 0..iters {
        c.launch1d(
            &c1,
            h * w,
            &[
                KernelArg::Ptr(u),
                KernelArg::Ptr(v),
                KernelArg::Ptr(v),
                KernelArg::U32(h * w),
                KernelArg::F32(0.6),
                KernelArg::F32(0.4),
            ],
        )?;
        c.launch1d(
            &c2,
            h * w,
            &[
                KernelArg::Ptr(v),
                KernelArg::Ptr(u),
                KernelArg::Ptr(u),
                KernelArg::U32(h * w),
                KernelArg::F32(0.3),
                KernelArg::F32(0.7),
            ],
        )?;
        c.sweep(&c3, (u, v), h, w)?;
    }
    Ok(())
}

fn bt(c: &Ctx<'_>, size: Size) -> cuda::Result<()> {
    let (n, iters) = size.scale();
    let rows = (n / 64).max(8);
    let m = c.module(
        "bt",
        &[
            k::line_sweep("bt_xsolve"),
            k::line_sweep("bt_ysolve"),
            k::line_sweep("bt_zsolve"),
            k::axpby("bt_add"),
        ],
    )?;
    let data = c.alloc_f32(rows * 64, |i| (i % 19) as f32 * 0.02)?;
    let rhs = c.alloc_f32(rows * 64, |_| 1.0)?;
    for _ in 0..iters.div_ceil(2) {
        for nm in ["bt_xsolve", "bt_ysolve", "bt_zsolve"] {
            let f = c.func(&m, nm)?;
            c.launch1d(
                &f,
                rows,
                &[KernelArg::Ptr(data), KernelArg::U32(rows), KernelArg::U32(64)],
            )?;
        }
        let add = c.func(&m, "bt_add")?;
        c.launch1d(
            &add,
            rows * 64,
            &[
                KernelArg::Ptr(data),
                KernelArg::Ptr(rhs),
                KernelArg::Ptr(data),
                KernelArg::U32(rows * 64),
                KernelArg::F32(1.0),
                KernelArg::F32(0.1),
            ],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::DeviceSpec;
    use sass::Arch;

    #[test]
    fn every_benchmark_runs_small() {
        for b in suite() {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            b.run(&drv, Size::Small).unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert!(drv.launch_count() > 0, "{} launched nothing", b.name);
        }
    }

    #[test]
    fn ilbdc_has_many_unique_kernels_launched_once() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        benchmark("ilbdc").unwrap().run(&drv, Size::Small).unwrap();
        let launches = drv.launches();
        let mut names: Vec<&str> = launches.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), launches.len(), "each kernel launched once");
        assert!(names.len() >= 8);
    }

    #[test]
    fn md_instruction_counts_vary_across_launches() {
        // The data-dependent cutoff branch makes per-launch thread
        // instruction counts differ — the paper's source of sampling error.
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        benchmark("md").unwrap().run(&drv, Size::Small).unwrap();
        let counts: Vec<u64> = drv
            .launches()
            .iter()
            .filter(|l| l.name == "md_force")
            .map(|l| l.stats.thread_instructions)
            .collect();
        assert!(counts.len() >= 2);
        assert!(counts.windows(2).any(|w| w[0] != w[1]), "md_force counts should vary: {counts:?}");
    }

    #[test]
    fn stencil_benchmarks_are_launch_deterministic() {
        // Grid-dim-determined control flow: same kernel, same grid => same
        // warp-level instruction count (zero sampling error).
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        benchmark("ostencil").unwrap().run(&drv, Size::Small).unwrap();
        let counts: Vec<u64> = drv.launches().iter().map(|l| l.stats.warp_instructions).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// Each launch's record is what the launch returned, and the driver's
    /// total is the fold of its records, under either scheduler.
    #[test]
    fn launch_records_match_what_each_launch_returned() {
        for sched in [gpu::Scheduler::Serial, gpu::Scheduler::Parallel { threads: 2 }] {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            drv.with_device(|d| d.scheduler = sched);
            let mut returned = Vec::new();
            for b in suite() {
                let c = Ctx::new(&drv).unwrap();
                (b.runner)(&c, Size::Small).unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
                returned.extend(c.returned.take());
            }
            let records = drv.launches();
            assert_eq!(records.len(), returned.len(), "{sched:?}");
            for (r, s) in records.iter().zip(&returned) {
                assert_eq!(r.stats, gpu::ExecStats::from(s), "{} under {sched:?}", r.name);
            }
            let mut folded = gpu::ExecStats::default();
            records.iter().for_each(|r| folded.merge(&r.stats));
            assert_eq!(drv.total_stats(), folded, "{sched:?}");
        }
    }

    #[test]
    fn benchmark_lookup() {
        assert!(benchmark("cg").is_some());
        assert!(benchmark("nope").is_none());
        assert_eq!(suite().len(), 15);
    }
}
// (additional tests appended)
#[cfg(test)]
mod determinism_tests {
    use super::*;
    use gpu::DeviceSpec;
    use sass::Arch;

    /// The whole stack is deterministic: running any benchmark twice yields
    /// identical cycle counts and instruction totals (a prerequisite for
    /// the sampling-error methodology).
    #[test]
    fn benchmarks_are_deterministic() {
        for name in ["md", "cg", "ep"] {
            let run = || {
                let drv = Driver::new(DeviceSpec::test(Arch::Volta));
                benchmark(name).unwrap().run(&drv, Size::Small).unwrap();
                let s = drv.total_stats();
                (s.cycles, s.thread_instructions, s.warp_instructions)
            };
            assert_eq!(run(), run(), "{name} is nondeterministic");
        }
    }
}
