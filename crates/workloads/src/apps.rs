//! The small applications the plan-ladder and save-policy studies share:
//! the software warp FFT (one straight-line block), a 5-point stencil step
//! (grid-determined control flow), a CSR SpMV (data-dependent loop trip
//! counts) and the same SpMV with its row in a two-deep device-function
//! call chain. Each loads its kernel into a fresh context, launches it
//! `rounds` times over the same deterministic input and returns its output
//! buffer's bytes.
//!
//! # Example
//!
//! ```
//! use cuda::Driver;
//! use gpu::DeviceSpec;
//! use sass::Arch;
//!
//! let drv = Driver::new(DeviceSpec::test(Arch::Volta));
//! let out = workloads::apps::stencil(&drv, 1).unwrap();
//! assert_eq!(out.len(), 16 * 128 * 4);
//! ```

use crate::specaccel::Ctx;
use crate::{fft, kernels};
use cuda::{Driver, FatBinary, KernelArg};
use gpu::Dim3;

/// The software warp FFT over `blocks` warps of unit-magnitude input:
/// lane k holds the complex point (1, 0).
///
/// # Errors
///
/// Driver failures.
pub fn fft_soft(drv: &Driver, blocks: u32, rounds: u32) -> cuda::Result<Vec<u8>> {
    let bytes = blocks * 32 * 8;
    let c = Ctx::new(drv)?;
    let m = drv.module_load(&c.ctx, FatBinary::from_ptx("fft", fft::soft_fft_kernel_ptx()))?;
    let f = c.func(&m, "fft32_soft")?;
    let din = drv.mem_alloc(bytes.into())?;
    let dout = drv.mem_alloc(bytes.into())?;
    let input: Vec<u8> =
        (0..blocks * 32).flat_map(|_| [1.0f32.to_bits(), 0]).flat_map(u32::to_le_bytes).collect();
    drv.memcpy_htod(din, &input)?;
    let args = [KernelArg::Ptr(din), KernelArg::Ptr(dout)];
    for _ in 0..rounds {
        drv.launch_kernel(&f, Dim3::linear(blocks), Dim3::linear(32), &args)?;
    }
    read(drv, dout, bytes)
}

/// One 5-point stencil step over a 16 × 128 grid, from `a` into `b`.
///
/// # Errors
///
/// Driver failures.
pub fn stencil(drv: &Driver, rounds: u32) -> cuda::Result<Vec<u8>> {
    let (h, w) = (16u32, 128u32);
    let c = Ctx::new(drv)?;
    let m = c.module("stencil", &[kernels::stencil5("step")])?;
    let f = c.func(&m, "step")?;
    let a = c.alloc_f32(h * w, |i| (i % 17) as f32)?;
    let b = drv.mem_alloc(u64::from(h * w) * 4)?;
    let args = [KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::U32(h), KernelArg::U32(w)];
    for _ in 0..rounds {
        drv.launch_kernel(&f, Dim3::xyz(h - 2, 1, 1), Dim3::linear(128), &args)?;
    }
    read(drv, b, h * w * 4)
}

/// `y = A x` over a 64-row CSR matrix whose row r has 1 + (r mod 9)
/// entries, one thread per row.
///
/// # Errors
///
/// Driver failures.
pub fn spmv(drv: &Driver, rounds: u32) -> cuda::Result<Vec<u8>> {
    csr(drv, rounds, "spmv", kernels::spmv_csr("spmv"))
}

/// [`spmv`] with the row's dot product in a device function that calls
/// another for each nonzero: a call chain two deep.
///
/// # Errors
///
/// Driver failures.
pub fn spmv_calls(drv: &Driver, rounds: u32) -> cuda::Result<Vec<u8>> {
    csr(drv, rounds, "spmv_calls", kernels::spmv_calls("spmv_calls"))
}

/// [`spmv`]'s matrix and vectors through kernel `name` of `source`.
fn csr(drv: &Driver, rounds: u32, name: &str, source: String) -> cuda::Result<Vec<u8>> {
    let rows = 64u32;
    let c = Ctx::new(drv)?;
    let m = c.module(name, &[source])?;
    let f = c.func(&m, name)?;
    let mut rowptr = vec![0u32];
    let mut cols = Vec::new();
    for r in 0..rows {
        cols.extend((0..=r % 9).map(|j| (r * 7 + j * 13) % rows));
        rowptr.push(cols.len() as u32);
    }
    let d_rowptr = c.alloc_u32(&rowptr)?;
    let d_cols = c.alloc_u32(&cols)?;
    let d_vals = c.alloc_f32(cols.len() as u32, |i| 1.0 / (1.0 + i as f32))?;
    let x = c.alloc_f32(rows, |_| 1.0)?;
    let y = c.alloc_f32(rows, |_| 0.0)?;
    let args = [
        KernelArg::Ptr(d_rowptr),
        KernelArg::Ptr(d_cols),
        KernelArg::Ptr(d_vals),
        KernelArg::Ptr(x),
        KernelArg::Ptr(y),
        KernelArg::U32(rows),
    ];
    for _ in 0..rounds {
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(128), &args)?;
    }
    read(drv, y, rows * 4)
}

fn read(drv: &Driver, addr: u64, bytes: u32) -> cuda::Result<Vec<u8>> {
    let mut out = vec![0u8; bytes as usize];
    drv.memcpy_dtoh(&mut out, addr)?;
    Ok(out)
}
