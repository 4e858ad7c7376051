//! What more than one integration test builds.
#![allow(dead_code)] // each test uses its part

use workloads::kernels;

/// The 32 kernels of one `jit_unique` stratum with the arguments the
/// benchmark launches them with (1 CTA × 32 threads, inputs all zero).
pub fn stratum() -> (String, Vec<(String, Vec<Param>)>) {
    use Param::{Buf, F32, U32};
    let mut source = String::from(".version 6.0\n");
    let mut launches = Vec::new();
    let mut kernel = |name: &str, ptx: String, params: Vec<Param>| {
        source += &ptx;
        source += "\n";
        launches.push((name.to_string(), params));
    };
    for v in 0..27 {
        let name = format!("uk{v}");
        kernel(&name, kernels::short_unique(&name, v * 37 + 5), vec![Buf, U32(32)]);
    }
    kernel("stencil", kernels::stencil5("stencil"), vec![Buf, Buf, U32(3), U32(34)]);
    kernel("spmv", kernels::spmv_csr("spmv"), vec![Buf, Buf, Buf, Buf, Buf, U32(32)]);
    kernel("md", kernels::md_force("md"), vec![Buf, Buf, U32(32), U32(4), F32(0.5)]);
    kernel("lbm", kernels::lbm_stream("lbm", 6), vec![Buf, Buf, U32(32)]);
    kernel("reduce", kernels::reduce_sum("reduce"), vec![Buf, Buf, U32(32)]);
    (source, launches)
}

#[derive(Clone, Copy)]
pub enum Param {
    /// A fresh zeroed 1 KiB device buffer.
    Buf,
    U32(u32),
    F32(f32),
}
