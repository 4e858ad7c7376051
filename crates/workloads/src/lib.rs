//! Workloads for the NVBit reproduction: a SpecAccel-like benchmark suite,
//! Torch7-style ML inference models over the pre-compiled mini-cuBLAS /
//! mini-cuDNN libraries, and the warp-FFT ISA-extension study.
//!
//! **Paper mapping:** §5–6 — these are the *applications under
//! instrumentation* for every figure of the evaluation:
//!
//! * [`specaccel`] — Figures 5, 7, 8, 9 (JIT overhead, instruction
//!   histograms, sampling slowdown and error);
//! * [`ml`] — Figure 6 and the library-instruction-fraction statistic;
//! * [`fft`] — §6.3's hypothetical `WFFT32` instruction;
//! * [`apps`] — the fft, stencil and spmv applications the plan-ladder and
//!   save-policy studies (and their differential tests) share.
//!
//! # Example
//!
//! ```
//! use workloads::specaccel::{benchmark, Size};
//! use cuda::Driver;
//! use gpu::DeviceSpec;
//! use sass::Arch;
//!
//! let drv = Driver::new(DeviceSpec::preset(Arch::Volta));
//! benchmark("ostencil").unwrap().run(&drv, Size::Small).unwrap();
//! assert!(drv.total_stats().warp_instructions > 0);
//! ```

pub mod apps;
pub mod fft;
pub mod kernels;
pub mod ml;
pub mod specaccel;

pub use ml::{ml_model, ml_models, MlModel};
pub use specaccel::{benchmark, suite, Benchmark, Size};
