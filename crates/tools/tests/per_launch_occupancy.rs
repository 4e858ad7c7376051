//! Per-launch occupancy configs (`OccupancyCfg::PER_LAUNCH`): the core
//! derives the block shape of the occupancy gate from each intercepted
//! launch instead of a hard-coded configuration. The resolved shape is
//! part of the plan-cache key, so repeating a shape reuses the cached
//! image and changing it replans — the same shape-keyed behaviour the
//! sampling cache has for save policies.

use common::channel::Backpressure;
use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanOpts, PlanStats, SaveStats};
use nvbit_tools::MemTrace;
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::kernels;

/// Wraps [`MemTrace`] (which instruments every global access) to pin
/// plan options at init and capture plan/save stats at each launch exit.
struct Probe {
    opts: PlanOpts,
    inner: MemTrace,
    stats: Rc<RefCell<Vec<(PlanStats, SaveStats)>>>,
}

impl NvbitTool for Probe {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_plan_opts(self.opts);
        self.inner.at_init(api);
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_term(api);
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        self.inner.at_cuda_event(api, is_exit, cbid, params);
        if is_exit && cbid == CbId::LaunchKernel {
            let CbParams::LaunchKernel { func, .. } = params else { return };
            let plan = api.plan_stats(*func).unwrap().expect("instrumented");
            let save = api.save_stats(*func).unwrap().expect("instrumented");
            self.stats.borrow_mut().push((plan, save));
        }
    }
}

/// Runs the stencil workload under the given opts, launching at the
/// requested block shapes (one launch per entry), and returns the
/// captured per-launch stats.
fn run(opts: PlanOpts, shapes: &[u32]) -> Vec<(PlanStats, SaveStats)> {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, _results) = MemTrace::channel(Backpressure::Block, 1 << 16);
    let stats = Rc::new(RefCell::new(Vec::new()));
    attach_tool(&drv, Probe { opts, inner: tool, stats: stats.clone() });
    let (h, w) = (16u32, 128u32);
    let n = h * w;
    let ctx = drv.ctx_create().unwrap();
    let src = format!(".version 6.0\n{}", kernels::stencil5("step"));
    let m = drv.module_load(&ctx, FatBinary::from_ptx("stencil", src)).unwrap();
    let f = drv.module_get_function(&m, "step").unwrap();
    let a = drv.mem_alloc(n as u64 * 4).unwrap();
    let b = drv.mem_alloc(n as u64 * 4).unwrap();
    let init: Vec<u8> = (0..n).flat_map(|i| ((i % 17) as f32).to_bits().to_le_bytes()).collect();
    drv.memcpy_htod(a, &init).unwrap();
    for &bd in shapes {
        drv.launch_kernel(
            &f,
            Dim3::xyz(h - 2, 1, 1),
            Dim3::linear(bd),
            &[KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::U32(h), KernelArg::U32(w)],
        )
        .unwrap();
    }
    drv.shutdown();
    Rc::try_unwrap(stats).unwrap().into_inner()
}

/// The obs counters are process-global; serialize the tests so one
/// test's builds never land in the other's captured report.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn per_launch_opts() -> PlanOpts {
    PlanOpts {
        occupancy: Some(sass::occupancy::OccupancyCfg::volta_per_launch()),
        ..PlanOpts::default()
    }
}

/// At a fixed launch shape, the per-launch sentinel resolves to exactly
/// the config an explicit shape names: identical plan and save stats.
#[test]
fn per_launch_matches_the_explicit_shape() {
    let _serial = SERIAL.lock().unwrap();
    let explicit = PlanOpts {
        occupancy: Some(sass::occupancy::OccupancyCfg::volta(128)),
        ..PlanOpts::default()
    };
    let a = run(explicit, &[128]);
    let b = run(per_launch_opts(), &[128]);
    assert_eq!(a, b, "resolved sentinel must name the same image as the explicit config");
}

/// Repeated shapes hit the image cache; a shape change replans. The
/// build/reuse counters make the cache behaviour observable: three
/// launches at {128, 128, 256} build exactly two images.
#[test]
fn shape_change_replans_and_repeats_reuse() {
    let _serial = SERIAL.lock().unwrap();
    common::obs::reset();
    common::obs::set_enabled(true);
    let stats = run(per_launch_opts(), &[128, 128, 256]);
    let report = common::obs::Report::capture();
    common::obs::set_enabled(false);
    assert_eq!(stats.len(), 3);
    assert_eq!(
        report.counter_sum("plan.occ_launch_shape"),
        3,
        "every intercepted launch resolves the sentinel"
    );
    assert_eq!(report.counter_sum("instr_image.build"), 2, "one image per distinct shape");
    assert!(report.counter_sum("instr_image.reuse") >= 1, "the repeated shape hits the cache");
}
