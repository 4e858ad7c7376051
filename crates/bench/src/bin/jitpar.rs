//! **jitpar**: concurrent-JIT benchmark for the versioned code cache.
//!
//! Batch-instruments an 8-kernel module (every instruction of every
//! kernel) once serially and once with 4 JIT workers, and checks three
//! contracts of the concurrent cache:
//!
//! 1. the parallel images are byte-for-byte identical to the serial ones
//!    (trampolines are allocated in input order on the driver thread, so
//!    worker count is unobservable in the output);
//! 2. flipping `enable_instrumented` / `set_save_policy` between
//!    already-built versions re-runs zero codegen (paper §6.2: version
//!    switches are O(memcpy));
//! 3. on a machine with ≥ 4 hardware threads, 4 workers finish the batch
//!    ≥ 2× faster than the serial path. On smaller machines the speedup
//!    is reported and the gate `SKIPPED` (nothing to parallelize onto).
//!
//! Writes `results/BENCH_jitpar.json` and exits non-zero if any enforced
//! gate fails.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin jitpar
//! ```

use bench_harness::{timed, titan_v};
use common::json::Json;
use common::obs;
use cuda::{CbId, CbParams, CuFunction, Driver, FatBinary, KernelArg};
use gpu::Dim3;
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool, SavePolicy};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

const KERNELS: usize = 8;
const WORKERS: usize = 4;
const REPS: usize = 3;
const ARITH_OPS: usize = 120;

const COUNT_FN: &str = r#"
.func count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    mov.u32 %r1, 1;
    atom.global.add.u32 %r2, [%ctr], %r1;
    ret;
}
"#;

/// A module of [`KERNELS`] distinct straight-line kernels, each with
/// ~[`ARITH_OPS`] arithmetic instructions feeding one global store — big
/// enough that per-function codegen dominates the batch.
fn module_ptx() -> String {
    let mut src = String::new();
    for i in 0..KERNELS {
        let mut body = String::new();
        for j in 0..ARITH_OPS {
            match j % 3 {
                0 => body.push_str("    add.u32 %r3, %r3, %r2;\n"),
                1 => body.push_str(&format!("    mul.lo.u32 %r4, %r3, {};\n", 3 + i)),
                _ => body.push_str("    and.b32 %r2, %r4, 2047;\n"),
            }
        }
        src.push_str(&format!(
            r#"
.entry k{i}(.param .u64 out)
{{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    add.u32 %r2, %r1, {seed};
    mov.u32 %r3, 1;
    mov.u32 %r4, 1;
{body}    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}}
"#,
            seed = i + 1,
        ));
    }
    src
}

/// Launch 0: instrument every instruction of every kernel in the module
/// (the batch the workers fan out over). Launch 1: build the second
/// (FullTier) version of every function. Launches 2+: flip between the
/// two built versions — these must never re-run codegen.
struct FlipTool {
    workers: usize,
    counter_addr: Rc<RefCell<u64>>,
    launches: u32,
}

impl NvbitTool for FlipTool {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_jit_workers(self.workers);
        api.load_tool_functions(COUNT_FN).unwrap();
        *self.counter_addr.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        match self.launches {
            0 => {
                let addr = *self.counter_addr.borrow();
                let module = api.driver().function_info(*func).unwrap().module;
                for k in api.driver().module_kernels(&module).unwrap() {
                    for idx in 0..api.get_instrs(k).unwrap().len() {
                        api.insert_call(k, idx, "count_one", IPoint::Before).unwrap();
                        api.add_call_arg_guard_pred(k, idx).unwrap();
                        api.add_call_arg_imm64(k, idx, addr).unwrap();
                    }
                }
            }
            1 => api.set_save_policy(SavePolicy::FullTier),
            2 => api.set_save_policy(SavePolicy::Liveness),
            3 => api.enable_instrumented(*func, false).unwrap(),
            4 => api.enable_instrumented(*func, true).unwrap(),
            5 => api.set_save_policy(SavePolicy::FullTier),
            _ => api.set_save_policy(SavePolicy::Liveness),
        }
        self.launches += 1;
    }
}

struct RunResult {
    batch: Duration,
    images: Vec<Vec<u8>>,
    flip_builds: u64,
}

fn run(workers: usize) -> RunResult {
    let drv: Driver = titan_v();
    attach_tool(&drv, FlipTool { workers, counter_addr: Rc::new(RefCell::new(0)), launches: 0 });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("jitpar", module_ptx())).unwrap();
    let funcs: Vec<CuFunction> = drv.module_kernels(&m).unwrap();
    assert_eq!(funcs.len(), KERNELS);
    let out = drv.mem_alloc(256).unwrap();
    let args = [KernelArg::Ptr(out)];

    // Launch 0 carries the whole batch: lift + instrument + codegen +
    // verify for all kernels of the module.
    let (_, batch) =
        timed(|| drv.launch_kernel(&funcs[0], Dim3::linear(1), Dim3::linear(32), &args).unwrap());
    let images = funcs.iter().map(|f| drv.read_code(*f).unwrap()).collect();

    // Launch 1 builds the second (FullTier) version; launches 2..=6 only
    // flip between the two built versions. Count codegen runs in the flip
    // window — the §6.2 contract is that there are none.
    drv.launch_kernel(&funcs[0], Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    obs::set_enabled(true);
    obs::reset();
    for _ in 2..=6 {
        drv.launch_kernel(&funcs[0], Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    }
    let report = obs::Report::capture();
    obs::set_enabled(false);
    drv.shutdown();

    RunResult { batch, images, flip_builds: report.counter_sum("instr_image.build") }
}

fn main() {
    println!("== jitpar: concurrent JIT vs serial on a {KERNELS}-kernel module ==\n");
    let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut serial = Duration::MAX;
    let mut parallel = Duration::MAX;
    let mut identical = true;
    let mut flip_builds = 0u64;
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for rep in 0..REPS {
        let s = run(1);
        let p = run(WORKERS);
        serial = serial.min(s.batch);
        parallel = parallel.min(p.batch);
        flip_builds += s.flip_builds + p.flip_builds;
        let reference = reference.get_or_insert(s.images.clone());
        identical &= s.images == *reference && p.images == *reference;
        println!(
            "rep {rep}: serial {:.2} ms, {WORKERS} workers {:.2} ms, identical: {}",
            s.batch.as_secs_f64() * 1e3,
            p.batch.as_secs_f64() * 1e3,
            s.images == *reference && p.images == *reference,
        );
    }

    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    let enforced = hw_threads >= WORKERS;
    let speedup_ok = !enforced || speedup >= 2.0;
    let pass = speedup_ok && identical && flip_builds == 0;

    println!(
        "\nbatch of {KERNELS} kernels: serial {:.2} ms, {WORKERS} workers {:.2} ms ({speedup:.2}x)",
        serial.as_secs_f64() * 1e3,
        parallel.as_secs_f64() * 1e3,
    );
    let gate = if enforced { "ON" } else { "SKIPPED" };
    println!("speedup gate {gate} (hw_threads={hw_threads})");
    println!("images bit-identical: {identical}; codegen runs during version flips: {flip_builds}");

    let doc = Json::obj(vec![
        ("bench", Json::Str("jitpar".into())),
        ("kernels", Json::Num(KERNELS as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("hw_threads", Json::Num(hw_threads as f64)),
        ("serial_ms", Json::Num(serial.as_secs_f64() * 1e3)),
        ("parallel_ms", Json::Num(parallel.as_secs_f64() * 1e3)),
        ("speedup", Json::Num(speedup)),
        ("identical", Json::Bool(identical)),
        ("flip_rebuilds", Json::Num(flip_builds as f64)),
        (
            "gate",
            Json::obj(vec![
                ("required_speedup", Json::Num(2.0)),
                ("enforced", Json::Bool(enforced)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
    ]);
    std::fs::create_dir_all("results").unwrap();
    let path = "results/BENCH_jitpar.json";
    std::fs::write(path, doc.to_pretty()).unwrap();
    println!("wrote {path}");

    if !pass {
        eprintln!(
            "jitpar gate FAILED: speedup {speedup:.2}x (required 2.0x, enforced: {enforced}), \
             identical: {identical}, flip rebuilds: {flip_builds}"
        );
        std::process::exit(1);
    }
}
