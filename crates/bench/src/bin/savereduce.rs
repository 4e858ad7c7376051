//! Liveness-driven save/restore reduction (paper §5.1): instrument the
//! software warp-FFT pipeline with the instruction-count tool and compare
//! the register slots saved per injection under the liveness policy against
//! the conservative whole-function tier.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin savereduce
//! ```
//!
//! Writes `results/BENCH_savereduce.json` with the per-function accounting
//! and the overall reduction. Every FFT site is an exact-bracket splice that
//! finds dead registers to move onto (recorded: 0 slots, 100 %); the
//! repository gates on ≥95 % — the recorded reduction minus five points. A
//! second block runs the register-hungry wide counting body, whose splice
//! still has live registers to store (recorded: 4 slots, against 32
//! full-tier and 16 for the out-of-line call).

use common::json::Json;
use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts, SavePolicy, SaveStats};
use nvbit_tools::{CoalescedInstrCount, InstrCount};
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;

/// Wraps a tool: pins the save policy at init and collects the codegen's
/// register-save accounting per instrumented function at launch exit.
struct SaveAccounting<T> {
    policy: SavePolicy,
    inner: T,
    stats: Rc<RefCell<Vec<(String, SaveStats)>>>,
}

impl<T: NvbitTool> NvbitTool for SaveAccounting<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_save_policy(self.policy);
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
        if !is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if let Ok(Some(s)) = api.save_stats(*func) {
            let name = api.get_func_name(*func).unwrap_or_default();
            let mut stats = self.stats.borrow_mut();
            if !stats.iter().any(|(n, _)| *n == name) {
                stats.push((name, s));
            }
        }
    }
}

/// Runs the FFT pipeline (the `profile_pipeline` workload) instrumented by
/// `tool` under `policy`; returns per-function save stats.
fn run_fft<T: NvbitTool + 'static>(policy: SavePolicy, tool: T) -> Vec<(String, SaveStats)> {
    const BLOCKS: u32 = 8;
    let bytes = BLOCKS as u64 * 32 * 8;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let stats = Rc::new(RefCell::new(Vec::new()));
    attach_tool(&drv, SaveAccounting { policy, inner: tool, stats: stats.clone() });

    let ctx = drv.ctx_create().unwrap();
    let src = workloads::fft::soft_fft_kernel_ptx();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", src)).unwrap();
    let f = drv.module_get_function(&m, "fft32_soft").unwrap();
    let din = drv.mem_alloc(bytes).unwrap();
    let dout = drv.mem_alloc(bytes).unwrap();
    let input: Vec<u8> = (0..BLOCKS * 32)
        .flat_map(|_| {
            let mut rec = [0u8; 8];
            rec[..4].copy_from_slice(&1.0f32.to_le_bytes());
            rec
        })
        .collect();
    drv.memcpy_htod(din, &input).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(BLOCKS),
        Dim3::linear(32),
        &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
    )
    .unwrap();
    drv.shutdown();
    Rc::try_unwrap(stats).unwrap().into_inner()
}

fn main() {
    let live = run_fft(SavePolicy::Liveness, InstrCount::new().0);
    let full = run_fft(SavePolicy::FullTier, InstrCount::new().0);

    let saved: u64 = live.iter().map(|(_, s)| s.saved_slots).sum();
    let baseline: u64 = full.iter().map(|(_, s)| s.saved_slots).sum();
    let reduction = if baseline == 0 { 0.0 } else { 1.0 - saved as f64 / baseline as f64 };

    println!("== savereduce: liveness-driven save sizing on the FFT pipeline ==\n");
    println!(
        "{:12}  {:>8}  {:>10}  {:>10}  {:>9}",
        "function", "sites", "liveness", "full-tier", "reduction"
    );
    let mut funcs = Vec::new();
    for (name, s) in &live {
        let fl = full.iter().find(|(n, _)| n == name).map(|(_, s)| s.saved_slots).unwrap_or(0);
        let r = if fl == 0 { 0.0 } else { 1.0 - s.saved_slots as f64 / fl as f64 };
        println!(
            "{name:12}  {:>8}  {:>10}  {:>10}  {:>8.1}%",
            s.sites,
            s.saved_slots,
            fl,
            r * 100.0
        );
        funcs.push(Json::obj(vec![
            ("function", Json::Str(name.clone())),
            ("sites", Json::Num(s.sites as f64)),
            ("max_tier", Json::Num(s.max_tier as f64)),
            ("saved_slots_liveness", Json::Num(s.saved_slots as f64)),
            ("saved_slots_full_tier", Json::Num(fl as f64)),
            ("reduction", Json::Num(r)),
            ("fallback", s.fallback.clone().map(Json::Str).unwrap_or(Json::Null)),
        ]));
    }
    println!(
        "\ntotal: {saved} slots saved vs {baseline} full-tier ({:.1}% reduction)",
        reduction * 100.0
    );

    // Wide-tool gate: the wide executed-counter body writes past the first
    // save tier, and at the FFT site more registers are live than its pairs
    // can move off, so its splice stores what is left. The liveness policy
    // must still cut ≥30% of saved slots there, and the splice must not
    // save a slot more than the out-of-line call of the `Region` rung (no
    // splicing, 16 slots per call).
    let wide = |policy, level| -> u64 {
        let opts = PlanOpts { level };
        let stats = run_fft(policy, CoalescedInstrCount::executed_wide(opts).0);
        stats.iter().map(|(_, s)| s.saved_slots).sum()
    };
    let wide_saved = wide(SavePolicy::Liveness, PlanLevel::Spliced);
    let wide_baseline = wide(SavePolicy::FullTier, PlanLevel::Spliced);
    let wide_called = wide(SavePolicy::Liveness, PlanLevel::Region);
    let wide_reduction =
        if wide_baseline == 0 { 0.0 } else { 1.0 - wide_saved as f64 / wide_baseline as f64 };
    println!(
        "wide tool: {wide_saved} vs {wide_baseline} ({:.1}% reduction; \
         out-of-line baseline {wide_called})",
        wide_reduction * 100.0
    );

    let doc = Json::obj(vec![
        ("bench", Json::Str("savereduce".into())),
        ("workload", Json::Str("fft32_soft pipeline".into())),
        ("tool", Json::Str("instr_count".into())),
        ("arch", Json::Str("volta".into())),
        ("functions", Json::Arr(funcs)),
        ("saved_slots_liveness", Json::Num(saved as f64)),
        ("saved_slots_full_tier", Json::Num(baseline as f64)),
        ("reduction", Json::Num(reduction)),
        (
            "wide_tool",
            Json::obj(vec![
                ("tool", Json::Str("coalesced_instr_count/executed_wide".into())),
                ("saved_slots_liveness", Json::Num(wide_saved as f64)),
                ("saved_slots_full_tier", Json::Num(wide_baseline as f64)),
                ("saved_slots_out_of_line", Json::Num(wide_called as f64)),
                ("reduction", Json::Num(wide_reduction)),
            ]),
        ),
    ]);
    std::fs::create_dir_all("results").unwrap();
    let path = "results/BENCH_savereduce.json";
    std::fs::write(path, doc.to_pretty()).unwrap();
    println!("wrote {path}");

    assert!(
        reduction >= 0.95,
        "exact saves must cut ≥95% of saved slots on the FFT pipeline (got {:.1}%)",
        reduction * 100.0
    );
    assert!(
        wide_reduction >= 0.30,
        "the wide tool's splice must keep the saved-slot reduction at ≥30% (got {:.1}%)",
        wide_reduction * 100.0
    );
    assert!(
        wide_saved <= wide_called,
        "a splice must not save more than the out-of-line rung ({wide_saved} vs {wide_called})"
    );
}
