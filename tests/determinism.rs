//! Parallel-vs-serial determinism: a launch under the CTA-parallel
//! scheduler must be **bit-identical** to the serial path — same final
//! device memory, same `ExecStats` — on real workloads, including under
//! instrumentation (where trampolines, save areas and tool counters all
//! live in the same device memory the CTAs share).
//!
//! The bit-identical guarantee is scoped (see `gpu::Scheduler`): a kernel
//! that *observes* an atomic's returned old value sees CTA completion
//! order, which the parallel scheduler does not fix. The last test pins
//! down exactly what survives for such kernels (the permutation/sum
//! invariants, and serial-mode reproducibility) — and what does not.

use common::channel::Backpressure;
use common::Rng;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, ExecStats, Scheduler};
use nvbit::{attach_tool, PlanOpts};
use nvbit_tools::{CoalescedInstrCount, InstrCount, MemTrace};
use sass::Arch;
use workloads::fft::soft_fft_kernel_ptx;
use workloads::kernels;

const SCHEDULERS: [Scheduler; 3] =
    [Scheduler::Serial, Scheduler::Parallel { threads: 0 }, Scheduler::Parallel { threads: 3 }];

/// Runs the software warp-FFT over several CTAs and returns the output
/// buffer plus the per-launch statistics.
fn run_fft(sched: Scheduler) -> (Vec<u8>, Vec<ExecStats>) {
    const BLOCKS: u32 = 8;
    let bytes = BLOCKS as u64 * 32 * 8;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = sched);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", soft_fft_kernel_ptx())).unwrap();
    let f = drv.module_get_function(&m, "fft32_soft").unwrap();
    let mut rng = Rng::seed_from_u64(0x0df7);
    let mut input = vec![0u8; bytes as usize];
    rng.fill_bytes(&mut input);
    // Complex points must be finite floats: clear the exponent's top bit.
    for k in (0..input.len()).step_by(4) {
        input[k + 3] &= 0x3f;
    }
    let din = drv.mem_alloc(bytes).unwrap();
    let dout = drv.mem_alloc(bytes).unwrap();
    drv.memcpy_htod(din, &input).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(BLOCKS),
        Dim3::linear(32),
        &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
    )
    .unwrap();
    let mut out = vec![0u8; bytes as usize];
    drv.memcpy_dtoh(&mut out, dout).unwrap();
    let stats = drv.launches().into_iter().map(|l| l.stats).collect();
    drv.shutdown();
    (out, stats)
}

#[test]
fn fft_is_bit_identical_across_schedulers() {
    let (serial_mem, serial_stats) = run_fft(Scheduler::Serial);
    assert!(serial_stats.iter().any(|s| s.warp_instructions > 0));
    for sched in SCHEDULERS {
        let (mem, stats) = run_fft(sched);
        assert_eq!(mem, serial_mem, "device memory diverged under {sched:?}");
        assert_eq!(stats, serial_stats, "ExecStats diverged under {sched:?}");
    }
}

/// A multi-CTA kernel with divergence, a loop and a global atomic — the
/// shapes whose ordering a parallel scheduler could plausibly disturb.
const COUNT_APP: &str = r#"
.entry work(.param .u64 buf, .param .u64 total)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u64 %rd2, [total];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    and.b32 %r4, %r1, 7;
    mov.u32 %r5, 0;
L:
    setp.ge.u32 %p1, %r5, %r4;
    @%p1 bra D;
    add.u32 %r5, %r5, 1;
    bra L;
D:
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    st.global.u32 [%rd4], %r5;
    cvt.u64.u32 %rd5, %r5;
    atom.global.add.u64 %rd3, [%rd2], %rd5;
    exit;
}
"#;

/// Runs `COUNT_APP` under the instruction-count tool; returns the output
/// buffer, the atomic total, the per-launch statistics and the tool's
/// dynamic instruction count.
fn run_instr_count(sched: Scheduler) -> (Vec<u8>, u64, Vec<ExecStats>, u64) {
    const BLOCKS: u32 = 16;
    const THREADS: u32 = 64;
    let bytes = (BLOCKS * THREADS) as u64 * 4;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = sched);
    let (tool, results) = InstrCount::new();
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("count_app", COUNT_APP)).unwrap();
    let f = drv.module_get_function(&m, "work").unwrap();
    let buf = drv.mem_alloc(bytes).unwrap();
    let total = drv.mem_alloc(8).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(BLOCKS),
        Dim3::linear(THREADS),
        &[KernelArg::Ptr(buf), KernelArg::Ptr(total)],
    )
    .unwrap();
    let mut out = vec![0u8; bytes as usize];
    drv.memcpy_dtoh(&mut out, buf).unwrap();
    let mut t = [0u8; 8];
    drv.memcpy_dtoh(&mut t, total).unwrap();
    let stats = drv.launches().into_iter().map(|l| l.stats).collect();
    drv.shutdown();
    (out, u64::from_le_bytes(t), stats, results.total())
}

/// The atomicAdd unique-index idiom: every thread takes a ticket from a
/// global counter and stores the *returned old value* — the canonical
/// kernel whose memory image depends on CTA completion order.
const TICKET_APP: &str = r#"
.entry ticket(.param .u64 buf, .param .u64 counter)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<5>;
    ld.param.u64 %rd1, [buf];
    ld.param.u64 %rd2, [counter];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mov.u32 %r4, 1;
    atom.global.add.u32 %r5, [%rd2], %r4;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    st.global.u32 [%rd4], %r5;
    exit;
}
"#;

const TICKET_THREADS: u32 = 8 * 32;

/// Runs `TICKET_APP`; returns the per-thread tickets and the counter.
fn run_tickets(sched: Scheduler) -> (Vec<u32>, u32) {
    let bytes = TICKET_THREADS as u64 * 4;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = sched);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("ticket_app", TICKET_APP)).unwrap();
    let f = drv.module_get_function(&m, "ticket").unwrap();
    let buf = drv.mem_alloc(bytes).unwrap();
    let counter = drv.mem_alloc(4).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(8),
        Dim3::linear(32),
        &[KernelArg::Ptr(buf), KernelArg::Ptr(counter)],
    )
    .unwrap();
    let mut out = vec![0u8; bytes as usize];
    drv.memcpy_dtoh(&mut out, buf).unwrap();
    let mut c = [0u8; 4];
    drv.memcpy_dtoh(&mut c, counter).unwrap();
    drv.shutdown();
    let tickets = out.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect();
    (tickets, u32::from_le_bytes(c))
}

/// Documents the scope of the bit-identical guarantee: a kernel that
/// stores an atomic's returned old value observes the CTA schedule, so
/// across schedulers only the *permutation* invariants hold — each thread
/// gets a unique ticket in `0..N` and the counter totals `N`. Exact
/// ticket placement is only reproducible under `Scheduler::Serial`
/// (asserted here by running it twice); under `Parallel` it may differ
/// run to run, and this test deliberately does not compare parallel
/// memory images against serial ones.
#[test]
fn observable_atomics_keep_permutation_invariants_only() {
    let (serial_a, counter_a) = run_tickets(Scheduler::Serial);
    let (serial_b, counter_b) = run_tickets(Scheduler::Serial);
    assert_eq!(serial_a, serial_b, "serial execution must be reproducible");
    assert_eq!(counter_a, counter_b);
    for sched in SCHEDULERS {
        let (tickets, counter) = run_tickets(sched);
        assert_eq!(counter, TICKET_THREADS, "counter total under {sched:?}");
        let mut sorted = tickets.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..TICKET_THREADS).collect();
        assert_eq!(sorted, expect, "tickets must be a permutation of 0..N under {sched:?}");
    }
}

#[test]
fn instr_count_is_bit_identical_across_schedulers() {
    let (serial_mem, serial_total, serial_stats, serial_count) = run_instr_count(Scheduler::Serial);
    assert!(serial_count > 0, "tool must observe instructions");
    for sched in SCHEDULERS {
        let (mem, total, stats, count) = run_instr_count(sched);
        assert_eq!(mem, serial_mem, "device memory diverged under {sched:?}");
        assert_eq!(total, serial_total, "atomic total diverged under {sched:?}");
        assert_eq!(stats, serial_stats, "ExecStats diverged under {sched:?}");
        assert_eq!(count, serial_count, "tool count diverged under {sched:?}");
    }
}

// ----- Bit-identity pin ----------------------------------------------------
//
// The constants below were recorded from the commit *before* the executor's
// state was re-laid (register-major rows, predicate lane-masks, interleaved
// local memory, flat per-CTA counters). Every field of the summed
// `ExecStats`, an FNV-1a hash of the output buffer and the tool's own result
// must reproduce exactly, natively and under two tools, at both schedulers:
// this is what makes "the simulated slowdown does not move" a test. The
// two tool columns were re-recorded once since, when spliced calls traded
// the 16-slot save routines for exact brackets (the emitted code changed;
// the native column and every `out=` / `tool=` suffix did not), and the
// counting column once more when counter promotion became the top rung
// (each count an `IADD` into a register, one `RED` per thread at `EXIT`:
// cycles 3276 → 3208, 36112 → 14168, 37999 → 17715; the same suffixes), and
// the trace column once more when a channel push of an argument address was
// lowered at the top rung (an `IADD.U64` and a guarded `CHAN.64` in place of
// a splice in a save bracket: cycles 2888 → 2640, 21912 → 9528, 28577 →
// 16775; the same suffixes, the same records in the same order). The two
// decode counters are pinned apart from the strings, in `PINNED_DECODE`:
// they were redefined (slots decoded / every other step) when the per-CTA
// decode overlays became one shared code-page cache, and nothing else moved.

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

fn upload(drv: &Driver, bytes: &[u8]) -> u64 {
    let a = drv.mem_alloc(bytes.len() as u64).unwrap();
    drv.memcpy_htod(a, bytes).unwrap();
    a
}

fn words(vals: impl IntoIterator<Item = u32>) -> Vec<u8> {
    vals.into_iter().flat_map(u32::to_le_bytes).collect()
}

fn download(drv: &Driver, addr: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    drv.memcpy_dtoh(&mut out, addr).unwrap();
    out
}

fn load(drv: &Driver, name: &str, src: String, entry: &str) -> cuda::CuFunction {
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx(name, src)).unwrap();
    drv.module_get_function(&m, entry).unwrap()
}

fn pin_fft(drv: &Driver) -> Vec<u8> {
    let f = load(drv, "fft", soft_fft_kernel_ptx().to_string(), "fft32_soft");
    let input: Vec<u8> = words((0..4 * 64).map(|i| ((i % 13) as f32 - 6.0).to_bits()));
    let (din, dout) = (upload(drv, &input), upload(drv, &vec![0u8; input.len()]));
    let args = [KernelArg::Ptr(din), KernelArg::Ptr(dout)];
    drv.launch_kernel(&f, Dim3::linear(4), Dim3::linear(32), &args).unwrap();
    download(drv, dout, input.len())
}

fn pin_stencil(drv: &Driver) -> Vec<u8> {
    let (h, w) = (10u32, 128u32);
    let f = load(drv, "stencil", format!(".version 6.0\n{}", kernels::stencil5("step")), "step");
    let init = words((0..h * w).map(|i| ((i % 17) as f32).to_bits()));
    let (a, b) = (upload(drv, &init), upload(drv, &vec![0u8; init.len()]));
    let args = [KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::U32(h), KernelArg::U32(w)];
    drv.launch_kernel(&f, Dim3::linear(h - 2), Dim3::linear(128), &args).unwrap();
    download(drv, b, init.len())
}

fn pin_spmv(drv: &Driver) -> Vec<u8> {
    let rows = 200u32; // 4 CTAs of 64, the last one partially past `rows`
    let f = load(drv, "spmv", format!(".version 6.0\n{}", kernels::spmv_csr("spmv")), "spmv");
    let (mut rowptr, mut cols) = (vec![0u32], Vec::new());
    for r in 0..rows {
        cols.extend((0..=(r % 9)).map(|j| (r * 7 + j * 13) % rows));
        rowptr.push(cols.len() as u32);
    }
    let vals = words((0..cols.len() as u32).map(|i| (1.0 / (1.0 + i as f32)).to_bits()));
    let y = upload(drv, &vec![0u8; rows as usize * 4]);
    let args = [
        KernelArg::Ptr(upload(drv, &words(rowptr))),
        KernelArg::Ptr(upload(drv, &words(cols))),
        KernelArg::Ptr(upload(drv, &vals)),
        KernelArg::Ptr(upload(drv, &words((0..rows).map(|i| (i as f32 * 0.5).to_bits())))),
        KernelArg::Ptr(y),
        KernelArg::U32(rows),
    ];
    drv.launch_kernel(&f, Dim3::linear(4), Dim3::linear(64), &args).unwrap();
    download(drv, y, rows as usize * 4)
}

/// Runs one pinned app natively (`tool` 0), under the executed-level
/// coalesced instruction counter (1) or under the channel memory trace (2).
/// Returns the pinned text and the statistics of every launch.
fn pin_run(app: PinApp, tool: usize, sched: Scheduler) -> (String, Vec<ExecStats>) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = sched);
    let sig: Box<dyn Fn() -> u64> = match tool {
        0 => Box::new(|| 0),
        1 => {
            let (t, r) = CoalescedInstrCount::executed(PlanOpts::default());
            attach_tool(&drv, t);
            Box::new(move || r.total())
        }
        _ => {
            let (t, r) = MemTrace::channel(Backpressure::Block, 4096);
            attach_tool(&drv, t);
            Box::new(move || {
                fnv1a(&r.addresses().iter().flat_map(|a| a.to_le_bytes()).collect::<Vec<_>>())
                    ^ r.demanded()
            })
        }
    };
    let out = app(&drv);
    drv.shutdown();
    let launches = drv.launches().into_iter().map(|l| l.stats).collect();
    (format!("{:?} out={:016x} tool={:x}", drv.total_stats(), fnv1a(&out), sig()), launches)
}

/// `pin_run`'s text without the `decode_hits` / `decode_misses` fields that
/// end the `ExecStats`.
fn strip_decode(text: &str) -> String {
    let (head, tail) = text.split_once(", decode_hits: ").unwrap();
    format!("{head} }}{}", tail.split_once(" }").unwrap().1)
}

/// `(decode_hits, decode_misses)` of each launch.
fn decode_pairs(launches: &[ExecStats]) -> Vec<(u64, u64)> {
    launches.iter().map(|s| (s.decode_hits, s.decode_misses)).collect()
}

/// A pinned guest application: runs one kernel, returns its output buffer.
type PinApp = fn(&Driver) -> Vec<u8>;

const PIN_APPS: [(&str, PinApp); 3] =
    [("fft", pin_fft), ("stencil", pin_stencil), ("spmv", pin_spmv)];

/// `PINNED[app][tool]` (see above for what was recorded when), without the
/// decode counters.
#[rustfmt::skip]
const PINNED: [[&str; 3]; 3] = [
    [
        r#"ExecStats { warp_instructions: 776, thread_instructions: 24832, cycles: 2552, per_op: {"EXIT": 4, "FADD": 40, "FFMA": 80, "FMUL": 80, "I2F": 20, "IADD": 16, "IMAD": 8, "ISETP": 20, "LDC": 8, "LDG": 4, "LOP": 80, "MOV": 92, "MOV32I": 88, "MUFU": 40, "S2R": 16, "SEL": 40, "SHFL": 48, "SHL": 24, "SHR": 24, "STG": 4, "STL": 40}, per_category: {Integer: 152, Float: 240, Conversion: 20, Move: 236, Predicate: 20, Warp: 48, MemGlobal: 8, MemLocal: 40, MemConst: 8, Control: 4}, mem: MemStats { global_loads: 4, global_stores: 4, global_lines: 16, shared_accesses: 0, local_accesses: 40, atomics: 0 } } out=b8603c3557e16e12 tool=0"#,
        r#"ExecStats { warp_instructions: 808, thread_instructions: 25856, cycles: 3208, per_op: {"EXIT": 4, "FADD": 40, "FFMA": 80, "FMUL": 80, "I2F": 20, "IADD": 24, "IMAD": 8, "ISETP": 20, "JMP": 12, "LDC": 8, "LDG": 4, "LOP": 80, "MOV": 92, "MOV32I": 96, "MUFU": 40, "RED": 4, "S2R": 16, "SEL": 40, "SHFL": 48, "SHL": 24, "SHR": 24, "STG": 4, "STL": 40}, per_category: {Integer: 160, Float: 240, Conversion: 20, Move: 244, Predicate: 20, Warp: 48, MemGlobal: 8, MemLocal: 40, MemConst: 8, Atomic: 4, Control: 16}, mem: MemStats { global_loads: 4, global_stores: 4, global_lines: 16, shared_accesses: 0, local_accesses: 40, atomics: 128 } } out=b8603c3557e16e12 tool=6100"#,
        r#"ExecStats { warp_instructions: 808, thread_instructions: 25856, cycles: 2640, per_op: {"CHAN": 8, "EXIT": 4, "FADD": 40, "FFMA": 80, "FMUL": 80, "I2F": 20, "IADD": 24, "IMAD": 8, "ISETP": 20, "JMP": 16, "LDC": 8, "LDG": 4, "LOP": 80, "MOV": 92, "MOV32I": 88, "MUFU": 40, "S2R": 16, "SEL": 40, "SHFL": 48, "SHL": 24, "SHR": 24, "STG": 4, "STL": 40}, per_category: {Integer: 160, Float: 240, Conversion: 20, Move: 236, Predicate: 20, Warp: 48, MemGlobal: 8, MemLocal: 40, MemConst: 8, Control: 20, Misc: 8}, mem: MemStats { global_loads: 4, global_stores: 4, global_lines: 16, shared_accesses: 0, local_accesses: 40, atomics: 0 } } out=b8603c3557e16e12 tool=ff766d31aeb3ba25"#,
    ],
    [
        r#"ExecStats { warp_instructions: 1256, thread_instructions: 37568, cycles: 7768, per_op: {"BRA": 64, "EXIT": 32, "FADD": 96, "FMUL": 32, "IADD": 160, "IMAD": 128, "ISETP": 64, "ISUB": 96, "LDC": 128, "LDG": 128, "MOV32I": 96, "S2R": 128, "SSY": 32, "STG": 32, "SYNC": 40}, per_category: {Integer: 384, Float: 128, Move: 224, Predicate: 64, MemGlobal: 160, MemConst: 128, Control: 168}, mem: MemStats { global_loads: 128, global_stores: 32, global_lines: 256, shared_accesses: 0, local_accesses: 0, atomics: 0 } } out=97893c015a8fd601 tool=0"#,
        r#"ExecStats { warp_instructions: 1896, thread_instructions: 55872, cycles: 14168, per_op: {"BRA": 64, "EXIT": 32, "FADD": 96, "FMUL": 32, "IADD": 352, "IMAD": 128, "ISETP": 64, "ISUB": 96, "JMP": 352, "LDC": 128, "LDG": 128, "MOV32I": 160, "RED": 32, "S2R": 128, "SSY": 32, "STG": 32, "SYNC": 40}, per_category: {Integer: 576, Float: 128, Move: 288, Predicate: 64, MemGlobal: 160, MemConst: 128, Atomic: 32, Control: 520}, mem: MemStats { global_loads: 128, global_stores: 32, global_lines: 256, shared_accesses: 0, local_accesses: 0, atomics: 1024 } } out=97893c015a8fd601 tool=92c0"#,
        r#"ExecStats { warp_instructions: 1896, thread_instructions: 57728, cycles: 9528, per_op: {"BRA": 64, "CHAN": 160, "EXIT": 32, "FADD": 96, "FMUL": 32, "IADD": 320, "IMAD": 128, "ISETP": 64, "ISUB": 96, "JMP": 320, "LDC": 128, "LDG": 128, "MOV32I": 96, "S2R": 128, "SSY": 32, "STG": 32, "SYNC": 40}, per_category: {Integer: 544, Float: 128, Move: 224, Predicate: 64, MemGlobal: 160, MemConst: 128, Control: 488, Misc: 160}, mem: MemStats { global_loads: 128, global_stores: 32, global_lines: 256, shared_accesses: 0, local_accesses: 0, atomics: 0 } } out=97893c015a8fd601 tool=4657b84338f6e365"#,
    ],
    [
        r#"ExecStats { warp_instructions: 1277, thread_instructions: 22246, cycles: 14465, per_op: {"BRA": 141, "EXIT": 8, "FFMA": 63, "IADD": 274, "IMAD": 141, "ISETP": 78, "LDC": 48, "LDG": 203, "MOV32I": 140, "S2R": 24, "SSY": 15, "STG": 7, "STL": 64, "SYNC": 71}, per_category: {Integer: 415, Float: 63, Move: 164, Predicate: 78, MemGlobal: 210, MemLocal: 64, MemConst: 48, Control: 235}, mem: MemStats { global_loads: 203, global_stores: 7, global_lines: 944, shared_accesses: 0, local_accesses: 64, atomics: 0 } } out=07f610e15041ac89 tool=0"#,
        r#"ExecStats { warp_instructions: 1987, thread_instructions: 34350, cycles: 17715, per_op: {"BRA": 141, "EXIT": 8, "FFMA": 63, "IADD": 508, "IMAD": 141, "ISETP": 78, "JMP": 452, "LDC": 48, "LDG": 203, "MOV32I": 156, "RED": 8, "S2R": 24, "SSY": 15, "STG": 7, "STL": 64, "SYNC": 71}, per_category: {Integer: 649, Float: 63, Move: 180, Predicate: 78, MemGlobal: 210, MemLocal: 64, MemConst: 48, Atomic: 8, Control: 687}, mem: MemStats { global_loads: 203, global_stores: 7, global_lines: 944, shared_accesses: 0, local_accesses: 64, atomics: 256 } } out=07f610e15041ac89 tool=56e6"#,
        r#"ExecStats { warp_instructions: 2117, thread_instructions: 36562, cycles: 16775, per_op: {"BRA": 141, "CHAN": 210, "EXIT": 8, "FFMA": 63, "IADD": 484, "IMAD": 141, "ISETP": 78, "JMP": 420, "LDC": 48, "LDG": 203, "MOV32I": 140, "S2R": 24, "SSY": 15, "STG": 7, "STL": 64, "SYNC": 71}, per_category: {Integer: 625, Float: 63, Move: 164, Predicate: 78, MemGlobal: 210, MemLocal: 64, MemConst: 48, Control: 655, Misc: 210}, mem: MemStats { global_loads: 203, global_stores: 7, global_lines: 944, shared_accesses: 0, local_accesses: 64, atomics: 0 } } out=07f610e15041ac89 tool=e488e4d4eba9"#,
    ],
];

/// `PINNED_DECODE[app][tool]`: `(decode_hits, decode_misses)` of the app's one
/// launch — misses are the instruction slots decoded, one per distinct
/// executed instruction; hits every other warp instruction.
const PINNED_DECODE: [[(u64, u64); 3]; 3] = [
    [(582, 194), (606, 202), (606, 202)],
    [(1217, 39), (1837, 59), (1837, 59)],
    [(1228, 49), (1915, 72), (2044, 73)],
];

#[test]
fn exec_stats_and_outputs_match_the_pinned_parent_values() {
    for (((name, app), pins), decode) in PIN_APPS.iter().zip(PINNED).zip(PINNED_DECODE) {
        for (tool, (pin, decode)) in pins.iter().zip(decode).enumerate() {
            for sched in [Scheduler::Serial, Scheduler::Parallel { threads: 4 }] {
                let (text, launches) = pin_run(*app, tool, sched);
                assert_eq!(strip_decode(&text), *pin, "{name} × tool {tool} × {sched:?}");
                assert_eq!(decode_pairs(&launches), [decode], "{name} × tool {tool} × {sched:?}");
            }
        }
    }
}

/// Every step of every launch is a decode hit or a decode miss, and which
/// is which does not depend on how many workers race to fill the shared
/// code pages.
#[test]
fn decode_counters_partition_each_launch_identically_under_every_scheduler() {
    for (name, app) in PIN_APPS {
        for tool in 0..3 {
            let serial = pin_run(app, tool, Scheduler::Serial).1;
            for s in &serial {
                assert_eq!(s.decode_hits + s.decode_misses, s.warp_instructions, "{name} × {tool}");
            }
            for threads in [1, 2, 3, 8] {
                let parallel = pin_run(app, tool, Scheduler::Parallel { threads }).1;
                assert_eq!(
                    decode_pairs(&parallel),
                    decode_pairs(&serial),
                    "{name} × tool {tool} × {threads} workers"
                );
            }
        }
    }
}
