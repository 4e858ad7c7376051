//! Property-based testing of the instrumentation core at workspace level:
//! instrumenting *any* subset of a kernel's instructions — at any mix of
//! injection points — must preserve the application's semantics exactly.

use common::prop::{run_cases, vec_of};
use common::Rng;
use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool, SavePolicy};
use sass::op::IType;
use sass::{Arch, CmpOp, Guard, Instruction, Mods, Op, Operand, Pred, Reg, SpecialReg, SubOp};

const COUNT_FN: &str = r#"
.func pcount(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    mov.u64 %rd1, 1;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

/// A kernel exercising branches, loops, predication, shared memory, calls
/// and warp intrinsics — every structure the trampolines must preserve.
const APP: &str = r#"
.func (.reg .u32 %out) mix(.reg .u32 %x)
{
    .reg .u32 %t<3>;
    mul.lo.u32 %t1, %x, 3;
    add.u32 %out, %t1, 7;
    ret;
}
.entry gauntlet(.param .u64 buf, .param .u32 n)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<6>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 tile[256];
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    // Stage into shared and barrier.
    shl.b32 %r3, %r2, 2;
    st.shared.u32 [%r3], %r2;
    bar.sync 0;
    // Divergent accumulation loop (trip count = tid % 5).
    and.b32 %r4, %r2, 3;
    mov.u32 %r5, 0;
    mov.u32 %r6, 0;
LOOP:
    setp.ge.u32 %p1, %r6, %r4;
    @%p1 bra LDONE;
    add.u32 %r5, %r5, %r6;
    add.u32 %r6, %r6, 1;
    bra LOOP;
LDONE:
    // Device-function call.
    call (%r7), mix, (%r5);
    // Warp reduction.
    shfl.bfly.b32 %r8, %r7, 1;
    add.u32 %r7, %r7, %r8;
    // Read the neighbour's staged value.
    xor.b32 %r9, %r3, 4;
    ld.shared.u32 %r9, [%r9];
    add.u32 %r7, %r7, %r9;
    // Guarded store.
    setp.ge.u32 %p2, %r2, %r1;
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    @!%p2 st.global.u32 [%rd3], %r7;
    exit;
}
"#;

struct SubsetTool {
    sites: Vec<(usize, bool)>, // (instruction index, after?)
    counter: u64,
    done: bool,
}

impl NvbitTool for SubsetTool {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(COUNT_FN).unwrap();
        self.counter = api.driver().with_device(|d| d.alloc(8)).unwrap();
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel || self.done {
            return;
        }
        self.done = true;
        let n = api.get_instrs(*func).unwrap().len();
        for (idx, after) in &self.sites {
            let idx = idx % n;
            let ipoint = if *after { IPoint::After } else { IPoint::Before };
            api.insert_call(*func, idx, "pcount", ipoint).unwrap();
            api.add_call_arg_guard_pred(*func, idx).unwrap();
            api.add_call_arg_imm64(*func, idx, self.counter).unwrap();
        }
    }
}

fn run_gauntlet(sites: Option<Vec<(usize, bool)>>) -> Vec<u8> {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    if let Some(sites) = sites {
        attach_tool(&drv, SubsetTool { sites, counter: 0, done: false });
    }
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "gauntlet").unwrap();
    let buf = drv.mem_alloc(512).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(2),
        Dim3::linear(64),
        &[KernelArg::Ptr(buf), KernelArg::U32(100)],
    )
    .unwrap();
    let mut out = vec![0u8; 512];
    drv.memcpy_dtoh(&mut out, buf).unwrap();
    drv.shutdown();
    out
}

/// Any subset of instrumentation sites (before or after, possibly
/// stacked on the same instruction) leaves the application output
/// byte-identical.
#[test]
fn any_instrumentation_subset_preserves_semantics() {
    run_cases("any_instrumentation_subset_preserves_semantics", 12, |rng| {
        let sites = vec_of(rng, 0..12, |r| (r.gen_range(0usize..64), r.gen_bool()));
        let native = run_gauntlet(None);
        let instrumented = run_gauntlet(Some(sites.clone()));
        assert_eq!(native, instrumented, "sites {sites:?} corrupted the app");
    });
}

// ----- Random SASS kernels under the exact save brackets -------------------
//
// The PTX compiler allocates registers its own way; to put live ranges
// wherever the generator wants them across R0–R23 — on top of the spliced
// body's own R4–R9 window, and sparse enough elsewhere that renaming has
// dead pairs to move onto — these kernels are built as SASS directly.

/// The registers the generator draws from: R0–R23 minus the stack pointer.
const POOL: [u8; 23] =
    [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23];

fn reg(r: u8) -> Operand {
    Operand::Reg(Reg(r))
}

/// One random ALU, move or compare instruction over `regs` and `preds`,
/// half of them guarded by a random predicate.
fn alu(rng: &mut Rng, regs: &[u8], preds: u8) -> Instruction {
    let pick = |rng: &mut Rng| regs[rng.gen_range(0..regs.len())];
    let (d, a, b) = (pick(rng), pick(rng), pick(rng));
    let ins = match rng.gen_range(0..5u32) {
        0 => Instruction::new(Op::Iadd, [reg(d), reg(a), reg(b)]),
        1 => Instruction::new(Op::Lop, [reg(d), reg(a), reg(b)])
            .with_mods(Mods { sub: SubOp::Xor, ..Mods::default() }),
        2 => Instruction::new(Op::Iadd, [reg(d), reg(a), Operand::Imm(rng.gen_range(1..99i64))]),
        3 => Instruction::new(Op::Mov, [reg(d), reg(a)]),
        _ => Instruction::new(
            Op::Isetp,
            [Operand::pred(Pred(rng.gen_range(0..preds))), reg(a), reg(b)],
        )
        .with_mods(Mods { cmp: CmpOp::Lt, itype: IType::U32, ..Mods::default() }),
    };
    if rng.gen_bool() {
        ins.with_guard(Guard { pred: Pred(rng.gen_range(0..preds)), negated: rng.gen_bool() })
    } else {
        ins
    }
}

/// A random kernel `k(out)`: seed a random subset of the pool from the
/// thread id, run random instructions over it — straight-line, optionally
/// past a guarded early `EXIT` and through a two-armed `SSY`/`SYNC` diamond —
/// then fold every seeded
/// register into one word, in random order (so live ranges end at random
/// points), and store it at `out[tid]`.
fn random_kernel(rng: &mut Rng) -> Vec<Instruction> {
    let mut regs: Vec<u8> = POOL.iter().copied().filter(|_| rng.gen_range(0..3u32) > 0).collect();
    if regs.len() < 3 {
        regs = POOL[..6].to_vec();
    }
    let preds = rng.gen_range(1..8u8);
    let tid = regs[0];
    let mut k = vec![Instruction::new(Op::S2r, [reg(tid), Operand::SReg(SpecialReg::TidX)])];
    for &r in &regs[1..] {
        let seed = Operand::Imm(rng.gen_range(1..1000i64));
        k.push(Instruction::new(Op::Iadd, [reg(r), reg(tid), seed]));
    }
    let straight =
        |rng: &mut Rng, n: std::ops::Range<usize>| vec_of(rng, n, |r| alu(r, &regs, preds));
    k.extend(straight(rng, 1..10));
    if rng.gen_bool() {
        // The bounds-check shape: some lanes retire early at a guarded EXIT,
        // the rest run on and still need everything seeded above.
        let p = Pred(rng.gen_range(0..preds));
        let bound = Operand::Imm(rng.gen_range(4..30i64));
        k.push(Instruction::new(Op::Isetp, [Operand::pred(p), reg(tid), bound]).with_mods(Mods {
            cmp: CmpOp::Ge,
            itype: IType::U32,
            ..Mods::default()
        }));
        k.push(Instruction::new(Op::Exit, []).with_guard(Guard { pred: p, negated: false }));
        k.extend(straight(rng, 1..6));
    }
    if rng.gen_bool() {
        let p = Pred(rng.gen_range(0..preds));
        let (arm_a, arm_b) = (straight(rng, 1..6), straight(rng, 1..6));
        let mods = Mods { barrier: 1, ..Mods::default() };
        let skip = |n: usize| Operand::Rel(16 * n as i64);
        k.push(
            Instruction::new(Op::Isetp, [Operand::pred(p), reg(tid), Operand::Imm(13)])
                .with_mods(Mods { cmp: CmpOp::Lt, itype: IType::U32, ..Mods::default() }),
        );
        k.push(Instruction::new(Op::Ssy, [skip(arm_a.len() + arm_b.len() + 3)]).with_mods(mods));
        k.push(
            Instruction::new(Op::Bra, [skip(arm_a.len() + 1)])
                .with_guard(Guard { pred: p, negated: false }),
        );
        k.extend(arm_a);
        k.push(Instruction::new(Op::Sync, []).with_mods(mods));
        k.extend(arm_b);
        k.push(Instruction::new(Op::Sync, []).with_mods(mods));
        k.extend(straight(rng, 1..6));
    }
    // Fold, in a random order, into the first register folded.
    let mut order = regs.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let acc = order[0];
    for &r in &order[1..] {
        k.push(
            Instruction::new(Op::Lop, [reg(acc), reg(acc), reg(r)])
                .with_mods(Mods { sub: SubOp::Xor, ..Mods::default() }),
        );
    }
    // out[tid] = acc, through registers the fold has finished with.
    let (base, idx, four) = match acc {
        2..=4 => (6, 8, 9),
        _ => (2, 4, 5),
    };
    let out = Operand::CBank { bank: 0, base: Reg::RZ, offset: 0x160 };
    k.push(
        Instruction::new(Op::Ldc, [reg(base), out])
            .with_mods(Mods { width: sass::Width::B64, ..Mods::default() }),
    );
    k.push(Instruction::new(Op::S2r, [reg(idx), Operand::SReg(SpecialReg::TidX)]));
    k.push(Instruction::new(Op::Mov32i, [reg(four), Operand::Imm(4)]));
    k.push(
        Instruction::new(Op::Imad, [reg(base), reg(idx), reg(four), reg(base)])
            .with_mods(Mods { itype: IType::U64, ..Mods::default() }),
    );
    k.push(Instruction::new(Op::Stg, [Operand::MRef { base: Reg(base), offset: 0 }, reg(acc)]));
    k.push(Instruction::new(Op::Exit, []));
    k
}

/// Injects `pcount` at every instruction, `Before` or `After` per `after`.
struct EverywhereTool {
    after: Vec<bool>,
    policy: SavePolicy,
    counter: u64,
    done: bool,
    /// The counter's final value, published at termination.
    count: std::rc::Rc<std::cell::Cell<u64>>,
}

impl NvbitTool for EverywhereTool {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_save_policy(self.policy);
        api.load_tool_functions(COUNT_FN).unwrap();
        self.counter = api.driver().with_device(|d| d.alloc(8)).unwrap();
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        let mut b = [0u8; 8];
        api.driver().memcpy_dtoh(&mut b, self.counter).unwrap();
        self.count.set(u64::from_le_bytes(b));
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel || std::mem::replace(&mut self.done, true) {
            return;
        }
        for idx in 0..api.get_instrs(*func).unwrap().len() {
            let ipoint = if self.after[idx] { IPoint::After } else { IPoint::Before };
            api.insert_call(*func, idx, "pcount", ipoint).unwrap();
            api.add_call_arg_guard_pred(*func, idx).unwrap();
            api.add_call_arg_imm64(*func, idx, self.counter).unwrap();
        }
    }
}

/// Runs `kernel` (64 threads in 2 CTAs) natively or under the tool and
/// returns the output buffer plus the tool's count.
fn run_sass(
    kernel: &[Instruction],
    tool: Option<(Vec<bool>, SavePolicy)>,
    sched: Scheduler,
) -> (Vec<u8>, u64) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = sched);
    let count = std::rc::Rc::new(std::cell::Cell::new(0));
    if let Some((after, policy)) = tool {
        let count = count.clone();
        attach_tool(&drv, EverywhereTool { after, policy, counter: 0, done: false, count });
    }
    // A compiled stub supplies the parameter layout; its code is replaced.
    let mut image =
        ptx::compile_module(".entry k(.param .u64 out) { exit; }", Arch::Volta).unwrap();
    image.functions[0].code = sass::codec::codec_for(Arch::Volta).encode_stream(kernel).unwrap();
    image.functions[0].reg_count = 24;
    let ctx = drv.ctx_create().unwrap();
    let fatbin = FatBinary { name: "sass".into(), library: false, images: vec![image], ptx: None };
    let m = drv.module_load(&ctx, fatbin).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let buf = drv.mem_alloc(64 * 4).unwrap();
    drv.launch_kernel(&f, Dim3::linear(2), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
    let mut out = vec![0u8; 64 * 4];
    drv.memcpy_dtoh(&mut out, buf).unwrap();
    drv.shutdown();
    (out, count.get())
}

/// Random straight-line and diamond kernels with random live ranges through
/// R0–R23, instrumented at every instruction: the output equals native under
/// both save policies and both schedulers, and the tool counts the same.
#[test]
fn random_live_ranges_survive_instrumentation_at_every_instruction() {
    run_cases("random_live_ranges_survive_instrumentation_at_every_instruction", 48, |rng| {
        let kernel = random_kernel(rng);
        let after: Vec<bool> = kernel.iter().map(|_| rng.gen_bool()).collect();
        let listing = sass::asm::disassemble(&kernel);
        let (native, _) = run_sass(&kernel, None, Scheduler::Serial);
        let full =
            run_sass(&kernel, Some((after.clone(), SavePolicy::FullTier)), Scheduler::Serial);
        assert_eq!(full.0, native, "full-tier saves corrupted:\n{listing}");
        for sched in [Scheduler::Serial, Scheduler::Parallel { threads: 2 }] {
            let live = run_sass(&kernel, Some((after.clone(), SavePolicy::Liveness)), sched);
            assert_eq!(live.0, native, "exact saves corrupted ({after:?}, {sched:?}):\n{listing}");
            assert_eq!(live.1, full.1, "tool count differs ({sched:?}):\n{listing}");
            assert!(live.1 > 0, "the tool counted nothing:\n{listing}");
        }
    });
}

/// With all seven predicates live across a site, the spliced body's own
/// predicate has no dead one to move onto: those calls keep the save
/// routines (which save the predicate file) — same output, same count.
#[test]
fn a_site_with_every_predicate_live_keeps_the_application_intact() {
    let sets: String =
        (0..7).map(|p| format!("ISETP.LT.U32 P{p}, R0, {:#x} ;\n", 4 * p + 2)).collect();
    let uses: String = (0..7).map(|p| format!("@P{p} IADD R4, R4, {:#x} ;\n", 1 << p)).collect();
    let text = format!(
        "S2R R0, SR_TID.X ;\n{sets}MOV32I R4, 0x0 ;\n{uses}\
         LDC.64 R2, c[0x0][0x160] ;\nMOV32I R5, 0x4 ;\nIMAD.U64 R2, R0, R5, R2 ;\n\
         STG [R2], R4 ;\nEXIT ;"
    );
    let kernel = sass::asm::assemble_arch(&text, Arch::Volta).unwrap();
    let after = vec![false; kernel.len()];
    let (native, _) = run_sass(&kernel, None, Scheduler::Serial);
    assert_eq!(native[4 * 9..4 * 10], 0x7cu32.to_le_bytes(), "lane 9 holds P2..P6");
    let full = run_sass(&kernel, Some((after.clone(), SavePolicy::FullTier)), Scheduler::Serial);
    let live = run_sass(&kernel, Some((after, SavePolicy::Liveness)), Scheduler::Serial);
    assert_eq!((&full.0, &live.0), (&native, &native));
    assert_eq!(live.1, full.1);
}
