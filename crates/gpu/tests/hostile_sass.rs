//! Hostile straight-line SASS at launch, in both encoding families.
//!
//! Each case is one to eight instructions drawn from every opcode without a
//! control-flow class, then `EXIT`. Operands follow the opcode's format with
//! random registers, predicates, immediates, memory offsets, constant banks
//! and special registers; modifiers come from each field's whole range (the
//! barrier slot stays zero, which `Enc64` cannot encode otherwise) and the
//! guard is random. The program runs as one CTA of 48 threads (the
//! second warp is partial) with one global buffer parameter and no channel
//! attached. The executor reads operands by their format position and keeps
//! only the faults guest bytes can reach, so a launch ends `Ok` or in
//! `GpuError::Fault`, never in a panic. Control flow is left out: a random
//! loop would run to the step limit. `NVBIT_PROP_SEED` replays one case.

use common::prop::run_cases;
use common::Rng;
use gpu::{Device, DeviceSpec, Dim3, GpuError, LaunchConfig};
use sass::codec::codec_for;
use sass::op::{CfClass, IType, OKind, SubOp};
use sass::{
    Arch, CmpOp, Guard, Instruction, Mods, Op, Operand, Pred, Reg, SpecialReg, Width, PARAM_BASE,
};

const CASES: u32 = 1500;

/// Any of the 256 registers, with `RZ` and the top of the file (where a pair
/// or a quad would run past its end) drawn more often.
fn arb_reg(rng: &mut Rng) -> Reg {
    match rng.index(8) {
        0 => Reg::RZ,
        1 => Reg(rng.gen_range(248u8..255)),
        _ => Reg(rng.next_u32() as u8),
    }
}

fn arb_pred(rng: &mut Rng) -> Operand {
    Operand::Pred { pred: Pred(rng.gen_range(0u8..8)), negated: rng.gen_bool() }
}

/// Small, medium or full-width: the codec refuses what its field cannot hold.
fn arb_imm(rng: &mut Rng) -> i64 {
    match rng.index(3) {
        0 => rng.gen_range(-16i64..16),
        1 => rng.gen_range(-(1i64 << 17)..(1i64 << 17)),
        _ => rng.next_u32() as i32 as i64,
    }
}

fn arb_operand(rng: &mut Rng, kind: OKind) -> Operand {
    match kind {
        OKind::RegW | OKind::RegR => Operand::Reg(arb_reg(rng)),
        OKind::RegRI if rng.gen_bool() => Operand::Reg(arb_reg(rng)),
        OKind::RegRI | OKind::Imm32 => Operand::Imm(arb_imm(rng)),
        OKind::PredW | OKind::PredR => arb_pred(rng),
        OKind::MRef | OKind::MRefAtom => {
            Operand::MRef { base: arb_reg(rng), offset: arb_imm(rng) as i32 }
        }
        // Often the buffer parameter, so that later accesses can land.
        OKind::CBankRef => {
            let any = rng.next_u32() as u16;
            Operand::CBank {
                bank: rng.gen_range(0u8..4),
                base: if rng.gen_bool() { Reg::RZ } else { arb_reg(rng) },
                offset: *rng.choose(&[PARAM_BASE, PARAM_BASE + 4, any]),
            }
        }
        OKind::SReg => Operand::SReg(*rng.choose(&SpecialReg::ALL)),
        OKind::Rel | OKind::Abs => unreachable!("no control flow is drawn"),
    }
}

fn arb_mods(rng: &mut Rng) -> Mods {
    Mods {
        width: *rng.choose(&Width::ALL),
        itype: *rng.choose(&IType::ALL),
        cmp: *rng.choose(&CmpOp::ALL),
        sub: *rng.choose(&SubOp::ALL),
        barrier: 0,
    }
}

fn arb_instruction(rng: &mut Rng, ops: &[Op]) -> Instruction {
    let op = *rng.choose(ops);
    let operands: Vec<Operand> = op.format().iter().map(|k| arb_operand(rng, *k)).collect();
    let guard = Guard { pred: Pred(rng.gen_range(0u8..8)), negated: rng.gen_bool() };
    Instruction::try_new(op, &operands).unwrap().with_guard(guard).with_mods(arb_mods(rng))
}

/// Encodes `instrs` for `arch`, leaving out (and counting) every word the
/// codec refuses, then `EXIT`.
fn encode(arch: Arch, instrs: &[Instruction], refused: &mut usize) -> Vec<u8> {
    let codec = codec_for(arch);
    let mut code = Vec::new();
    for instr in instrs {
        let mut word = Vec::new();
        match codec.encode_into(instr, &mut word) {
            Ok(()) => code.extend(word),
            Err(_) => *refused += 1,
        }
    }
    codec.encode_into(&Instruction::new(Op::Exit, []), &mut code).unwrap();
    code
}

fn launch(arch: Arch, code: &[u8]) -> gpu::Result<gpu::LaunchStats> {
    let mut spec = DeviceSpec::test(arch);
    spec.global_mem = 1 << 20;
    let mut dev = Device::new(spec);
    let pc = dev.alloc(code.len() as u64).unwrap();
    dev.write(pc, code).unwrap();
    let buf = dev.alloc(256).unwrap();
    let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(48));
    cfg.push_param_u64(buf);
    dev.launch(&cfg)
}

#[test]
fn hostile_straight_line_sass_ends_ok_or_in_a_fault() {
    let ops: Vec<Op> =
        Op::ALL.iter().copied().filter(|op| op.cf_class() == CfClass::None).collect();
    let (mut drawn, mut refused, mut faults) = (0, 0, 0);
    run_cases("hostile_straight_line_sass_ends_ok_or_in_a_fault", CASES, |rng| {
        let instrs: Vec<Instruction> =
            (0..rng.gen_range(1usize..9)).map(|_| arb_instruction(rng, &ops)).collect();
        for arch in [Arch::Pascal, Arch::Volta] {
            drawn += instrs.len();
            match launch(arch, &encode(arch, &instrs, &mut refused)) {
                Ok(_) => {}
                Err(GpuError::Fault { .. }) => faults += 1,
                Err(e) => panic!("{arch:?}: {e}\n{instrs:#?}"),
            }
        }
    });
    println!(
        "{drawn} instructions drawn, {refused} refused by the codec, {faults} launches faulted"
    );
    // The codec refuses only out-of-range immediates and offsets: most of
    // what is drawn runs.
    assert!(refused * 4 < drawn, "{refused} of {drawn} refused");
}
