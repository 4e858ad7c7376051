//! Property-based tests for the ISA layer: codec and assembler round-trips
//! over randomly generated, family-legal instructions.

use common::prop::{run_cases, vec_of};
use common::Rng;
use sass::codec::{codec_for, ENC128, ENC64};
use sass::op::{IType, OKind, SubOp};
use sass::{
    asm, Arch, CmpOp, Guard, Instruction, Mods, Op, Operand, Pred, Reg, SassError, SpecialReg,
    Width,
};

const CASES: u32 = 256;

fn arb_reg(rng: &mut Rng) -> Reg {
    if rng.gen_range(0u32..10) == 0 {
        Reg::RZ
    } else {
        Reg(rng.gen_range(0u8..255))
    }
}

fn arb_pred_operand(rng: &mut Rng) -> Operand {
    Operand::Pred { pred: Pred(rng.gen_range(0u8..8)), negated: rng.gen_bool() }
}

fn arb_guard(rng: &mut Rng) -> Guard {
    Guard { pred: Pred(rng.gen_range(0u8..8)), negated: rng.gen_bool() }
}

/// Modifiers constrained to fields every opcode tolerates; the barrier slot
/// stays zero so the instruction encodes on both families.
fn arb_mods(rng: &mut Rng) -> Mods {
    let width = *rng.choose(&[Width::B32, Width::B64, Width::B128]);
    let itype = IType::from_index(rng.gen_range(0u8..4)).unwrap();
    let cmp = CmpOp::from_index(rng.gen_range(0u8..6)).unwrap();
    let sub =
        *rng.choose(&[SubOp::None, SubOp::Min, SubOp::Max, SubOp::Add, SubOp::Ballot, SubOp::Rcp]);
    Mods { width, itype, cmp, sub, barrier: 0 }
}

/// Generates an operand legal for `kind` on **both** encoding families
/// (immediates and offsets stay within the narrower Enc64 fields).
fn arb_operand(rng: &mut Rng, kind: OKind) -> Operand {
    match kind {
        OKind::RegW | OKind::RegR => Operand::Reg(arb_reg(rng)),
        OKind::RegRI => {
            if rng.gen_bool() {
                Operand::Reg(arb_reg(rng))
            } else {
                // SEL's immediate slot is the narrowest at 19 bits on ENC64.
                Operand::Imm(rng.gen_range(-(1i64 << 17)..(1i64 << 17)))
            }
        }
        OKind::PredW | OKind::PredR => arb_pred_operand(rng),
        OKind::MRef => {
            Operand::MRef { base: arb_reg(rng), offset: rng.gen_range(-(1i32 << 18)..(1i32 << 18)) }
        }
        OKind::MRefAtom => {
            Operand::MRef { base: arb_reg(rng), offset: rng.gen_range(-128i32..128) }
        }
        OKind::CBankRef => Operand::CBank {
            bank: rng.gen_range(0u8..4),
            base: arb_reg(rng),
            offset: rng.gen_range(0u32..u16::MAX as u32 + 1) as u16,
        },
        OKind::SReg => Operand::SReg(
            SpecialReg::from_index(rng.gen_range(0u8..SpecialReg::ALL.len() as u8)).unwrap(),
        ),
        OKind::Rel => Operand::Rel(rng.gen_range(-(1i64 << 30)..(1i64 << 30))),
        OKind::Abs => Operand::Abs(rng.gen_range(0u64..(1 << 39))),
        // PROXY's id field is the narrowest Imm32 slot at 24 bits on ENC64.
        OKind::Imm32 => Operand::Imm(rng.gen_range(-(1i64 << 22)..(1i64 << 22))),
    }
}

fn arb_instruction(rng: &mut Rng) -> Instruction {
    let op = *rng.choose(Op::ALL);
    let guard = arb_guard(rng);
    let mods = arb_mods(rng);
    let operands: Vec<Operand> = op.format().iter().map(|k| arb_operand(rng, *k)).collect();
    Instruction::try_new(op, &operands).unwrap().with_guard(guard).with_mods(mods)
}

#[test]
fn codec_roundtrip_enc64() {
    run_cases("codec_roundtrip_enc64", CASES, |rng| {
        let instr = arb_instruction(rng);
        let c = &ENC64;
        let bytes = c.encode_stream(&[instr]).unwrap();
        assert_eq!(bytes.len(), 8);
        assert_eq!(c.decode(&bytes).unwrap(), instr);
    });
}

#[test]
fn codec_roundtrip_enc128() {
    run_cases("codec_roundtrip_enc128", CASES, |rng| {
        let instr = arb_instruction(rng);
        let c = &ENC128;
        let bytes = c.encode_stream(&[instr]).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(c.decode(&bytes).unwrap(), instr);
    });
}

#[test]
fn assembler_roundtrip() {
    run_cases("assembler_roundtrip", CASES, |rng| {
        let instr = arb_instruction(rng);
        let text = instr.to_string();
        let parsed =
            asm::assemble(&text).unwrap_or_else(|e| panic!("could not re-assemble `{text}`: {e}"));
        assert_eq!(parsed.len(), 1);
        // The assembler cannot know mods that print nothing (e.g. a B64 width
        // on a non-memory op); compare via the canonical printed form.
        assert_eq!(parsed[0].to_string(), text);
    });
}

#[test]
fn streams_roundtrip_on_every_arch() {
    run_cases("streams_roundtrip_on_every_arch", CASES, |rng| {
        let prog = vec_of(rng, 1..40, arb_instruction);
        for arch in Arch::ALL {
            let c = codec_for(arch);
            let bytes = c.encode_stream(&prog).unwrap();
            assert_eq!(bytes.len(), prog.len() * c.instruction_size());
            assert_eq!(c.decode_stream(&bytes).unwrap(), prog);
        }
    });
}

#[test]
fn max_reg_is_consistent_with_use_def_sets() {
    run_cases("max_reg_is_consistent_with_use_def_sets", CASES, |rng| {
        let instr = arb_instruction(rng);
        let m = instr.max_reg();
        let all: Vec<_> = instr.reg_reads().iter().chain(&instr.reg_writes()).copied().collect();
        match m {
            None => assert!(all.is_empty()),
            Some(hi) => {
                assert!(all.iter().all(|r| r.0 <= hi));
                assert!(all.iter().any(|r| r.0 == hi));
            }
        }
    });
}

/// An operand list longer than an instruction holds is refused — by the
/// run-time constructor and by the assembler, whatever the operands are —
/// as `BadOperands`: no panic, and no instruction built from a prefix.
#[test]
fn operand_lists_past_the_bound_are_bad_operands() {
    run_cases("operand_lists_past_the_bound_are_bad_operands", CASES, |rng| {
        let instr = arb_instruction(rng);
        let extra = vec_of(rng, 1..6, |rng| arb_operand(rng, OKind::RegR));
        let long: Vec<Operand> = (0..4).map(|_| Operand::Reg(arb_reg(rng))).chain(extra).collect();
        let built = Instruction::try_new(instr.op, &long);
        assert!(matches!(built, Err(SassError::BadOperands { .. })), "{built:?}");
        let listed: Vec<String> = long.iter().map(Operand::to_string).collect();
        let text = format!("{}{} {} ;", instr.guard, instr.opcode_string(), listed.join(", "));
        let parsed = asm::assemble(&text);
        assert!(matches!(parsed, Err(SassError::BadOperands { .. })), "`{text}`: {parsed:?}");
    });
}

/// Decoding arbitrary bytes never panics — it either produces a valid
/// instruction or a structured error (important: the executor fetches
/// from memory an instrumentation tool may have mispatched). A valid one
/// has its opcode's operand format and names no predicate past `P7`: the
/// pre-swap verifier, which sees only decoded words, relies on both, and
/// the executor reads every operand by its format position on the strength
/// of the first.
#[test]
fn decoding_garbage_never_panics() {
    run_cases("decoding_garbage_never_panics", CASES, |rng| {
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        // Also a valid word with bits flipped: it mostly decodes, with
        // arbitrary operand and predicate fields.
        let mut near = [ENC64.encode_stream(&[arb_instruction(rng)]).unwrap(), vec![]];
        near[1] = ENC128.encode_stream(&[arb_instruction(rng)]).unwrap();
        for word in &mut near {
            for _ in 0..4 {
                let bit = rng.index(word.len() * 8);
                word[bit / 8] ^= 1 << (bit % 8);
            }
        }
        for decoded in [
            ENC64.decode(&bytes[..8]),
            ENC128.decode(&bytes[..16]),
            ENC64.decode(&near[0]),
            ENC128.decode(&near[1]),
        ] {
            let Ok(instr) = decoded else { continue };
            assert!(instr.validate().is_ok(), "{instr}");
            let preds = instr.operands.iter().filter_map(|o| match o {
                Operand::Pred { pred, .. } => Some(*pred),
                _ => None,
            });
            let mut named = std::iter::once(instr.guard.pred).chain(preds);
            assert!(named.all(|p| p.0 <= 7), "{instr}");
        }
    });
}

/// If garbage decodes, re-encoding the decoded instruction succeeds or
/// fails cleanly (no panics on out-of-range reconstructed fields).
#[test]
fn decode_then_encode_is_total() {
    run_cases("decode_then_encode_is_total", CASES, |rng| {
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        if let Ok(i) = ENC64.decode(&bytes[..8]) {
            let _ = ENC64.encode_stream(&[i]);
        }
        if let Ok(i) = ENC128.decode(&bytes[..16]) {
            let _ = ENC128.encode_stream(&[i]);
        }
    });
}

/// `Dataflow::bound` holds every live set of the solution it bounds, on
/// random bodies whose relative branches mostly land inside them; half of
/// the bodies have no call, return, trap or absolute jump, so the bound is
/// the body's reads rather than everything. The highest register its walk
/// finds is the highest any instruction names.
#[test]
fn the_liveness_bound_holds_every_live_set() {
    use sass::op::CfClass;
    use sass::{Dataflow, LiveSet};
    run_cases("the_liveness_bound_holds_every_live_set", CASES, |rng| {
        let stays = rng.gen_bool();
        let arch = *rng.choose(&Arch::ALL);
        let isize = arch.instruction_size() as i64;
        let mut prog = vec_of(rng, 1..40, |rng| loop {
            let i = arb_instruction(rng);
            let leaves = matches!(
                i.cf_class(),
                CfClass::RelCall
                    | CfClass::AbsCall
                    | CfClass::AbsJump
                    | CfClass::Ret
                    | CfClass::Trap
                    | CfClass::IndirectBranch
            );
            if !(stays && leaves) {
                break i;
            }
        });
        let n = prog.len() as i64;
        for (idx, i) in prog.iter_mut().enumerate() {
            if i.rel_target().is_some() && rng.gen_range(0u32..4) > 0 {
                i.set_rel_target((rng.gen_range(0..n) - idx as i64 - 1) * isize);
            }
        }
        let Ok(df) = Dataflow::analyze(&prog, arch) else { return };
        let (bound, max_reg) = Dataflow::bound(&prog, arch);
        assert_eq!(max_reg, prog.iter().filter_map(Instruction::max_reg).max());
        let inside = |l: &LiveSet| {
            l.gprs.iter().all(|r| bound.gprs.contains(Reg(r))) && l.preds & !bound.preds == 0
        };
        for idx in 0..prog.len() {
            assert!(inside(df.live_in(idx)) && inside(df.live_out(idx)), "{idx} of {prog:?}");
        }
    });
}
