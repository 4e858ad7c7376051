//! Binary instruction encoders/decoders for the two encoding families.
//!
//! Both families lay an instruction out as, from the least significant bit:
//!
//! ```text
//! | opcode | guard (4) | mods (12 or 16) | payload |
//! ```
//!
//! The payload is a sequential bit-stream of the operand fields in format
//! order. Register fields are 8 bits, predicate fields 4 bits (register +
//! negate). Immediate fields are **dynamically sized**: an immediate receives
//! every payload bit not claimed by the other fields of the format, capped at
//! 32 bits. This means the same opcode can carry a wider immediate on
//! [`ENC128`] than on [`ENC64`] — exactly the kind of per-family difference
//! NVBit's HAL exists to hide. Encoding a value that does not fit the
//! family's field yields [`SassError::FieldRange`]; code generators must
//! legalize (e.g. `MOV32I` + register operand).

use crate::arch::{Arch, EncodingFamily};
use crate::inst::{Guard, Instruction, Mods, Operand, Operands, Width};
use crate::op::{CmpOp, IType, OKind, Op, SubOp};
use crate::reg::{Pred, Reg, SpecialReg};
use crate::{Result, SassError};

/// The binary encoder/decoder of one encoding family, [`ENC64`] or [`ENC128`]
/// ([`codec_for`]): the family's field widths, all that tells the two apart.
#[derive(Debug)]
pub struct Codec {
    /// Total instruction size in bytes.
    size: usize,
    /// Bits of the opcode field.
    op_bits: u32,
    /// Bits of the modifier field (includes the barrier slot on `ENC128`).
    mods_bits: u32,
    /// Bits available to the operand payload.
    payload_bits: u32,
    /// Bits of a PC-relative target field (signed).
    rel_bits: u32,
    /// Bits of an absolute address field (unsigned).
    abs_bits: u32,
    /// Bits of a load/store base offset field (signed).
    mref_off_bits: u32,
    /// Bits of an atomic base offset field (signed).
    atom_off_bits: u32,
}

/// The 64-bit (8-byte) encoding used by Kepler/Maxwell/Pascal-class devices.
pub static ENC64: Codec = Codec {
    size: 8,
    op_bits: 8,
    mods_bits: 12,
    payload_bits: 40,
    rel_bits: 32,
    abs_bits: 40,
    mref_off_bits: 20,
    atom_off_bits: 8,
};

/// The 128-bit (16-byte) encoding used by Volta-class devices.
pub static ENC128: Codec = Codec {
    size: 16,
    op_bits: 12,
    mods_bits: 16,
    payload_bits: 96,
    rel_bits: 48,
    abs_bits: 48,
    mref_off_bits: 32,
    atom_off_bits: 16,
};

/// Returns the codec for an architecture's encoding family.
pub fn codec_for(arch: Arch) -> &'static Codec {
    match arch.family() {
        EncodingFamily::Enc64 => &ENC64,
        EncodingFamily::Enc128 => &ENC128,
    }
}

impl Codec {
    /// Size in bytes of every encoded instruction.
    pub fn instruction_size(&self) -> usize {
        self.size
    }

    /// Appends the [`Codec::instruction_size`] bytes of one instruction's
    /// encoding to `out` (untouched on error).
    ///
    /// # Errors
    ///
    /// [`SassError::BadOperands`] if the operand list violates the opcode's
    /// format, [`SassError::FieldRange`] if a field value does not fit.
    pub fn encode_into(&self, instr: &Instruction, out: &mut Vec<u8>) -> Result<()> {
        let word = encode_with(self, instr)?;
        out.extend_from_slice(&word.to_le_bytes()[..self.size]);
        Ok(())
    }

    /// Overwrites `word`, exactly [`Codec::instruction_size`] bytes, with one
    /// instruction's encoding (untouched on error).
    ///
    /// # Errors
    ///
    /// As [`Codec::encode_into`].
    ///
    /// # Panics
    ///
    /// Panics if `word` is not one instruction long.
    pub fn encode_to(&self, instr: &Instruction, word: &mut [u8]) -> Result<()> {
        word.copy_from_slice(&encode_with(self, instr)?.to_le_bytes()[..self.size]);
        Ok(())
    }

    /// Decodes one instruction from exactly [`Codec::instruction_size`] bytes.
    ///
    /// # Errors
    ///
    /// [`SassError::BadEncoding`] on invalid field values or wrong length.
    pub fn decode(&self, bytes: &[u8]) -> Result<Instruction> {
        // Decoding is on the simulator's fetch path: a copy per family, widths constant.
        if self.size == ENC64.size {
            decode_with(&ENC64, bytes)
        } else {
            decode_with(&ENC128, bytes)
        }
    }

    /// Encodes a sequence of instructions into a contiguous stream.
    ///
    /// # Errors
    ///
    /// Propagates the first per-instruction failure.
    pub fn encode_stream(&self, instrs: &[Instruction]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(instrs.len() * self.size);
        instrs.iter().try_for_each(|i| self.encode_into(i, &mut out))?;
        Ok(out)
    }

    /// Decodes a contiguous stream of instructions.
    ///
    /// # Errors
    ///
    /// [`SassError::TruncatedStream`] if the length is not a multiple of the
    /// instruction size; otherwise the first per-instruction failure.
    pub fn decode_stream(&self, bytes: &[u8]) -> Result<Vec<Instruction>> {
        if !bytes.len().is_multiple_of(self.size) {
            return Err(SassError::TruncatedStream { len: bytes.len(), instr_size: self.size });
        }
        let mut out = Vec::with_capacity(bytes.len() / self.size);
        for word in bytes.chunks_exact(self.size) {
            out.push(self.decode(word)?);
        }
        Ok(out)
    }
}

/// Sequential bit writer over a `u128` word.
struct BitWriter {
    word: u128,
    pos: u32,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter { word: 0, pos: 0 }
    }

    fn put(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        debug_assert!(bits == 64 || value < (1u64 << bits));
        self.word |= (value as u128) << self.pos;
        self.pos += bits;
    }

    /// Writes a signed value in `bits` two's-complement bits.
    fn put_signed(&mut self, value: i64, bits: u32) {
        let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
        self.put((value as u64) & mask, bits);
    }
}

/// Sequential bit reader over a `u128` word.
struct BitReader {
    word: u128,
    pos: u32,
}

impl BitReader {
    fn new(word: u128) -> BitReader {
        BitReader { word, pos: 0 }
    }

    fn get(&mut self, bits: u32) -> u64 {
        let mask = if bits >= 64 { u64::MAX as u128 } else { (1u128 << bits) - 1 };
        let v = ((self.word >> self.pos) & mask) as u64;
        self.pos += bits;
        v
    }

    /// Reads a signed two's-complement value of `bits` bits.
    fn get_signed(&mut self, bits: u32) -> i64 {
        let raw = self.get(bits);
        let shift = 64 - bits;
        ((raw << shift) as i64) >> shift
    }
}

fn signed_fits(v: i64, bits: u32) -> bool {
    if bits >= 64 {
        return true;
    }
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

fn unsigned_fits(v: u64, bits: u32) -> bool {
    bits >= 64 || v < (1u64 << bits)
}

/// Static payload bits of one operand slot (immediates return `None`: they
/// are sized dynamically from the remaining budget).
fn static_bits(p: &Codec, kind: OKind) -> Option<u32> {
    match kind {
        OKind::RegW | OKind::RegR | OKind::SReg => Some(8),
        OKind::PredW | OKind::PredR => Some(4),
        OKind::MRef => Some(8 + p.mref_off_bits),
        OKind::MRefAtom => Some(8 + p.atom_off_bits),
        OKind::CBankRef => Some(2 + 8 + 16),
        OKind::Rel => Some(p.rel_bits),
        OKind::Abs => Some(p.abs_bits),
        OKind::RegRI | OKind::Imm32 => None,
    }
}

/// Width of the immediate field at `idx` in the format: all the payload bits
/// not consumed by other fields (plus the 1-bit kind flag for `RegRI`),
/// capped at 32.
fn imm_bits(p: &Codec, fmt: &[OKind], idx: usize) -> u32 {
    let mut used = 0u32;
    for (i, k) in fmt.iter().enumerate() {
        if i == idx {
            if *k == OKind::RegRI {
                used += 1; // kind flag
            }
            continue;
        }
        // A format never contains two dynamically-sized operands.
        used += static_bits(p, *k).expect("only one immediate per format");
    }
    (p.payload_bits - used).min(32)
}

fn encode_with(p: &Codec, instr: &Instruction) -> Result<u128> {
    instr.validate()?;
    let range = |field: &'static str| SassError::FieldRange { instr: instr.to_string(), field };

    let mut w = BitWriter::new();
    w.put(instr.op.index() as u64, p.op_bits);
    w.put(instr.guard.pred.0 as u64, 3);
    w.put(instr.guard.negated as u64, 1);

    // Modifier field.
    w.put(instr.mods.width as u64, 2);
    w.put(instr.mods.itype as u64, 2);
    w.put(instr.mods.cmp as u64, 3);
    w.put(instr.mods.sub as u64, 5);
    if p.mods_bits > 12 {
        if instr.mods.barrier >= 16 {
            return Err(range("barrier"));
        }
        w.put(instr.mods.barrier as u64, p.mods_bits - 12);
    } else if instr.mods.barrier != 0 {
        return Err(range("barrier (not encodable on Enc64)"));
    }

    let fmt = instr.op.format();
    for (i, (kind, opnd)) in fmt.iter().zip(&instr.operands).enumerate() {
        match (kind, opnd) {
            (OKind::RegW | OKind::RegR, Operand::Reg(r)) => w.put(r.0 as u64, 8),
            (OKind::SReg, Operand::SReg(sr)) => w.put(*sr as u64, 8),
            (OKind::PredW | OKind::PredR, Operand::Pred { pred, negated }) => {
                w.put(pred.0 as u64, 3);
                w.put(*negated as u64, 1);
            }
            (OKind::RegRI, Operand::Reg(r)) => {
                w.put(0, 1);
                w.put(r.0 as u64, 8);
                // Pad so the slot occupies a fixed width for this format.
                let pad = imm_bits(p, fmt, i).saturating_sub(8);
                w.put(0, pad);
            }
            (OKind::RegRI, Operand::Imm(v)) => {
                let bits = imm_bits(p, fmt, i);
                if !signed_fits(*v, bits) {
                    return Err(range("immediate"));
                }
                w.put(1, 1);
                w.put_signed(*v, bits);
            }
            (OKind::Imm32, Operand::Imm(v)) => {
                let bits = imm_bits(p, fmt, i);
                // Values are canonically sign-extended from the field width;
                // callers moving unsigned 32-bit patterns must canonicalize
                // (`(c as i32) as i64`) so that decode(encode(i)) == i.
                if !signed_fits(*v, bits) {
                    return Err(range("imm32"));
                }
                w.put_signed(*v, bits);
            }
            (OKind::MRef, Operand::MRef { base, offset }) => {
                if !signed_fits(*offset as i64, p.mref_off_bits) {
                    return Err(range("mref offset"));
                }
                w.put(base.0 as u64, 8);
                w.put_signed(*offset as i64, p.mref_off_bits);
            }
            (OKind::MRefAtom, Operand::MRef { base, offset }) => {
                if !signed_fits(*offset as i64, p.atom_off_bits) {
                    return Err(range("atomic mref offset"));
                }
                w.put(base.0 as u64, 8);
                w.put_signed(*offset as i64, p.atom_off_bits);
            }
            (OKind::CBankRef, Operand::CBank { bank, base, offset }) => {
                if *bank >= 4 {
                    return Err(range("constant bank"));
                }
                w.put(*bank as u64, 2);
                w.put(base.0 as u64, 8);
                w.put(*offset as u64, 16);
            }
            (OKind::Rel, Operand::Rel(off)) => {
                if !signed_fits(*off, p.rel_bits) {
                    return Err(range("relative target"));
                }
                w.put_signed(*off, p.rel_bits);
            }
            (OKind::Abs, Operand::Abs(addr)) => {
                if !unsigned_fits(*addr, p.abs_bits) {
                    return Err(range("absolute target"));
                }
                w.put(*addr, p.abs_bits.min(64));
            }
            _ => unreachable!("validate() guarantees operand kinds"),
        }
    }
    debug_assert!(w.pos <= p.op_bits + 4 + p.mods_bits + p.payload_bits);
    Ok(w.word)
}

/// Decodes one word of `p`'s family; [`Codec::decode`] holds a copy per family.
#[inline(always)]
fn decode_with(p: &Codec, bytes: &[u8]) -> Result<Instruction> {
    let bad = |reason: String| SassError::BadEncoding { offset: 0, reason };
    if bytes.len() != p.size {
        return Err(bad(format!("expected {} bytes, got {}", p.size, bytes.len())));
    }
    let mut word = [0u8; 16];
    word[..p.size].copy_from_slice(bytes);
    let mut r = BitReader::new(u128::from_le_bytes(word));
    let op_idx = r.get(p.op_bits) as u16;
    let op = Op::from_index(op_idx).ok_or_else(|| bad(format!("unknown opcode {op_idx}")))?;

    let guard = Guard { pred: Pred(r.get(3) as u8), negated: r.get(1) != 0 };

    let width =
        Width::from_index(r.get(2) as u8).ok_or_else(|| bad("invalid width modifier".into()))?;
    let itype =
        IType::from_index(r.get(2) as u8).ok_or_else(|| bad("invalid type modifier".into()))?;
    let cmp = CmpOp::from_index(r.get(3) as u8)
        .ok_or_else(|| bad("invalid comparison modifier".into()))?;
    let sub = SubOp::from_index(r.get(5) as u8)
        .ok_or_else(|| bad("invalid sub-operation modifier".into()))?;
    let barrier = if p.mods_bits > 12 { r.get(p.mods_bits - 12) as u8 } else { 0 };
    let mods = Mods { width, itype, cmp, sub, barrier };

    let fmt = op.format();
    // Every format fits (checked where the opcodes are defined).
    let mut operands = Operands::default();
    for (i, kind) in fmt.iter().enumerate() {
        let opnd = match kind {
            OKind::RegW | OKind::RegR => Operand::Reg(Reg(r.get(8) as u8)),
            OKind::SReg => {
                let idx = r.get(8) as u8;
                Operand::SReg(
                    SpecialReg::from_index(idx)
                        .ok_or_else(|| bad(format!("unknown special register {idx}")))?,
                )
            }
            OKind::PredW | OKind::PredR => {
                Operand::Pred { pred: Pred(r.get(3) as u8), negated: r.get(1) != 0 }
            }
            OKind::RegRI => {
                let bits = imm_bits(p, fmt, i);
                if r.get(1) != 0 {
                    Operand::Imm(r.get_signed(bits))
                } else {
                    let reg = Reg(r.get(8) as u8);
                    r.get(bits.saturating_sub(8)); // skip padding
                    Operand::Reg(reg)
                }
            }
            OKind::Imm32 => {
                let bits = imm_bits(p, fmt, i);
                Operand::Imm(r.get_signed(bits))
            }
            OKind::MRef => {
                let base = Reg(r.get(8) as u8);
                Operand::MRef { base, offset: r.get_signed(p.mref_off_bits) as i32 }
            }
            OKind::MRefAtom => {
                let base = Reg(r.get(8) as u8);
                Operand::MRef { base, offset: r.get_signed(p.atom_off_bits) as i32 }
            }
            OKind::CBankRef => {
                let bank = r.get(2) as u8;
                let base = Reg(r.get(8) as u8);
                Operand::CBank { bank, base, offset: r.get(16) as u16 }
            }
            OKind::Rel => Operand::Rel(r.get_signed(p.rel_bits)),
            OKind::Abs => Operand::Abs(r.get(p.abs_bits.min(64))),
        };
        operands.push(opnd);
    }

    Ok(Instruction { guard, op, mods, operands })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Mods;

    fn codecs() -> [&'static Codec; 2] {
        [&ENC64, &ENC128]
    }

    fn roundtrip(c: &Codec, i: &Instruction) {
        let bytes =
            c.encode_stream(&[*i]).unwrap_or_else(|e| panic!("encode failed for `{i}`: {e}"));
        assert_eq!(bytes.len(), c.instruction_size());
        let back = c.decode(&bytes).unwrap();
        assert_eq!(&back, i, "roundtrip mismatch for `{i}`");
    }

    #[test]
    fn simple_instructions_roundtrip_on_both_families() {
        let samples = vec![
            Instruction::nop(),
            Instruction::new(Op::Mov, [Operand::Reg(Reg(3)), Operand::Imm(-77)]),
            Instruction::new(Op::Mov32i, [Operand::Reg(Reg(0)), Operand::Imm(0x7fff_ffff)]),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(10)), Operand::Reg(Reg(11)), Operand::Imm(4095)],
            ),
            Instruction::new(
                Op::Ffma,
                [
                    Operand::Reg(Reg(4)),
                    Operand::Reg(Reg(5)),
                    Operand::Reg(Reg(6)),
                    Operand::Reg(Reg(7)),
                ],
            ),
            Instruction::new(
                Op::Ldg,
                [Operand::Reg(Reg(2)), Operand::MRef { base: Reg(8), offset: -256 }],
            )
            .with_mods(Mods { width: Width::B128, ..Mods::default() }),
            Instruction::new(
                Op::Ldc,
                [Operand::Reg(Reg(4)), Operand::CBank { bank: 0, base: Reg::RZ, offset: 0x160 }],
            ),
            Instruction::new(Op::Bra, [Operand::Rel(-0x1000)])
                .with_guard(Guard { pred: Pred(3), negated: true }),
            Instruction::new(Op::Jmp, [Operand::Abs(0xdead_beef)]),
            Instruction::new(Op::S2r, [Operand::Reg(Reg(0)), Operand::SReg(SpecialReg::LaneId)]),
            Instruction::new(
                Op::Atom,
                [
                    Operand::Reg(Reg(0)),
                    Operand::MRef { base: Reg(2), offset: 64 },
                    Operand::Reg(Reg(4)),
                    Operand::Reg(Reg::RZ),
                ],
            )
            .with_mods(Mods { sub: SubOp::Add, itype: IType::F32, ..Mods::default() }),
            Instruction::new(
                Op::Sel,
                [
                    Operand::Reg(Reg(1)),
                    Operand::Reg(Reg(2)),
                    Operand::Imm(-100),
                    Operand::Pred { pred: Pred(1), negated: true },
                ],
            ),
            Instruction::new(Op::Exit, []),
        ];
        for c in codecs() {
            for i in &samples {
                roundtrip(c, i);
            }
        }
    }

    #[test]
    fn enc64_rejects_oversized_fields_that_enc128_accepts() {
        // A 30-bit immediate fits the Enc128 three-source form (32 bits) but
        // not the Enc64 one (23 bits).
        let i = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(0)), Operand::Reg(Reg(1)), Operand::Imm(1 << 29)],
        );
        assert!(matches!(ENC64.encode_stream(&[i]), Err(SassError::FieldRange { .. })));
        roundtrip(&ENC128, &i);

        // Large memory offsets only fit the wide encoding.
        let far = Instruction::new(
            Op::Ldg,
            [Operand::Reg(Reg(0)), Operand::MRef { base: Reg(2), offset: 1 << 21 }],
        );
        assert!(ENC64.encode_stream(&[far]).is_err());
        roundtrip(&ENC128, &far);
    }

    #[test]
    fn barrier_slot_is_volta_only() {
        let ssy = Instruction::new(Op::Ssy, [Operand::Rel(64)])
            .with_mods(Mods { barrier: 3, ..Mods::default() });
        assert!(ENC64.encode_stream(&[ssy]).is_err());
        roundtrip(&ENC128, &ssy);
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        // Opcode field value 200 is unassigned.
        let word = 200u64;
        let bytes = word.to_le_bytes();
        assert!(matches!(ENC64.decode(&bytes), Err(SassError::BadEncoding { .. })));
    }

    #[test]
    fn decode_rejects_a_word_one_byte_short_or_long_on_both_families() {
        for c in codecs() {
            let word = c.encode_stream(&[Instruction::nop()]).unwrap();
            let long: Vec<u8> = word.iter().copied().chain([0]).collect();
            for bytes in [&word[..c.instruction_size() - 1], &long[..]] {
                assert_eq!(bytes.len().abs_diff(c.instruction_size()), 1);
                assert!(
                    matches!(c.decode(bytes), Err(SassError::BadEncoding { .. })),
                    "{} bytes decoded on the {}-byte family",
                    bytes.len(),
                    c.instruction_size()
                );
            }
        }
    }

    #[test]
    fn encode_into_appends_exactly_one_word() {
        let exit = Instruction::new(Op::Exit, []);
        for c in codecs() {
            let mut out = vec![0xaa; 3];
            c.encode_into(&exit, &mut out).unwrap();
            assert_eq!(out.len(), 3 + c.instruction_size());
            assert_eq!(out[..3], [0xaa; 3]);
            assert_eq!(c.decode(&out[3..]).unwrap(), exit);
        }
    }

    #[test]
    fn decode_stream_checks_length() {
        assert!(matches!(ENC64.decode_stream(&[0u8; 12]), Err(SassError::TruncatedStream { .. })));
    }

    #[test]
    fn codec_for_matches_family() {
        assert_eq!(codec_for(Arch::Kepler).instruction_size(), 8);
        assert_eq!(codec_for(Arch::Pascal).instruction_size(), 8);
        assert_eq!(codec_for(Arch::Volta).instruction_size(), 16);
    }

    #[test]
    fn stream_roundtrip() {
        let prog = vec![
            Instruction::new(Op::Mov32i, [Operand::Reg(Reg(0)), Operand::Imm(42)]),
            Instruction::new(Op::Bra, [Operand::Rel(8)]),
            Instruction::new(Op::Exit, []),
        ];
        for c in codecs() {
            let bytes = c.encode_stream(&prog).unwrap();
            assert_eq!(bytes.len(), prog.len() * c.instruction_size());
            assert_eq!(c.decode_stream(&bytes).unwrap(), prog);
        }
    }
}
