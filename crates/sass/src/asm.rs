//! Textual assembler and disassembler.
//!
//! The text format is exactly what [`Instruction`]'s `Display` prints, plus
//! comments (`//` to end of line), blank lines, and optional labels for
//! PC-relative operands:
//!
//! ```text
//! // saves two registers to the local stack
//! top:
//!     STL [R1+0x0], R4 ;
//!     STL [R1+0x4], R5 ;
//!     ISETP.NE.S32 P0, R4, RZ ;
//! @P0 BRA top ;
//!     RET ;
//! ```
//!
//! Labels resolve to **byte** offsets and therefore depend on the target
//! architecture's instruction size; use [`assemble_arch`] for labelled text.
//! Label-free text (including raw `.+0x10` relative operands) assembles with
//! [`assemble`] on any architecture.

use crate::arch::Arch;
use crate::inst::{Guard, Instruction, Mods, Operand, Width};
use crate::op::{CmpOp, IType, Op, SubOp};
use crate::reg::{Pred, Reg, SpecialReg};
use crate::{Result, SassError};
use std::collections::HashMap;

/// Assembles label-free text into instructions.
///
/// # Errors
///
/// Returns [`SassError::Parse`] on malformed text, including any use of
/// labels (which require [`assemble_arch`]).
pub fn assemble(text: &str) -> Result<Vec<Instruction>> {
    let (instrs, labels, refs) = parse(text)?;
    if let Some((name, line)) = labels.iter().map(|(n, l)| (n.clone(), l.line)).next() {
        return Err(SassError::Parse {
            line,
            reason: format!(
                "label `{name}` requires assemble_arch (byte offsets depend on the architecture)"
            ),
        });
    }
    if let Some(r) = refs.first() {
        return Err(SassError::Parse {
            line: r.line,
            reason: format!("label reference `{}` requires assemble_arch", r.name),
        });
    }
    Ok(instrs)
}

/// Assembles text (possibly with labels) for a specific architecture,
/// resolving labels to byte offsets using that architecture's instruction
/// size.
///
/// # Errors
///
/// Returns [`SassError::Parse`] on malformed text or unresolved labels.
pub fn assemble_arch(text: &str, arch: Arch) -> Result<Vec<Instruction>> {
    let (mut instrs, labels, refs) = parse(text)?;
    let isize = arch.instruction_size() as i64;
    for r in refs {
        let def = labels.get(&r.name).ok_or_else(|| SassError::Parse {
            line: r.line,
            reason: format!("undefined label `{}`", r.name),
        })?;
        let offset = (def.index as i64 - (r.index as i64 + 1)) * isize;
        instrs[r.index].set_rel_target(offset);
    }
    Ok(instrs)
}

/// Disassembles instructions into assembly text, one per line.
pub fn disassemble(instrs: &[Instruction]) -> String {
    let mut out = String::new();
    for i in instrs {
        out.push_str(&i.to_string());
        out.push('\n');
    }
    out
}

#[derive(Debug, Clone)]
struct LabelDef {
    index: usize,
    line: usize,
}

#[derive(Debug, Clone)]
struct LabelRef {
    name: String,
    /// Instruction index whose relative operand the label resolves.
    index: usize,
    line: usize,
}

type Parsed = (Vec<Instruction>, HashMap<String, LabelDef>, Vec<LabelRef>);

fn parse(text: &str) -> Result<Parsed> {
    let mut instrs = Vec::new();
    let mut labels: HashMap<String, LabelDef> = HashMap::new();
    let mut refs = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let mut src = raw;
        if let Some(pos) = src.find("//") {
            src = &src[..pos];
        }
        let mut src = src.trim();
        if src.is_empty() {
            continue;
        }

        // Leading labels (possibly several on one line).
        while let Some(colon) = find_label_colon(src) {
            let name = src[..colon].trim();
            if !is_ident(name) {
                return Err(SassError::Parse {
                    line,
                    reason: format!("invalid label name `{name}`"),
                });
            }
            if labels.insert(name.to_string(), LabelDef { index: instrs.len(), line }).is_some() {
                return Err(SassError::Parse { line, reason: format!("duplicate label `{name}`") });
            }
            src = src[colon + 1..].trim();
        }
        if src.is_empty() {
            continue;
        }

        let (instr, label_ref) = parse_instruction(src, line)?;
        if let Some(name) = label_ref {
            refs.push(LabelRef { name, index: instrs.len(), line });
        }
        instrs.push(instr);
    }
    Ok((instrs, labels, refs))
}

/// Finds the colon of a leading `label:` if present (not inside operands —
/// a label must precede the mnemonic, so the colon must come before any
/// space-separated token that is not an identifier).
fn find_label_colon(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    let head = &s[..colon];
    if is_ident(head.trim()) && !head.trim().is_empty() {
        Some(colon)
    } else {
        None
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

/// Parses one instruction statement; returns the instruction and, if its
/// relative operand was a label name, that name (the operand is left 0).
fn parse_instruction(src: &str, line: usize) -> Result<(Instruction, Option<String>)> {
    let perr = |reason: String| SassError::Parse { line, reason };

    let src = src.trim();
    let body = src.strip_suffix(';').ok_or_else(|| perr("missing terminating `;`".into()))?.trim();

    // Guard.
    let (guard, rest) = if let Some(stripped) = body.strip_prefix('@') {
        let (g, r) = stripped
            .split_once(char::is_whitespace)
            .ok_or_else(|| perr("guard must be followed by a mnemonic".into()))?;
        let (negated, pname) =
            if let Some(p) = g.strip_prefix('!') { (true, p) } else { (false, g) };
        let pred = parse_pred_name(pname).ok_or_else(|| perr(format!("bad guard `{g}`")))?;
        (Guard { pred, negated }, r.trim())
    } else {
        (Guard::ALWAYS, body)
    };

    // Mnemonic and modifier suffixes.
    let (mn_full, opnds_str) = match rest.split_once(char::is_whitespace) {
        Some((m, o)) => (m, o.trim()),
        None => (rest, ""),
    };
    let mut parts = mn_full.split('.');
    let base = parts.next().unwrap_or_default();
    let op = Op::from_mnemonic(base).ok_or_else(|| perr(format!("unknown mnemonic `{base}`")))?;
    let mut mods = Mods::default();
    for suf in parts {
        if let Some(s) = SubOp::from_suffix(suf) {
            mods.sub = s;
        } else if let Some(c) = CmpOp::from_suffix(suf) {
            mods.cmp = c;
        } else if let Some(t) = IType::from_suffix(suf) {
            mods.itype = t;
        } else if suf == "64" {
            mods.width = Width::B64;
        } else if suf == "128" {
            mods.width = Width::B128;
        } else {
            return Err(perr(format!("unknown modifier `.{suf}` on `{base}`")));
        }
    }

    // Operands.
    let mut operands = Vec::new();
    let mut label_ref = None;
    if !opnds_str.is_empty() {
        for tok in split_operands(opnds_str) {
            let tok = tok.trim();
            if tok.is_empty() {
                return Err(perr("empty operand".into()));
            }
            match parse_operand(tok) {
                Some(o) => operands.push(o),
                None if is_ident(tok) => {
                    // A bare identifier is a label reference for a Rel slot.
                    if label_ref.is_some() {
                        return Err(perr("multiple label operands".into()));
                    }
                    label_ref = Some(tok.to_string());
                    operands.push(Operand::Rel(0));
                }
                None => return Err(perr(format!("cannot parse operand `{tok}`"))),
            }
        }
    }

    // More operands than an instruction holds are refused, never truncated.
    let instr = Instruction::try_new(op, &operands)?.with_guard(guard).with_mods(mods);
    instr.validate().map_err(|e| perr(e.to_string()))?;
    Ok((instr, label_ref))
}

/// Splits an operand list on commas that are not inside brackets.
fn split_operands(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_pred_name(s: &str) -> Option<Pred> {
    if s == "PT" {
        return Some(Pred::PT);
    }
    let n: u8 = s.strip_prefix('P')?.parse().ok()?;
    (n < 7).then_some(Pred(n))
}

fn parse_reg_name(s: &str) -> Option<Reg> {
    if s == "RZ" {
        return Some(Reg::RZ);
    }
    let n: u8 = s.strip_prefix('R')?.parse().ok()?;
    (n < 255).then_some(Reg(n))
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, t) = if let Some(t) = s.strip_prefix('-') { (true, t) } else { (false, s) };
    let v = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(h, 16).ok()?
    } else {
        t.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_operand(tok: &str) -> Option<Operand> {
    // Memory reference `[Rb]`, `[Rb+0x..]`, `[Rb-0x..]`.
    if let Some(inner) = tok.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let (base_s, off) = if let Some(p) = inner.find('+') {
            (&inner[..p], parse_int(&inner[p + 1..])?)
        } else if let Some(p) = inner[1..].find('-') {
            (&inner[..p + 1], -parse_int(&inner[p + 2..])?)
        } else {
            (inner, 0)
        };
        let base = parse_reg_name(base_s.trim())?;
        return Some(Operand::MRef { base, offset: i32::try_from(off).ok()? });
    }
    // Constant bank `c[0x0][0x160]` / `c[0x0][R4+0x160]`.
    if let Some(rest) = tok.strip_prefix("c[") {
        let close = rest.find(']')?;
        let bank = parse_int(&rest[..close])? as u8;
        let idx = rest[close + 1..].strip_prefix('[')?.strip_suffix(']')?;
        let (base, offset) = if let Some(p) = idx.find('+') {
            (parse_reg_name(&idx[..p])?, parse_int(&idx[p + 1..])?)
        } else if idx.starts_with('R') {
            (parse_reg_name(idx)?, 0)
        } else {
            (Reg::RZ, parse_int(idx)?)
        };
        return Some(Operand::CBank { bank, base, offset: u16::try_from(offset).ok()? });
    }
    // Relative `.+0x10` / `.-0x10`.
    if let Some(r) = tok.strip_prefix('.') {
        if let Some(v) = r.strip_prefix('+').and_then(parse_int) {
            return Some(Operand::Rel(v));
        }
        if let Some(v) = r.strip_prefix('-').and_then(parse_int) {
            return Some(Operand::Rel(-v));
        }
        return None;
    }
    // Absolute address `` `0x1000 ``.
    if let Some(a) = tok.strip_prefix('`') {
        return Some(Operand::Abs(parse_int(a)? as u64));
    }
    // Special register.
    if tok.starts_with("SR_") {
        return SpecialReg::from_mnemonic(tok).map(Operand::SReg);
    }
    // Negated predicate source.
    if let Some(p) = tok.strip_prefix('!') {
        return parse_pred_name(p).map(|pred| Operand::Pred { pred, negated: true });
    }
    if tok == "PT" || (tok.starts_with('P') && tok[1..].chars().all(|c| c.is_ascii_digit())) {
        return parse_pred_name(tok).map(Operand::pred);
    }
    if tok == "RZ" || (tok.starts_with('R') && tok[1..].chars().all(|c| c.is_ascii_digit())) {
        return parse_reg_name(tok).map(Operand::Reg);
    }
    parse_int(tok).map(Operand::Imm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::codec_for;

    #[test]
    fn assemble_disassemble_roundtrip() {
        let text = "\
MOV32I R0, 0x2a ;
@!P1 IADD R4, R5, -0x10 ;
LDG.64 R2, [R6+0x100] ;
ISETP.LT.S32 P1, R3, R4 ;
ATOM.ADD.F32 R0, [R2+0x40], R4, RZ ;
LDC R4, c[0x0][0x160] ;
S2R R0, SR_TID.X ;
BRA .+0x10 ;
JMP `0x4000 ;
SEL R1, R2, 0x7, !P0 ;
EXIT ;
";
        let prog = assemble(text).unwrap();
        assert_eq!(prog.len(), 11);
        let round = assemble(&disassemble(&prog)).unwrap();
        assert_eq!(prog, round);
    }

    #[test]
    fn labels_resolve_per_architecture() {
        let text = "\
start:
    ISETP.NE.S32 P0, R4, RZ ;
@P0 BRA start ;
    BRA done ;
    NOP ;
done:
    RET ;
";
        let k = assemble_arch(text, Arch::Kepler).unwrap();
        let v = assemble_arch(text, Arch::Volta).unwrap();
        // Backward branch to `start`: two instructions back from the BRA's
        // successor, scaled by instruction size.
        assert_eq!(k[1].rel_target(), Some(-16));
        assert_eq!(v[1].rel_target(), Some(-32));
        // Forward branch to `done`: skips one instruction.
        assert_eq!(k[2].rel_target(), Some(8));
        assert_eq!(v[2].rel_target(), Some(16));
    }

    #[test]
    fn labels_rejected_without_arch() {
        let text = "x:\n BRA x ;\n";
        assert!(matches!(assemble(text), Err(SassError::Parse { .. })));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "NOP ;\nFROB R1 ;\n";
        match assemble(text) {
            Err(SassError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn five_operands_are_bad_operands_not_a_panic_or_a_truncation() {
        for text in ["IADD R0, R1, R2, R3, R4 ;", "NOP R0, R1, R2, R3, R4, R5, R6, R7, R8 ;"] {
            match assemble(text) {
                Err(SassError::BadOperands { instr, reason }) => {
                    assert!(
                        text.starts_with(&instr) && reason.contains("at most 4 fit"),
                        "{reason}"
                    );
                }
                other => panic!("`{text}`: expected BadOperands, got {other:?}"),
            }
        }
        // Four that do not match the format still fail validation, as before.
        assert!(matches!(assemble("IADD R0, R1, R2, R3 ;"), Err(SassError::Parse { line: 1, .. })));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "// header\n\n  NOP ; // trailing\n";
        assert_eq!(assemble(text).unwrap().len(), 1);
    }

    #[test]
    fn assembled_text_encodes_on_both_families() {
        let text = "\
MOV R0, R1 ;
IADD R2, R3, 0xff ;
STG [R4+0x8], R2 ;
RET ;
";
        let prog = assemble(text).unwrap();
        for arch in Arch::ALL {
            let codec = codec_for(arch);
            let bytes = codec.encode_stream(&prog).unwrap();
            assert_eq!(codec.decode_stream(&bytes).unwrap(), prog);
        }
    }
}
