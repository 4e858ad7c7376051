//! The Instruction Lifter: raw SASS bytes → [`Instr`] views (paper §5.1).

use crate::hal::Hal;
use crate::instr::Instr;
use crate::Result;
use cuda::FunctionInfo;
use std::sync::Arc;

/// A lifted function body, cached by the core: the original half of the
/// code cache's pair, read once per function.
#[derive(Debug, Clone)]
pub struct Lifted {
    /// The pristine code bytes the views were decoded from: what new images
    /// are built and verified against, and what a swap back to the original
    /// writes.
    pub code: Vec<u8>,
    /// One view per SASS instruction, in program order; shared with every
    /// tool that asks for them ([`crate::NvbitApi::get_instrs`]).
    pub instrs: Arc<[Instr]>,
    /// The static analysis of the body (blocks, liveness, dominators), or
    /// the reason indirect control flow defeats it (the paper's ICF
    /// fallback: flat view, whole-function save tier, no coalescing proof).
    pub analysis: std::result::Result<sass::Analysis, sass::CfgFailure>,
}

/// Lifts the function's current code bytes: one decode (`disassemble`
/// span, counted on `sass.decode`), then the one [`sass::Analysis`] of the
/// body and the [`Instr`] views (`convert` span).
///
/// # Errors
///
/// Propagates decode failures (corrupt code).
pub fn lift(hal: &Hal, info: &FunctionInfo, code: &[u8]) -> Result<Lifted> {
    let raw = {
        let _span = common::obs::span("disassemble");
        let raw = hal.disassemble(code)?;
        common::obs::counter("sass.decode", raw.len() as u64);
        raw
    };
    let _span = common::obs::span("convert");
    let isize = hal.instruction_size();
    let analysis = sass::Analysis::of(&raw, hal.arch());
    let view = |(idx, inner)| {
        let line = info.line_table.iter().rev().find(|l| l.instr_index <= idx);
        Instr::new(idx, idx as u64 * isize, inner, line.map(|l| (l.file.clone(), l.line)))
    };
    let instrs = raw.into_iter().enumerate().map(view).collect();
    Ok(Lifted { code: code.to_vec(), instrs, analysis })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::{CuFunction, CuModule};
    use ptx::LineInfo;
    use sass::Arch;

    fn fake_info(line_table: Vec<LineInfo>) -> FunctionInfo {
        FunctionInfo {
            handle: CuFunction::from_raw(1),
            name: "k".into(),
            module: CuModule::from_raw(1),
            library: false,
            kind: ptx::FunctionKind::Entry,
            addr: 0x1000,
            code_len: 0,
            arch: Arch::Volta,
            reg_count: 8,
            stack_size: 0,
            shared_size: 0,
            params: vec![],
            related: vec![],
            line_table,
            local_override: 0,
        }
    }

    #[test]
    fn lift_produces_one_view_per_instruction_with_offsets() {
        let hal = Hal::new(Arch::Volta);
        let code = hal
            .assemble_text(
                "S2R R4, SR_TID.X ;\n\
                 ISETP.GE.S32 P0, R4, 0x10 ;\n\
                 @P0 BRA .+0x10 ;\n\
                 IADD R4, R4, 0x1 ;\n\
                 EXIT ;",
            )
            .unwrap();
        let lifted = lift(&hal, &fake_info(vec![]), &code).unwrap();
        assert_eq!(lifted.code, code);
        assert_eq!(lifted.instrs.len(), 5);
        assert_eq!(lifted.instrs[2].offset, 32);
        assert!(lifted.instrs[2].has_guard());
        // Blocks: [0..3], [3..4] (branch target of .+0x10 = idx 4), [4..5].
        assert_eq!(lifted.analysis.as_ref().unwrap().blocks.len(), 3);
    }

    #[test]
    fn icf_falls_back_to_flat_view() {
        let hal = Hal::new(Arch::Kepler);
        let code = hal.assemble_text("BRX R4 ;\nEXIT ;").unwrap();
        let lifted = lift(&hal, &fake_info(vec![]), &code).unwrap();
        assert_eq!(
            lifted.analysis.as_ref().err(),
            Some(&sass::CfgFailure::IndirectBranch { index: 0 }),
            "ICF must surface the structured failure"
        );
        assert_eq!(lifted.instrs.len(), 2);
    }

    #[test]
    fn line_info_attaches_from_the_nearest_preceding_entry() {
        let hal = Hal::new(Arch::Pascal);
        let code = hal.assemble_text("NOP ;\nNOP ;\nNOP ;\nEXIT ;").unwrap();
        let lt = vec![
            LineInfo { instr_index: 0, file: "a.cu".into(), line: 5 },
            LineInfo { instr_index: 2, file: "a.cu".into(), line: 9 },
        ];
        let lifted = lift(&hal, &fake_info(lt), &code).unwrap();
        assert_eq!(lifted.instrs[0].line_info, Some(("a.cu".into(), 5)));
        assert_eq!(lifted.instrs[1].line_info, Some(("a.cu".into(), 5)));
        assert_eq!(lifted.instrs[2].line_info, Some(("a.cu".into(), 9)));
        assert_eq!(lifted.instrs[3].line_info, Some(("a.cu".into(), 9)));
    }
}
