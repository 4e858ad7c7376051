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
    /// The static analysis of the body (blocks, liveness, dominators, the
    /// highest register named), or the reason indirect control flow defeats
    /// it (the paper's ICF fallback: flat view, whole-function save tier, no
    /// coalescing proof, nothing lowered).
    pub analysis: std::result::Result<sass::Analysis, sass::CfgFailure>,
}

/// Lifts the function's current code bytes: one decode (`disassemble`
/// span, counted on `sass.decode`), then the one [`sass::Analysis`] of the
/// body and the [`Instr`] views (`convert` span). The line table is in
/// instruction order, so one walk over it gives each view the last entry at
/// or before it.
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
    let (mut lines, mut line) = (info.line_table.iter().peekable(), None);
    let view = |(idx, inner)| {
        while let Some(l) = lines.next_if(|l| l.instr_index <= idx) {
            line = Some((Arc::from(l.file.as_str()), l.line));
        }
        Instr::new(idx, idx as u64 * isize, inner, line.clone())
    };
    let instrs = raw.into_iter().enumerate().map(view).collect();
    Ok(Lifted { code: code.to_vec(), instrs, analysis })
}

#[cfg(test)]
/// What [`lift`] makes of a decoded `body` but the bytes, which the tests
/// that call this do not read: the views and the given `analysis` (the
/// body's own, or a failure to fall back from).
pub(crate) fn lifted(
    body: &[sass::Instruction],
    analysis: std::result::Result<sass::Analysis, sass::CfgFailure>,
) -> Lifted {
    let instrs = body.iter().enumerate().map(|(idx, i)| Instr::new(idx, 0, *i, None)).collect();
    Lifted { code: Vec::new(), instrs, analysis }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::CuModule;
    use ptx::LineInfo;
    use sass::Arch;

    fn fake_info(line_table: Vec<LineInfo>) -> FunctionInfo {
        FunctionInfo {
            name: "k".into(),
            module: CuModule::from_raw(1),
            library: false,
            kind: ptx::FunctionKind::Entry,
            addr: 0x1000,
            code_len: 0,
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

    /// The one forward walk over the line table gives every view what the
    /// reverse scan per instruction it replaced gave: the last entry at or
    /// before it, on a body the PTX compiler lowered from `.loc` directives
    /// interleaved with instructions, two files alternating, runs of two
    /// directives with no instruction between them (the later one counts)
    /// and instructions the directive before theirs covers.
    #[test]
    fn the_line_walk_matches_the_reverse_scan_per_instruction() {
        let mut src = String::from(
            ".entry k(.param .u64 out)\n{\n    .reg .u32 %r<4>;\n    .reg .u64 %rd<2>;\n    \
             ld.param.u64 %rd1, [out];\n    mov.u32 %r1, 0;\n",
        );
        for i in 0..40 {
            if i % 5 == 0 {
                src += &format!("    .loc \"c.cu\" {} ;\n", 100 + i);
            }
            if i % 3 != 2 {
                src += &format!("    .loc \"{}.cu\" {} ;\n", ["a", "b"][i % 2], 10 + i);
            }
            src += &format!("    add.u32 %r1, %r1, {i};\n");
        }
        src += "    st.global.u32 [%rd1], %r1;\n    exit;\n}\n";
        let hal = Hal::new(Arch::Pascal);
        let f = ptx::compile_module(&src, Arch::Pascal).unwrap().functions.remove(0);
        let table = f.line_table.clone();
        assert!(table.len() > 40, "{table:?}");
        // The same table with gaps, and with a second entry at some
        // instructions, which wins.
        let mut thinned = Vec::new();
        for (k, l) in table.iter().enumerate().filter(|(k, _)| k % 4 != 1) {
            thinned.push(l.clone());
            if k % 3 == 0 {
                thinned.push(LineInfo { line: l.line + 1000, ..l.clone() });
            }
        }
        for table in [table, thinned] {
            let lifted = lift(&hal, &fake_info(table.clone()), &f.code).unwrap();
            let scan = |idx| table.iter().rev().find(|l| l.instr_index <= idx);
            for view in lifted.instrs.iter() {
                let want = scan(view.idx).map(|l| (l.file.as_str(), l.line));
                assert_eq!(view.line_info.as_ref().map(|(f, l)| (&**f, *l)), want, "{view}");
            }
            assert!(lifted.instrs[0].line_info.is_none(), "no directive before the first one");
        }
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
