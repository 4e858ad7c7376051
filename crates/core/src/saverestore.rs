//! Generation of the fixed set of register save/restore routines.
//!
//! NVBit embeds, per architecture, a family of save and restore device
//! routines, each targeting a specific number of general-purpose registers
//! (paper §5.1, Tool Functions Loader). The code generator picks the
//! smallest tier covering the register demand of the instrumented function
//! and the injected tool functions.
//!
//! Frame layout (offsets from the post-decrement stack pointer `R1`):
//!
//! ```text
//! [R1 + 4*i]       saved Ri            for i in 0..N, i != 1
//! [R1 + 4*N]       packed predicates   (P2R)
//! [R1 + 4*N + 4]   barrier state       (ABI v2 only)
//! ```
//!
//! `R1` itself is not stored: the restore routine recomputes it by undoing
//! the frame decrement. The save-area base doubles as the device-API frame
//! pointer (`R0`), which is how `nvbit.readreg`/`nvbit.writereg` reach the
//! saved registers — and why writes through the device API are *permanent*:
//! the restore routine loads the (possibly modified) slots back into the
//! register file.

use crate::hal::Hal;

/// The register-count tiers for which routines exist. The ladder is owned
/// by [`sass::pressure::TIERS`], next to the [`sass::pressure::tier_of`]
/// map that sizes every ladder save, so the two can never disagree; this
/// is a re-export.
pub use sass::pressure::TIERS;

/// One save/restore routine pair, loaded into device memory.
#[derive(Debug, Clone, Copy)]
pub struct Routines {
    /// Registers covered.
    pub tier: u16,
    /// Device address of the save routine.
    pub save_addr: u64,
    /// Device address of the restore routine.
    pub restore_addr: u64,
    /// Stack bytes the save routine claims.
    pub frame_bytes: u32,
}

/// 32-bit save-area slots a given tier addresses: one per saved register,
/// the packed-predicate slot, and the barrier-state slot on ABIs that save
/// it. Trampoline code must keep every `[R1+4·slot]` access strictly below
/// this bound — the plan verifier's tier check
/// ([`crate::verify::DiagKind::TierExceeded`]) enforces it.
pub fn frame_slots(tier: u16, hal: &Hal) -> u32 {
    tier as u32 + 1 + u32::from(hal.saves_barrier_state())
}

/// Bytes of stack frame a given tier claims on a given ABI.
pub fn frame_bytes(tier: u16, hal: &Hal) -> u32 {
    (frame_slots(tier, hal) * 4).div_ceil(8) * 8
}

/// The smallest tier covering `regs` registers.
///
/// # Errors
///
/// [`crate::NvbitError::BadRequest`] when `regs` exceeds the 255-register
/// file. No tier can cover such a demand, and silently clamping it would
/// under-save and corrupt the instrumented application.
pub fn tier_for(regs: u16) -> crate::Result<u16> {
    sass::pressure::tier_of(regs).ok_or_else(|| {
        crate::NvbitError::BadRequest(format!(
            "register demand {regs} exceeds the 255-register file"
        ))
    })
}

/// Generates the save routine's assembly text for a tier.
pub fn save_text(tier: u16, hal: &Hal) -> String {
    let frame = frame_bytes(tier, hal);
    let mut s = String::new();
    s.push_str(&format!("IADD R1, R1, -0x{frame:x} ;\n"));
    for i in 0..tier {
        if i == 1 {
            continue; // R1 is recomputed, not stored
        }
        s.push_str(&format!("STL [R1+0x{:x}], R{i} ;\n", 4 * i));
    }
    // Predicates, packed through R0 (already saved above).
    s.push_str("P2R R0 ;\n");
    s.push_str(&format!("STL [R1+0x{:x}], R0 ;\n", 4 * tier as u32));
    if hal.saves_barrier_state() {
        s.push_str("S2R R0, SR_BARRIERSTATE ;\n");
        s.push_str(&format!("STL [R1+0x{:x}], R0 ;\n", 4 * tier as u32 + 4));
    }
    s.push_str("RET ;\n");
    s
}

/// Generates the restore routine's assembly text for a tier.
pub fn restore_text(tier: u16, hal: &Hal) -> String {
    let frame = frame_bytes(tier, hal);
    let mut s = String::new();
    if hal.saves_barrier_state() {
        // Barrier state is verified present (cosmetic on this simulator:
        // reconvergence state lives in the hardware SIMT stack, which the
        // injected function leaves balanced by construction).
        s.push_str(&format!("LDL R0, [R1+0x{:x}] ;\n", 4 * tier as u32 + 4));
    }
    s.push_str(&format!("LDL R0, [R1+0x{:x}] ;\n", 4 * tier as u32));
    s.push_str("R2P R0 ;\n");
    // Restore every register except R1; R0 last (it is the scratch above).
    for i in (0..tier).rev() {
        if i == 1 {
            continue;
        }
        s.push_str(&format!("LDL R{i}, [R1+0x{:x}] ;\n", 4 * i));
    }
    s.push_str(&format!("IADD R1, R1, 0x{frame:x} ;\n"));
    s.push_str("RET ;\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::{Arch, Op};

    #[test]
    fn tiers_cover_the_register_file() {
        assert_eq!(tier_for(1).unwrap(), 16);
        assert_eq!(tier_for(16).unwrap(), 16);
        assert_eq!(tier_for(17).unwrap(), 32);
        assert_eq!(tier_for(200).unwrap(), 255);
        assert_eq!(tier_for(255).unwrap(), 255);
    }

    #[test]
    fn demands_beyond_the_register_file_are_rejected() {
        for regs in [256, 300, u16::MAX] {
            assert!(
                matches!(tier_for(regs), Err(crate::NvbitError::BadRequest(_))),
                "tier_for({regs}) must not clamp"
            );
        }
    }

    #[test]
    fn frames_are_8_byte_aligned_and_grow_on_abi_v2() {
        let k = Hal::new(Arch::Kepler);
        let v = Hal::new(Arch::Volta);
        for tier in TIERS {
            let fk = frame_bytes(tier, &k);
            let fv = frame_bytes(tier, &v);
            assert_eq!(fk % 8, 0);
            assert_eq!(fv % 8, 0);
            assert!(fv >= fk, "ABI v2 frames carry barrier state");
            assert!(fk >= tier as u32 * 4 + 4);
        }
    }

    #[test]
    fn routines_assemble_on_every_arch() {
        for arch in Arch::ALL {
            let hal = Hal::new(arch);
            for tier in TIERS {
                let save = hal.assemble_text(&save_text(tier, &hal)).unwrap();
                let restore = hal.assemble_text(&restore_text(tier, &hal)).unwrap();
                assert!(!save.is_empty());
                assert!(!restore.is_empty());
                // Both end in RET.
                let si = hal.disassemble(&save).unwrap();
                let ri = hal.disassemble(&restore).unwrap();
                assert_eq!(si.last().unwrap().op, Op::Ret);
                assert_eq!(ri.last().unwrap().op, Op::Ret);
            }
        }
    }

    #[test]
    fn volta_routines_touch_barrier_state() {
        let hal = Hal::new(Arch::Volta);
        assert!(save_text(16, &hal).contains("SR_BARRIERSTATE"));
        assert!(!save_text(16, &Hal::new(Arch::Pascal)).contains("SR_BARRIERSTATE"));
    }

    #[test]
    fn save_and_restore_skip_the_stack_pointer() {
        let hal = Hal::new(Arch::Maxwell);
        let s = save_text(32, &hal);
        let r = restore_text(32, &hal);
        assert!(!s.contains("STL [R1+0x4], R1"));
        assert!(!r.contains("LDL R1,"));
    }
}
