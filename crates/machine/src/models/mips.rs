//! MIPS R3000 integer unit + R3010 floating-point accelerator.

use crate::MachineDescription;

/// The MIPS R3000/R3010 machine description (15 operation classes), parsed
/// from `machines/mips_r3000.mdl`.
pub fn mips_r3000() -> MachineDescription {
    super::builtin("mips")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_15_classes() {
        assert_eq!(mips_r3000().num_operations(), 15);
    }

    #[test]
    fn latencies_stay_below_34() {
        let m = mips_r3000();
        assert!(m.max_table_length() <= 34);
    }

    #[test]
    fn divider_is_non_pipelined() {
        let m = mips_r3000();
        let d = m.operation(m.op_by_name("div.s").unwrap()).table();
        // Back-to-back div.s must conflict for 10 consecutive latencies.
        for j in 1..10 {
            assert!(d.collides_at(d, j), "div.s self-conflict at {j}");
        }
    }

    #[test]
    fn alu_ops_are_fully_pipelined() {
        let m = mips_r3000();
        let a = m.operation(m.op_by_name("alu").unwrap()).table();
        assert!(a.collides_at(a, 0));
        for j in 1..8 {
            assert!(!a.collides_at(a, j), "alu self-conflict at {j}");
        }
    }
}
