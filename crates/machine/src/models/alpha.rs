//! DEC Alpha 21064 (EV4).

use crate::MachineDescription;

/// The DEC Alpha 21064 machine description (12 operation classes), parsed
/// from `machines/alpha21064.mdl`.
pub fn alpha21064() -> MachineDescription {
    super::builtin("alpha")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_12_classes() {
        assert_eq!(alpha21064().num_operations(), 12);
    }

    #[test]
    fn dual_issue_int_fp_pairs_are_legal() {
        let m = alpha21064();
        let int = m.operation(m.op_by_name("intop").unwrap()).table();
        let fp = m.operation(m.op_by_name("fpadd").unwrap()).table();
        // An integer op and an FP op may issue in the same cycle...
        assert!(!int.collides_at(fp, 0));
        // ...but two integer ops may not (single E-box slot),
        assert!(int.collides_at(int, 0));
        // ...nor two FP ops (single F-box slot).
        assert!(fp.collides_at(fp, 0));
    }

    #[test]
    fn divider_creates_long_latencies() {
        let m = alpha21064();
        let d = m.operation(m.op_by_name("divt").unwrap()).table();
        assert!(d.collides_at(d, 56), "divider busy overlap at 56");
        assert!(!d.collides_at(d, 70));
    }

    #[test]
    fn private_decode_stages_inflate_resources() {
        let m = alpha21064();
        assert!(m.num_resources() > 40, "got {}", m.num_resources());
    }
}
