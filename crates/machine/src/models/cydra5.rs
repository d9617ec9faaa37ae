//! Cydra 5 numeric processor.

use crate::MachineDescription;

/// The operation names of the benchmark subset (paper Table 2 / Figure 4):
/// the classes actually used by the 1327-loop suite. Innermost numeric
/// loops on the Cydra used loads/stores on both ports, address arithmetic,
/// FP add/multiply (divide was compiled to reciprocal iterations), integer
/// ALU ops on the adder unit, and the `brtop` loop-control branch.
pub const CYDRA5_SUBSET_OPS: [&str; 12] = [
    "load.w.0",
    "load.w.1",
    "store.w.0",
    "store.w.1",
    "aadd.0",
    "aadd.1",
    "fadd",
    "fmul",
    "fmul.d",
    "iadd",
    "recip",
    "brtop",
];

/// The full Cydra 5 machine description, parsed from `machines/cydra5.mdl`.
pub fn cydra5() -> MachineDescription {
    super::builtin("cydra5")
}

/// The benchmark subset of the Cydra 5 (paper Table 2 / Figure 4), parsed
/// from `machines/cydra5_subset.mdl`: only the [`CYDRA5_SUBSET_OPS`]
/// classes, with unused resources dropped.
pub fn cydra5_subset() -> MachineDescription {
    super::builtin("cydra5-subset")
}

/// Alternative-operation groups for a Cydra 5 machine (full or subset):
/// the per-port memory classes and per-unit address classes are
/// interchangeable implementations of one source operation, exactly the
/// situation paper §3 expands and §7's `check-with-alt` exploits.
///
/// Works on any machine containing (a subset of) the Cydra 5 operation
/// names — base operations whose two members are not both present become
/// single-member groups, so this applies to [`cydra5_subset`] too.
pub fn cydra5_alt_groups(m: &MachineDescription) -> crate::alternatives::AltGroups {
    let bases = [
        ("load.w", ["load.w.0", "load.w.1"]),
        ("load.d", ["load.d.0", "load.d.1"]),
        ("load.x", ["load.x.0", "load.x.1"]),
        ("store.w", ["store.w.0", "store.w.1"]),
        ("store.d", ["store.d.0", "store.d.1"]),
        ("pref", ["pref.0", "pref.1"]),
        ("aadd", ["aadd.0", "aadd.1"]),
        ("asub", ["asub.0", "asub.1"]),
        ("amul", ["amul.0", "amul.1"]),
        ("amove", ["amove.0", "amove.1"]),
    ];
    let groups = bases
        .iter()
        .filter_map(|(base, members)| {
            let ids: Vec<_> = members.iter().filter_map(|n| m.op_by_name(n)).collect();
            (ids.len() == 2).then(|| (base.to_string(), ids))
        })
        .collect();
    crate::alternatives::AltGroups::from_groups(m, groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_in_the_papers_regime() {
        let m = cydra5();
        assert!(m.num_operations() >= 45, "{} ops", m.num_operations());
        assert!(m.num_resources() >= 45, "{} resources", m.num_resources());
        // Redundant, hardware-close description: >8 usages/op on average.
        assert!(m.avg_usages_per_op() > 8.0, "{}", m.avg_usages_per_op());
    }

    #[test]
    fn forbidden_latencies_bounded_by_41() {
        let m = cydra5();
        for (_, x) in m.ops() {
            for (_, y) in m.ops() {
                for j in 41..80 {
                    assert!(
                        !y.table().collides_at(x.table(), j),
                        "{} vs {} at {}",
                        x.name(),
                        y.name(),
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn subset_is_the_restriction_of_the_full_machine() {
        assert_eq!(
            cydra5_subset(),
            cydra5().restrict(&CYDRA5_SUBSET_OPS).unwrap()
        );
    }

    #[test]
    fn subset_has_12_classes_and_fewer_resources() {
        let m = cydra5_subset();
        assert_eq!(m.num_operations(), 12);
        assert!(m.num_resources() < cydra5().num_resources());
    }

    #[test]
    fn ports_conflict_within_not_across() {
        let m = cydra5();
        let l0 = m.operation(m.op_by_name("load.w.0").unwrap()).table();
        let l1 = m.operation(m.op_by_name("load.w.1").unwrap()).table();
        assert!(l0.collides_at(l0, 0));
        // Different ports, different buses: simultaneous issue is fine.
        assert!(!l0.collides_at(l1, 0));
    }

    #[test]
    fn write_bus_couples_address_units() {
        let m = cydra5();
        let a0 = m.operation(m.op_by_name("aadd.0").unwrap()).table();
        let a1 = m.operation(m.op_by_name("aadd.1").unwrap()).table();
        // Same cycle issue on both address units collides on wb2.
        assert!(a0.collides_at(a1, 0));
        assert!(!a0.collides_at(a1, 1));
    }

    #[test]
    fn crossbar_couples_unit_groups() {
        let m = cydra5();
        // fmax (xbarA@5) vs cvt.if (xbarA@3): a convert issued 2 cycles
        // after an fmax collides on crossbar A.
        let fmax = m.operation(m.op_by_name("fmax").unwrap()).table();
        let cvt = m.operation(m.op_by_name("cvt.if").unwrap()).table();
        assert!(fmax.collides_at(cvt, 2));
        assert!(!fmax.collides_at(cvt, 1));
        // recip (xbarB@9) vs mm.move (xbarB@0) couple the multiplier and
        // branch units across crossbar B.
        let recip = m.operation(m.op_by_name("recip").unwrap()).table();
        let mv = m.operation(m.op_by_name("mm.move").unwrap()).table();
        assert!(recip.collides_at(mv, 9));
        // Frequent classes keep dedicated write buses: loads never meet
        // fadd results.
        let load0 = m.operation(m.op_by_name("load.w.0").unwrap()).table();
        let fadd = m.operation(m.op_by_name("fadd").unwrap()).table();
        for j in -30..=30 {
            assert!(!load0.collides_at(fadd, j), "load.w.0 vs fadd at {j}");
        }
    }

    #[test]
    fn divide_family_shares_iterative_datapath() {
        let m = cydra5();
        let d = m.operation(m.op_by_name("fdiv").unwrap()).table();
        let s = m.operation(m.op_by_name("sqrt.d").unwrap()).table();
        assert!(d.collides_at(s, 5));
        assert!(s.collides_at(d, 30));
    }
}
