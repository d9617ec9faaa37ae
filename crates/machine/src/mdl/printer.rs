//! Pretty-printing machine descriptions back to MDL text.

use crate::machine::MachineDescription;
use crate::table::ReservationTable;
use std::fmt::Write as _;

/// Renders a flat [`MachineDescription`] as MDL source.
///
/// The output parses back (via [`parse_machine`](super::parse_machine)) to
/// an equal description. Runs of alternative operations expanded from a
/// common base (`X#0 .. X#{n-1}`, equal weights) are re-collapsed into an
/// `alt` block so base attribution survives the round trip; a group whose
/// members were renamed, filtered, or reweighted (e.g. by
/// [`restrict`](MachineDescription::restrict)) falls back to flat
/// printing, which drops the base.
pub fn print(m: &MachineDescription) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "machine \"{}\" {{", m.name());
    let _ = writeln!(out, "    resources {{");
    for r in m.resources() {
        let _ = writeln!(out, "        {};", r.name());
    }
    let _ = writeln!(out, "    }}");
    let ops = m.operations();
    let mut i = 0;
    while i < ops.len() {
        if let Some(j) = collapsible_group_end(m, i) {
            let base = ops[i].base().expect("group starts with a based op");
            let _ = write!(out, "\n    op {base}");
            let total = ops[i].weight() * (j - i) as f64;
            if (total - 1.0).abs() > 1e-12 {
                let _ = write!(out, " weight {total}");
            }
            let _ = writeln!(out, " alt {{");
            for op in &ops[i..j] {
                let _ = writeln!(out, "        {{");
                print_body(&mut out, m, op.table(), "            ");
                let _ = writeln!(out, "        }}");
            }
            let _ = writeln!(out, "    }}");
            i = j;
        } else {
            let op = &ops[i];
            let _ = write!(out, "\n    op {}", op.name());
            if (op.weight() - 1.0).abs() > 1e-12 {
                let _ = write!(out, " weight {}", op.weight());
            }
            let _ = writeln!(out, " {{");
            print_body(&mut out, m, op.table(), "        ");
            let _ = writeln!(out, "    }}");
            i += 1;
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// If the operations starting at `i` form a run that re-expansion would
/// reproduce exactly — names `base#0..base#{n-1}` in order, equal weights
/// whose sum divides back without rounding — returns the run's end index.
fn collapsible_group_end(m: &MachineDescription, i: usize) -> Option<usize> {
    let ops = m.operations();
    let base = ops[i].base()?;
    let mut j = i;
    while j < ops.len() && ops[j].base() == Some(base) {
        j += 1;
    }
    let n = j - i;
    if n < 2 {
        return None;
    }
    let w = ops[i].weight();
    let faithful = ops[i..j]
        .iter()
        .enumerate()
        .all(|(k, op)| op.name() == format!("{base}#{k}") && op.weight() == w)
        && (w * n as f64) / n as f64 == w;
    faithful.then_some(j)
}

fn print_body(out: &mut String, m: &MachineDescription, t: &ReservationTable, indent: &str) {
    for r in t.resources() {
        let spec = cycles_to_spec(&t.usage_set(r));
        let _ = writeln!(out, "{indent}use {} @ {spec};", m.resource(r).name());
    }
}

/// Formats a sorted cycle list compactly, merging runs into ranges:
/// `[2,3,4,6]` becomes `2..5, 6`.
fn cycles_to_spec(cycles: &[u32]) -> String {
    let mut parts = Vec::new();
    let mut i = 0;
    while i < cycles.len() {
        let start = cycles[i];
        let mut end = start;
        while i + 1 < cycles.len() && cycles[i + 1] == end + 1 {
            i += 1;
            end = cycles[i];
        }
        if end > start {
            parts.push(format!("{start}..{}", end + 1));
        } else {
            parts.push(format!("{start}"));
        }
        i += 1;
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdl::parse_machine;
    use crate::MachineBuilder;

    #[test]
    fn cycles_collapse_to_ranges() {
        assert_eq!(cycles_to_spec(&[0]), "0");
        assert_eq!(cycles_to_spec(&[2, 3, 4, 6]), "2..5, 6");
        assert_eq!(cycles_to_spec(&[1, 3, 5]), "1, 3, 5");
        assert_eq!(cycles_to_spec(&[0, 1]), "0..2");
    }

    #[test]
    fn expanded_alternatives_reprint_as_alt_blocks() {
        // Regression: `print` used to flatten alternative operations,
        // dropping their base — the reparse then disagreed on alternative
        // syntax. Expanded groups must round-trip through `alt` blocks.
        let (m, groups) = parse_machine(
            r#"machine "m" {
                resources { p0; p1; r; }
                op ld weight 3.0 alt { { use p0 @ 0; } { use p1 @ 0; } }
                op add { use r @ 0; }
            }"#,
        )
        .unwrap();
        let printed = print(&m);
        assert!(
            printed.contains("op ld weight 3 alt {"),
            "printed:\n{printed}"
        );
        let (m2, groups2) = parse_machine(&printed).unwrap();
        assert_eq!(m, m2);
        assert_eq!(groups, groups2);
    }

    #[test]
    fn printed_machine_reparses_equal() {
        let mut b = MachineBuilder::new("rt");
        let r0 = b.resource("alu");
        let r1 = b.resource("bus");
        b.operation("add").usage(r0, 0).usage(r1, 2).finish();
        b.operation("mul").span(r0, 0, 4).weight(0.5).finish();
        let m = b.build().unwrap();
        let (m2, _) = parse_machine(&print(&m)).unwrap();
        assert_eq!(m, m2);
    }
}
