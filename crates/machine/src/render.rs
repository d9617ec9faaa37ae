//! ASCII rendering of reservation tables, in the style of the paper's
//! Figures 1 and 4.

use crate::machine::MachineDescription;
use crate::table::ReservationTable;
use std::fmt::Write as _;

/// Renders the reservation table of a single operation as a grid with one
/// row per resource the machine declares and one column per cycle.
///
/// `mark` is the character placed at reserved entries (the paper uses the
/// operation's letter).
///
/// # Example
///
/// ```
/// use rmd_machine::{MachineBuilder, render};
///
/// let mut b = MachineBuilder::new("m");
/// let r0 = b.resource("issue");
/// let r1 = b.resource("alu");
/// b.operation("A").usage(r0, 0).usage(r1, 1).finish();
/// let m = b.build().unwrap();
/// let grid = render::table(&m, m.operations()[0].table(), 'A');
/// assert!(grid.contains("issue"));
/// ```
pub fn table(m: &MachineDescription, t: &ReservationTable, mark: char) -> String {
    let width = t.length().max(1);
    let name_w = m
        .resources()
        .iter()
        .map(|r| r.name().len())
        .max()
        .unwrap_or(4)
        .max(5);
    let mut out = String::new();
    let _ = write!(out, "{:>name_w$} |", "cycle");
    for c in 0..width {
        let _ = write!(out, "{c:>3}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{}-+{}",
        "-".repeat(name_w),
        "-".repeat(3 * width as usize)
    );
    for (i, r) in m.resources().iter().enumerate() {
        let _ = write!(out, "{:>name_w$} |", r.name());
        for c in 0..width {
            let used = t.uses(crate::ids::ResourceId(i as u32), c);
            let _ = write!(out, "{:>3}", if used { mark } else { '.' });
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders every operation's reservation table, using the first character
/// of each operation name as its mark.
pub fn machine(m: &MachineDescription) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({} resources, {} usages)",
        m.name(),
        m.num_resources(),
        m.total_usages()
    );
    for op in m.operations() {
        let mark = op.name().chars().next().unwrap_or('?').to_ascii_uppercase();
        let _ = writeln!(
            out,
            "\noperation {} ({} usages):",
            op.name(),
            op.table().num_usages()
        );
        let _ = write!(out, "{}", table(m, op.table(), mark));
    }
    out
}

/// Renders a machine as one combined grid per resource row showing which
/// operations use it when — compact overview used by the Figure 4
/// reproduction.
pub fn overview(m: &MachineDescription) -> String {
    let width = m.max_table_length().max(1);
    let name_w = m
        .resources()
        .iter()
        .map(|r| r.name().len())
        .max()
        .unwrap_or(4)
        .max(5);
    let mut out = String::new();
    let _ = write!(out, "{:>name_w$} |", "cycle");
    for c in 0..width {
        let _ = write!(out, "{:>3}", c % 100);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{}-+{}",
        "-".repeat(name_w),
        "-".repeat(3 * width as usize)
    );
    for (i, r) in m.resources().iter().enumerate() {
        let rid = crate::ids::ResourceId(i as u32);
        let _ = write!(out, "{:>name_w$} |", r.name());
        for c in 0..width {
            let n = m
                .operations()
                .iter()
                .filter(|op| op.table().uses(rid, c))
                .count();
            let cell = match n {
                0 => ".".to_owned(),
                n if n < 10 => n.to_string(),
                _ => "+".to_owned(),
            };
            let _ = write!(out, "{cell:>3}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineBuilder;

    fn toy() -> MachineDescription {
        let mut b = MachineBuilder::new("toy");
        let r0 = b.resource("iss");
        let r1 = b.resource("alu");
        b.operation("add").usage(r0, 0).usage(r1, 1).finish();
        b.operation("mul").usage(r0, 0).span(r1, 1, 3).finish();
        b.build().unwrap()
    }

    #[test]
    fn table_marks_reserved_cells() {
        let m = toy();
        let s = table(&m, m.operations()[0].table(), 'A');
        let alu_line = s.lines().find(|l| l.contains("alu")).unwrap();
        assert!(alu_line.contains('A'));
        let iss_line = s.lines().find(|l| l.contains("iss")).unwrap();
        assert!(iss_line.contains('A'));
    }

    #[test]
    fn machine_render_lists_all_ops() {
        let m = toy();
        let s = machine(&m);
        assert!(s.contains("operation add"));
        assert!(s.contains("operation mul"));
    }

    #[test]
    fn overview_counts_users() {
        let m = toy();
        let s = overview(&m);
        let iss = s.lines().find(|l| l.contains("iss")).unwrap();
        // Both ops use `iss` in cycle 0.
        assert!(iss.contains('2'));
    }
}
