//! Prebuilt target machine descriptions, each the parse of one shipped
//! `machines/*.mdl` file.
//!
//! The PLDI '96 paper evaluates its reduction on three machines whose
//! descriptions were proprietary (HP's Cydra 5 compiler model, Bala &
//! Rubin's Alpha 21064 description, Proebsting & Fraser's MIPS
//! R3000/R3010 description). The models here are reconstructed from the
//! public architecture documentation of those machines and tuned to sit in
//! the same complexity regime (operation-class counts, latency magnitudes,
//! and description redundancy); the `//` comments of each file hold the
//! reconstruction rationale, and DESIGN.md §5 the substitution argument.
//! [`example_machine`] is the paper's own Figure 1 machine, reproduced
//! exactly.
//!
//! To change a built-in, edit its file and regenerate its certificate
//! under `certs/` with `rmd certify`.

mod alpha;
mod cydra5;
mod example;
mod mips;

pub use alpha::alpha21064;
pub use cydra5::{cydra5, cydra5_alt_groups, cydra5_subset, CYDRA5_SUBSET_OPS};
pub use example::example_machine;
pub use mips::mips_r3000;

use crate::{mdl, MachineDescription};

/// The names tools accept for the prebuilt machines, in listing order.
pub const NAMES: [&str; 5] = ["fig1", "mips", "alpha", "cydra5", "cydra5-subset"];

/// Each prebuilt machine's name and the text of the file it is parsed from.
const SOURCES: [(&str, &str); 5] = [
    ("fig1", include_str!("../../../../machines/example.mdl")),
    ("mips", include_str!("../../../../machines/mips_r3000.mdl")),
    ("alpha", include_str!("../../../../machines/alpha21064.mdl")),
    ("cydra5", include_str!("../../../../machines/cydra5.mdl")),
    (
        "cydra5-subset",
        include_str!("../../../../machines/cydra5_subset.mdl"),
    ),
];

/// Builds the prebuilt machine called `name` (one of [`NAMES`]) by parsing
/// its shipped file.
pub fn by_name(name: &str) -> Option<MachineDescription> {
    let (_, src) = SOURCES.iter().find(|(n, _)| *n == name)?;
    let (m, _) = mdl::parse_machine(src).unwrap_or_else(|e| panic!("built-in {name}: {e}"));
    Some(m)
}

/// The prebuilt machine called `name`, for the named constructors.
fn builtin(name: &str) -> MachineDescription {
    by_name(name).expect("a prebuilt machine name")
}

/// All prebuilt machines, for sweeping tests and benches.
pub fn all_machines() -> Vec<MachineDescription> {
    NAMES.into_iter().map(builtin).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for m in all_machines() {
            assert!(m.num_operations() > 0, "{} has ops", m.name());
            assert!(m.num_resources() > 0, "{} has resources", m.name());
            assert!(m.total_usages() > 0, "{} has usages", m.name());
        }
    }

    #[test]
    fn model_scale_matches_paper_regime() {
        let mips = mips_r3000();
        assert!(mips.num_operations() >= 12 && mips.num_operations() <= 20);
        let alpha = alpha21064();
        assert!(alpha.num_operations() >= 10 && alpha.num_operations() <= 16);
        let cydra = cydra5();
        assert!(
            cydra.num_operations() >= 40,
            "cydra has {} classes",
            cydra.num_operations()
        );
        assert!(cydra.num_resources() >= 40);
        let sub = cydra5_subset();
        assert!(sub.num_operations() >= 10 && sub.num_operations() <= 16);
        assert!(sub.num_resources() < cydra.num_resources());
    }

    #[test]
    fn example_machine_matches_figure_1() {
        let m = example_machine();
        assert_eq!(m.num_resources(), 5);
        assert_eq!(m.num_operations(), 2);
        let a = m.operation(m.op_by_name("A").unwrap());
        let b = m.operation(m.op_by_name("B").unwrap());
        assert_eq!(a.table().num_usages(), 3);
        assert_eq!(b.table().num_usages(), 8);
    }
}
