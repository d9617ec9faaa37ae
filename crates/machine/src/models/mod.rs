//! Prebuilt target machine descriptions.
//!
//! The PLDI '96 paper evaluates its reduction on three machines whose
//! descriptions were proprietary (HP's Cydra 5 compiler model, Bala &
//! Rubin's Alpha 21064 description, Proebsting & Fraser's MIPS
//! R3000/R3010 description). The models here are reconstructed from the
//! public architecture documentation of those machines and tuned to sit in
//! the same complexity regime (operation-class counts, latency magnitudes,
//! and description redundancy); see DESIGN.md §5 for the substitution
//! rationale. [`example_machine`] is the paper's own Figure 1 machine,
//! reproduced exactly.

mod alpha;
mod cydra5;
mod example;
mod mips;

pub use alpha::alpha21064;
pub use cydra5::{cydra5, cydra5_alt_groups, cydra5_subset, CYDRA5_SUBSET_OPS};
pub use example::example_machine;
pub use mips::mips_r3000;

use crate::MachineDescription;

/// The names tools accept for the prebuilt machines, in listing order.
pub const NAMES: [&str; 5] = ["fig1", "mips", "alpha", "cydra5", "cydra5-subset"];

/// Builds the prebuilt machine called `name` (one of [`NAMES`]).
pub fn by_name(name: &str) -> Option<MachineDescription> {
    match name {
        "fig1" => Some(example_machine()),
        "mips" => Some(mips_r3000()),
        "alpha" => Some(alpha21064()),
        "cydra5" => Some(cydra5()),
        "cydra5-subset" => Some(cydra5_subset()),
        _ => None,
    }
}

/// All prebuilt machines, for sweeping tests and benches.
pub fn all_machines() -> Vec<MachineDescription> {
    NAMES
        .iter()
        .map(|name| by_name(name).expect("every listed name builds"))
        .collect()
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
        assert!(cydra.num_operations() >= 40, "cydra has {} classes", cydra.num_operations());
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
