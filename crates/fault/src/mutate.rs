//! Seeded mutation operators over machine descriptions and reduced
//! outputs.
//!
//! Each operator produces a *mutant*: a small, deliberate corruption of
//! a machine description, of a reduction's selected cover, or of a query
//! module's packed bitvector state. The harness then asks whether the
//! workspace's correctness gates — the exact-equivalence verifier and
//! the differential query-trace oracle — actually notice.
//!
//! A mutant is **semantic** when it changes the forbidden-latency
//! matrix (the paper's Theorem 1 invariant) and **neutral** when it
//! only reshuffles structure while forbidding exactly the same
//! latencies. Only semantic mutants must be killed; killing a neutral
//! mutant would be an oracle false positive, which the audit also
//! reports.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmd_core::{try_reduce, verify_equivalence, Objective, ReduceOptions};
use rmd_machine::{MachineBuilder, MachineDescription, ResourceId};

/// The eight mutation operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationOp {
    /// Remove one usage from one operation's reservation table.
    DropUsage,
    /// Move one usage of one operation one cycle earlier or later.
    ShiftUsage,
    /// Redirect every usage of one resource onto another resource.
    MergeResources,
    /// Reduce the machine, then remove one usage from the selected
    /// cover — dropping the forbidden latencies only that usage pair
    /// generated.
    DropCoverLatency,
    /// Flip a bit in the packed reserved-table word of a
    /// [`BitvecModule`](rmd_query::BitvecModule), planting a phantom
    /// reservation the discrete representation does not see.
    CorruptWord,
    /// Delete the last cycle of one operation's reservation table.
    TruncateTable,
    /// Swap the reservation tables of two operations (preferring two
    /// alternatives expanded from the same base operation).
    SwapAlternative,
    /// Add a spurious usage to one operation, perturbing its operation
    /// class.
    PerturbClass,
}

/// All operators, in a fixed audit order.
pub const ALL_OPERATORS: [MutationOp; 8] = [
    MutationOp::DropUsage,
    MutationOp::ShiftUsage,
    MutationOp::MergeResources,
    MutationOp::DropCoverLatency,
    MutationOp::CorruptWord,
    MutationOp::TruncateTable,
    MutationOp::SwapAlternative,
    MutationOp::PerturbClass,
];

impl MutationOp {
    /// A stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::DropUsage => "drop-usage",
            MutationOp::ShiftUsage => "shift-usage",
            MutationOp::MergeResources => "merge-resources",
            MutationOp::DropCoverLatency => "drop-cover-latency",
            MutationOp::CorruptWord => "corrupt-word",
            MutationOp::TruncateTable => "truncate-table",
            MutationOp::SwapAlternative => "swap-alternative",
            MutationOp::PerturbClass => "perturb-class",
        }
    }
}

impl core::fmt::Display for MutationOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a mutant actually corrupts.
#[derive(Clone, Debug)]
pub enum MutantPayload {
    /// A corrupted machine description, to be compared against the
    /// original it was derived from.
    Machine(MachineDescription),
    /// A corrupted *reduction output*: the reduced machine with one
    /// selected cover usage removed. Compared against the original
    /// machine, exactly as the reduction pipeline's own last phase
    /// verifies it.
    ReducedMachine(MachineDescription),
    /// A flipped bit in the packed reserved table of a bitvector query
    /// module over the (unmodified) original machine.
    QueryWord {
        /// Global schedule cycle of the phantom reservation.
        cycle: u32,
        /// Resource index of the phantom reservation.
        resource: u32,
    },
}

/// One generated mutant.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The operator that produced it.
    pub op: MutationOp,
    /// The seed it was produced from.
    pub seed: u64,
    /// Human-readable description of the exact corruption.
    pub what: String,
    /// The corrupted artifact.
    pub payload: MutantPayload,
}

impl Mutant {
    /// Whether the mutant changes observable scheduling constraints.
    ///
    /// For description-level mutants this is the paper's condition: the
    /// forbidden-latency matrix differs from the original's. Bitvector
    /// word corruption is semantic by construction — the operator only
    /// plants phantom reservations on cycles a real operation usage can
    /// probe.
    pub fn is_semantic(&self, original: &MachineDescription) -> bool {
        match &self.payload {
            MutantPayload::Machine(m) | MutantPayload::ReducedMachine(m) => {
                verify_equivalence(original, m).is_err()
            }
            MutantPayload::QueryWord { .. } => true,
        }
    }
}

/// A mutable, builder-friendly copy of a machine description: the
/// mutation operators and the fuzz shrinker edit one and rebuild it.
#[derive(Clone)]
pub(crate) struct Parts {
    pub(crate) name: String,
    pub(crate) resources: Vec<String>,
    pub(crate) ops: Vec<OpParts>,
}

#[derive(Clone)]
pub(crate) struct OpParts {
    pub(crate) name: String,
    pub(crate) usages: Vec<(u32, u32)>, // (resource index, cycle)
    pub(crate) base: Option<String>,
    pub(crate) weight: f64,
}

impl Parts {
    pub(crate) fn of(m: &MachineDescription) -> Parts {
        Parts {
            name: m.name().to_owned(),
            resources: m.resources().iter().map(|r| r.name().to_owned()).collect(),
            ops: m
                .operations()
                .iter()
                .map(|op| OpParts {
                    name: op.name().to_owned(),
                    usages: op
                        .table()
                        .usages()
                        .iter()
                        .map(|u| (u.resource.0, u.cycle))
                        .collect(),
                    base: op.base().map(str::to_owned),
                    weight: op.weight(),
                })
                .collect(),
        }
    }

    /// Rebuilds a description; `None` if the edit produced a machine
    /// the validating builder refuses (empty operation, dangling id).
    pub(crate) fn build(self) -> Option<MachineDescription> {
        let mut b = MachineBuilder::new(self.name);
        for r in &self.resources {
            b.resource(r.clone());
        }
        for op in self.ops {
            let mut ob = b.operation(op.name).weight(op.weight);
            if let Some(base) = op.base {
                ob = ob.base(base);
            }
            for (r, c) in op.usages {
                ob = ob.usage(ResourceId(r), c);
            }
            ob.finish();
        }
        b.build().ok()
    }
}

/// The parts of `m` under the mutant's name, `<name>-<suffix>`.
fn mutant_parts(m: &MachineDescription, suffix: &str) -> Parts {
    let mut parts = Parts::of(m);
    parts.name = format!("{}-{suffix}", parts.name);
    parts
}

/// Applies `op` to `machine` under `seed`.
///
/// Returns `None` when the operator does not apply (e.g. dropping a
/// usage from a machine whose every operation has exactly one, which
/// the validating builder would reject rather than mis-schedule).
pub fn mutate(machine: &MachineDescription, op: MutationOp, seed: u64) -> Option<Mutant> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (what, payload) = match op {
        MutationOp::DropUsage => drop_usage(machine, &mut rng)?,
        MutationOp::ShiftUsage => shift_usage(machine, &mut rng)?,
        MutationOp::MergeResources => merge_resources(machine, &mut rng)?,
        MutationOp::DropCoverLatency => drop_cover_latency(machine, &mut rng)?,
        MutationOp::CorruptWord => corrupt_word(machine, &mut rng)?,
        MutationOp::TruncateTable => truncate_table(machine, &mut rng)?,
        MutationOp::SwapAlternative => swap_alternative(machine, &mut rng)?,
        MutationOp::PerturbClass => perturb_class(machine, &mut rng)?,
    };
    Some(Mutant {
        op,
        seed,
        what,
        payload,
    })
}

fn drop_usage(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    let mut parts = mutant_parts(m, "mut");
    let candidates: Vec<usize> = (0..parts.ops.len())
        .filter(|&i| parts.ops[i].usages.len() >= 2)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let oi = candidates[rng.index(candidates.len())];
    let ui = rng.index(parts.ops[oi].usages.len());
    let (r, c) = parts.ops[oi].usages.remove(ui);
    let what = format!(
        "dropped usage {}@{c} from `{}`",
        parts.resources[r as usize], parts.ops[oi].name
    );
    Some((what, MutantPayload::Machine(parts.build()?)))
}

fn shift_usage(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    let mut parts = mutant_parts(m, "mut");
    let oi = rng.index(parts.ops.len());
    let op = &mut parts.ops[oi];
    let ui = rng.index(op.usages.len());
    let (r, c) = op.usages[ui];
    let c2 = if c > 0 && rng.flip() { c - 1 } else { c + 1 };
    op.usages[ui] = (r, c2);
    let what = format!(
        "shifted usage {}@{c} of `{}` to cycle {c2}",
        parts.resources[r as usize], parts.ops[oi].name
    );
    Some((what, MutantPayload::Machine(parts.build()?)))
}

fn merge_resources(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    if m.num_resources() < 2 {
        return None;
    }
    let mut parts = mutant_parts(m, "mut");
    let a = rng.index(parts.resources.len()) as u32;
    let mut b = rng.index(parts.resources.len()) as u32;
    if a == b {
        b = (b + 1) % parts.resources.len() as u32;
    }
    for op in &mut parts.ops {
        for u in &mut op.usages {
            if u.0 == b {
                u.0 = a;
            }
        }
    }
    let what = format!(
        "merged resource `{}` into `{}`",
        parts.resources[b as usize], parts.resources[a as usize]
    );
    Some((what, MutantPayload::Machine(parts.build()?)))
}

fn drop_cover_latency(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    // Reduce for real, then knock one usage out of the selected cover —
    // the precise failure the pipeline's mandatory verification exists
    // to contain.
    let objective = if rng.flip() {
        Objective::ResUses
    } else {
        Objective::KCycleWord { k: 4 }
    };
    let red = try_reduce(m, objective, &ReduceOptions::default()).ok()?;
    let mut parts = mutant_parts(&red.reduced, "cover-mut");
    let candidates: Vec<usize> = (0..parts.ops.len())
        .filter(|&i| parts.ops[i].usages.len() >= 2)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let oi = candidates[rng.index(candidates.len())];
    let ui = rng.index(parts.ops[oi].usages.len());
    let (r, c) = parts.ops[oi].usages.remove(ui);
    let what = format!(
        "dropped selected cover usage {}@{c} from `{}` ({objective:?})",
        parts.resources[r as usize], parts.ops[oi].name
    );
    Some((what, MutantPayload::ReducedMachine(parts.build()?)))
}

fn corrupt_word(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    // A packed word holds num_resources bits per cycle; the layout only
    // exists when a cycle's bits fit in one u64.
    if m.num_resources() > 64 {
        return None;
    }
    // Plant the phantom reservation on a (resource, cycle) some real
    // operation usage can land on: pick an operation and one of its
    // usages (resource r in table cycle c), then corrupt cycle
    // `c + offset` for a small offset — any `check(op, offset)` probes
    // exactly that cell, so the corruption is observable by
    // construction.
    let oi = rng.index(m.num_operations());
    let op = &m.operations()[oi];
    let u = op.table().usages()[rng.index(op.table().num_usages())];
    let offset = rng.below(8) as u32;
    let cycle = u.cycle + offset;
    let what = format!(
        "flipped reserved-table bit ({}, cycle {cycle}) in the packed bitvector",
        m.resource(u.resource).name()
    );
    Some((
        what,
        MutantPayload::QueryWord {
            cycle,
            resource: u.resource.0,
        },
    ))
}

fn truncate_table(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    let mut parts = mutant_parts(m, "mut");
    // Truncatable: dropping the final cycle leaves the table nonempty.
    let candidates: Vec<usize> = (0..parts.ops.len())
        .filter(|&i| {
            let us = &parts.ops[i].usages;
            let last = us.iter().map(|&(_, c)| c).max().unwrap_or(0);
            us.iter().any(|&(_, c)| c < last)
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let oi = candidates[rng.index(candidates.len())];
    let op = &mut parts.ops[oi];
    let last = op.usages.iter().map(|&(_, c)| c).max().expect("nonempty");
    op.usages.retain(|&(_, c)| c < last);
    let what = format!(
        "truncated `{}` at cycle {last} (dropped its final-cycle usages)",
        parts.ops[oi].name
    );
    Some((what, MutantPayload::Machine(parts.build()?)))
}

fn swap_alternative(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    if m.num_operations() < 2 {
        return None;
    }
    let mut parts = mutant_parts(m, "mut");
    // Prefer swapping two alternatives expanded from one base operation;
    // fall back to any two operations.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..parts.ops.len() {
        for j in i + 1..parts.ops.len() {
            if let (Some(a), Some(b)) = (&parts.ops[i].base, &parts.ops[j].base) {
                if a == b {
                    pairs.push((i, j));
                }
            }
        }
    }
    let (i, j) = if pairs.is_empty() {
        let i = rng.index(parts.ops.len());
        let mut j = rng.index(parts.ops.len());
        if i == j {
            j = (j + 1) % parts.ops.len();
        }
        (i.min(j), i.max(j))
    } else {
        pairs[rng.index(pairs.len())]
    };
    let (left, right) = parts.ops.split_at_mut(j);
    core::mem::swap(&mut left[i].usages, &mut right[0].usages);
    let what = format!(
        "swapped reservation tables of `{}` and `{}`",
        parts.ops[i].name, parts.ops[j].name
    );
    Some((what, MutantPayload::Machine(parts.build()?)))
}

fn perturb_class(m: &MachineDescription, rng: &mut StdRng) -> Option<(String, MutantPayload)> {
    let mut parts = mutant_parts(m, "mut");
    let oi = rng.index(parts.ops.len());
    let r = rng.index(parts.resources.len()) as u32;
    let len = parts.ops[oi]
        .usages
        .iter()
        .map(|&(_, c)| c)
        .max()
        .unwrap_or(0);
    // Find a free (resource, cycle) slot in or just past the table.
    let mut cycle = rng.below(u64::from(len) + 2) as u32;
    for _ in 0..=len + 2 {
        if !parts.ops[oi].usages.contains(&(r, cycle)) {
            break;
        }
        cycle += 1;
    }
    if parts.ops[oi].usages.contains(&(r, cycle)) {
        return None;
    }
    parts.ops[oi].usages.push((r, cycle));
    let what = format!(
        "added spurious usage {}@{cycle} to `{}`",
        parts.resources[r as usize], parts.ops[oi].name
    );
    Some((what, MutantPayload::Machine(parts.build()?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    #[test]
    fn every_operator_applies_to_the_example_machine() {
        let m = example_machine();
        for op in ALL_OPERATORS {
            let mut produced = false;
            for seed in 0..8 {
                if mutate(&m, op, seed).is_some() {
                    produced = true;
                    break;
                }
            }
            assert!(produced, "{op} never applied");
        }
    }

    #[test]
    fn mutants_are_reproducible() {
        let m = example_machine();
        for op in ALL_OPERATORS {
            let a = mutate(&m, op, 3).map(|mu| mu.what);
            let b = mutate(&m, op, 3).map(|mu| mu.what);
            assert_eq!(a, b, "{op}");
        }
    }

    #[test]
    fn machine_mutants_differ_structurally_from_the_original() {
        let m = example_machine();
        for op in ALL_OPERATORS {
            for seed in 0..8 {
                if let Some(mu) = mutate(&m, op, seed) {
                    if let MutantPayload::Machine(m2) = &mu.payload {
                        assert_ne!(
                            m2.operations()
                                .iter()
                                .map(|o| o.table().clone())
                                .collect::<Vec<_>>(),
                            m.operations()
                                .iter()
                                .map(|o| o.table().clone())
                                .collect::<Vec<_>>(),
                            "{op} seed {seed} produced an identical machine: {}",
                            mu.what
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn drop_cover_latency_mutates_the_reduction_output() {
        let m = example_machine();
        let mut found = false;
        for seed in 0..16 {
            if let Some(mu) = mutate(&m, MutationOp::DropCoverLatency, seed) {
                found = true;
                assert!(matches!(mu.payload, MutantPayload::ReducedMachine(_)));
            }
        }
        assert!(found);
    }
}
