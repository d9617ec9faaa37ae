//! Algorithm 1: building the generating set of maximal resources.

use crate::error::{RmdError, StepBudget};
use crate::synth::{SynthResource, SynthUsage};
use core::fmt;
use rmd_latency::ForbiddenMatrix;

/// One step of Algorithm 1, recorded when tracing is enabled.
///
/// Resource indices refer to creation order (resources are appended;
/// subsumed resources are dropped from the final set but keep their
/// indices in the trace).
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum GenSetEvent {
    /// Started processing the elementary pair for `latency ∈ F[x][y]`.
    ProcessPair {
        /// Class that issues first (usage in cycle 0).
        x: u32,
        /// Class whose usage sits in cycle `latency`.
        y: u32,
        /// The forbidden latency the pair encodes.
        latency: i32,
    },
    /// Rule 1: the pair was fully compatible with `resource`; its usages
    /// were merged in.
    Rule1 {
        /// Index of the updated resource.
        resource: usize,
    },
    /// Rule 2: the pair was partially compatible with `from`; a new
    /// resource combining the pair and the compatible usages was added.
    Rule2 {
        /// Index of the partially compatible resource.
        from: usize,
        /// Index of the newly created resource.
        new: usize,
    },
    /// Rule 2, degenerate case: the combination was just the pair itself,
    /// or was already contained in an existing resource, and was
    /// discarded.
    Rule2Discarded {
        /// Index of the partially compatible resource.
        from: usize,
    },
    /// Rule 3: the pair's usages were not co-resident anywhere; the pair
    /// itself became a new resource.
    Rule3 {
        /// Index of the newly created resource.
        new: usize,
    },
    /// Rule 4: class `class` only forbids the 0 self-contention latency;
    /// a single-usage resource was added for it.
    Rule4 {
        /// The class receiving a single-usage resource.
        class: u32,
        /// Index of the newly created resource.
        new: usize,
    },
}

impl fmt::Display for GenSetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenSetEvent::ProcessPair { x, y, latency } => {
                write!(f, "process pair: {latency} ∈ F[c{x}][c{y}]")
            }
            GenSetEvent::Rule1 { resource } => {
                write!(
                    f,
                    "  rule 1: fully compatible — merged into resource {resource}"
                )
            }
            GenSetEvent::Rule2 { from, new } => write!(
                f,
                "  rule 2: partially compatible with resource {from} — created resource {new}"
            ),
            GenSetEvent::Rule2Discarded { from } => write!(
                f,
                "  rule 2: partially compatible with resource {from} — combination discarded"
            ),
            GenSetEvent::Rule3 { new } => {
                write!(
                    f,
                    "  rule 3: pair not co-resident — added as resource {new}"
                )
            }
            GenSetEvent::Rule4 { class, new } => write!(
                f,
                "rule 4: class c{class} has only the 0 self-latency — added resource {new}"
            ),
        }
    }
}

/// The trace of a generating-set construction.
#[derive(Clone, Debug, Default)]
pub struct GenSetTrace {
    /// Events in the order Algorithm 1 produced them.
    pub events: Vec<GenSetEvent>,
}

/// Builds the generating set of maximal resources (paper Algorithm 1).
///
/// The result is a set of [`SynthResource`]s that (a) forbid only
/// latencies forbidden by `f` and (b) include every maximal resource of
/// the target machine (Theorem 1); it may also contain some submaximal
/// resources, which [`prune_dominated`](crate::prune_dominated) removes.
///
/// This implementation additionally keeps the working set an *antichain*
/// under usage-set inclusion: a Rule 2 combination already contained in
/// an existing resource is discarded, and resources subsumed by a new or
/// grown resource are dropped. Both moves are safe for Theorem 1 — the
/// inductive argument only requires that, at each step, *some* resource
/// contains all usages accumulated so far, and a superset resource
/// satisfies that just as well — and they keep the construction
/// polynomial in practice on machine descriptions with long non-pipelined
/// occupancies.
pub fn generating_set(f: &ForbiddenMatrix) -> Vec<SynthResource> {
    build(f, None, None).expect("unlimited budget cannot exhaust")
}

/// Like [`generating_set`], also recording every rule application —
/// used by the Figure 3 reproduction and for debugging machine models.
pub fn generating_set_traced(f: &ForbiddenMatrix) -> (Vec<SynthResource>, GenSetTrace) {
    let mut trace = GenSetTrace::default();
    let set = build(f, Some(&mut trace), None).expect("unlimited budget cannot exhaust");
    (set, trace)
}

/// Like [`generating_set`], but charges one step per elementary pair and
/// per pair-versus-resource consideration against `budget`, unwinding
/// with [`RmdError::BudgetExhausted`](crate::RmdError::BudgetExhausted)
/// when it runs out — the hook
/// [`reduce_with_fallback`](crate::reduce_with_fallback) uses to bound
/// worst-case work.
///
/// # Errors
///
/// Returns [`RmdError::BudgetExhausted`](crate::RmdError::BudgetExhausted)
/// if `budget` runs out mid-construction.
pub fn generating_set_budgeted(
    f: &ForbiddenMatrix,
    budget: &mut StepBudget,
) -> Result<Vec<SynthResource>, RmdError> {
    build(f, None, Some(budget))
}

/// A 64-bit inclusion signature: `sig(a) & !sig(b) != 0` proves `a ⊄ b`.
fn signature(r: &SynthResource) -> u64 {
    let mut s = 0u64;
    for u in r.usages() {
        s |= 1u64 << ((u.class.wrapping_mul(31).wrapping_add(u.cycle)) % 64);
    }
    s
}

struct WorkingSet {
    /// Slot is `None` once the resource has been subsumed.
    slots: Vec<Option<SynthResource>>,
    sigs: Vec<u64>,
}

impl WorkingSet {
    fn new() -> Self {
        WorkingSet {
            slots: Vec::new(),
            sigs: Vec::new(),
        }
    }

    /// Is `cand` a subset of (or equal to) some live resource?
    fn subsumed(&self, cand: &SynthResource, sig: u64) -> bool {
        self.slots
            .iter()
            .zip(&self.sigs)
            .any(|(s, &rs)| sig & !rs == 0 && s.as_ref().is_some_and(|r| cand.is_subset(r)))
    }

    /// Drops live resources that are strict subsets of `cand`.
    fn drop_subsets_of(&mut self, cand: &SynthResource, sig: u64, except: usize) {
        for i in 0..self.slots.len() {
            if i == except {
                continue;
            }
            if self.sigs[i] & !sig != 0 {
                continue;
            }
            if let Some(r) = &self.slots[i] {
                if r.len() < cand.len() && r.is_subset(cand) {
                    self.slots[i] = None;
                }
            }
        }
    }

    /// Adds `cand` (assumed not subsumed); returns its index.
    fn push(&mut self, cand: SynthResource) -> usize {
        let sig = signature(&cand);
        self.drop_subsets_of(&cand, sig, usize::MAX);
        self.slots.push(Some(cand));
        self.sigs.push(sig);
        self.slots.len() - 1
    }

    fn refresh_sig(&mut self, i: usize) {
        if let Some(r) = &self.slots[i] {
            self.sigs[i] = signature(r);
        }
    }
}

fn build(
    f: &ForbiddenMatrix,
    mut trace: Option<&mut GenSetTrace>,
    mut budget: Option<&mut StepBudget>,
) -> Result<Vec<SynthResource>, RmdError> {
    let n = f.num_ops();
    let mut set = WorkingSet::new();

    macro_rules! charge {
        ($n:expr) => {
            if let Some(b) = budget.as_deref_mut() {
                b.charge($n)?;
            }
        };
    }

    macro_rules! emit {
        ($e:expr) => {
            if let Some(t) = trace.as_deref_mut() {
                t.events.push($e);
            }
        };
    }

    // Step 1: elementary pairs for all nonnegative forbidden latencies,
    // excluding the 0 self-contention latencies (Rule 4 covers those).
    // Row-major order matches the paper's Figure 3 walk-through.
    for x in 0..n {
        for y in 0..n {
            for lat in f.get_idx(x, y).iter_nonneg() {
                if lat == 0 && x == y {
                    continue;
                }
                charge!(1);
                let u0 = SynthUsage::new(x as u32, 0);
                let u1 = SynthUsage::new(y as u32, lat as u32);
                emit!(GenSetEvent::ProcessPair {
                    x: x as u32,
                    y: y as u32,
                    latency: lat,
                });

                // Step 2: try the pair against every resource currently
                // in the set (snapshot; later additions already hold it).
                let snapshot = set.slots.len();
                let mut co_resident = false;
                for qi in 0..snapshot {
                    charge!(1);
                    let Some(q) = &set.slots[qi] else { continue };
                    if q.accepts(f, u0) && q.accepts(f, u1) {
                        // Rule 1: merge the pair into q.
                        let q = set.slots[qi].as_mut().expect("checked live");
                        let grew = q.insert(u0) | q.insert(u1);
                        co_resident = true;
                        if grew {
                            set.refresh_sig(qi);
                            let grown = set.slots[qi].clone().expect("live");
                            let sig = set.sigs[qi];
                            set.drop_subsets_of(&grown, sig, qi);
                        }
                        emit!(GenSetEvent::Rule1 { resource: qi });
                    } else {
                        // Rule 2: combine the pair with the compatible
                        // subset of q.
                        let q = set.slots[qi].as_ref().expect("checked live");
                        let mut cand = SynthResource::from_usages([u0, u1]);
                        for &w in q.usages() {
                            if crate::synth::usages_compatible(f, w, u0)
                                && crate::synth::usages_compatible(f, w, u1)
                            {
                                cand.insert(w);
                            }
                        }
                        // "If this new resource is not simply p itself
                        // with no other usages, then it is added" — and
                        // a combination an existing resource already
                        // contains adds nothing (antichain invariant).
                        if cand.len() > 2 {
                            let sig = signature(&cand);
                            if set.subsumed(&cand, sig) {
                                co_resident = true;
                                emit!(GenSetEvent::Rule2Discarded { from: qi });
                            } else {
                                let idx = set.push(cand);
                                co_resident = true;
                                emit!(GenSetEvent::Rule2 { from: qi, new: idx });
                            }
                        } else {
                            emit!(GenSetEvent::Rule2Discarded { from: qi });
                        }
                    }
                }

                // Rule 3: the pair is not yet co-resident in any resource.
                if !co_resident {
                    let pair = SynthResource::from_usages([u0, u1]);
                    let sig = signature(&pair);
                    if !set.subsumed(&pair, sig) {
                        let idx = set.push(pair);
                        emit!(GenSetEvent::Rule3 { new: idx });
                    }
                }
            }
        }
    }

    // Step 3 / Rule 4: operations whose only forbidden latency is the 0
    // self-contention get a dedicated single-usage resource.
    for x in 0..n {
        let only_self_zero = (0..n).all(|z| {
            let row = f.get_idx(x, z);
            let col = f.get_idx(z, x);
            if z == x {
                row.len() == 1 && row.contains(0)
            } else {
                row.is_empty() && col.is_empty()
            }
        });
        if only_self_zero && !f.get_idx(x, x).is_empty() {
            let r = SynthResource::from_usages([SynthUsage::new(x as u32, 0)]);
            let idx = set.push(r);
            emit!(GenSetEvent::Rule4 {
                class: x as u32,
                new: idx,
            });
        }
    }

    Ok(set.slots.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_latency::ForbiddenMatrix;
    use rmd_machine::models::example_machine;
    use rmd_machine::MachineBuilder;

    fn u(c: u32, cy: u32) -> SynthUsage {
        SynthUsage::new(c, cy)
    }

    #[test]
    fn example_machine_generating_set_matches_figure_3() {
        // Figure 3d: the final generating set for the example machine is
        // { [B@0 A@1], [B@0 B@1 B@2 B@3] } (A = class 0, B = class 1).
        let f = ForbiddenMatrix::compute(&example_machine());
        let set = generating_set(&f);
        let r0 = SynthResource::from_usages([u(1, 0), u(0, 1)]);
        let r1 = SynthResource::from_usages([u(1, 0), u(1, 1), u(1, 2), u(1, 3)]);
        assert!(set.contains(&r0), "{set:?}");
        assert!(set.contains(&r1), "{set:?}");
        // All generated resources are valid.
        for r in &set {
            assert!(r.is_valid(&f), "{r}");
        }
    }

    #[test]
    fn trace_replays_paper_order() {
        let f = ForbiddenMatrix::compute(&example_machine());
        let (_, trace) = generating_set_traced(&f);
        let pairs: Vec<(u32, u32, i32)> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                GenSetEvent::ProcessPair { x, y, latency } => Some((*x, *y, *latency)),
                _ => None,
            })
            .collect();
        // The paper processes 1∈F[B][A], then 1,2,3 ∈ F[B][B].
        assert_eq!(pairs, vec![(1, 0, 1), (1, 1, 1), (1, 1, 2), (1, 1, 3)]);
    }

    #[test]
    fn rule4_fires_for_isolated_ops() {
        let mut b = MachineBuilder::new("m");
        let r0 = b.resource("r0");
        let r1 = b.resource("r1");
        b.operation("solo").usage(r0, 0).finish();
        b.operation("other").usage(r1, 0).usage(r1, 2).finish();
        let m = b.build().unwrap();
        let f = ForbiddenMatrix::compute(&m);
        let set = generating_set(&f);
        assert!(
            set.contains(&SynthResource::from_usages([u(0, 0)])),
            "solo op needs a single-usage resource: {set:?}"
        );
    }

    #[test]
    fn generated_resources_never_overforbid() {
        for m in rmd_machine::models::all_machines() {
            if m.num_operations() > 20 {
                continue; // big models covered in integration tests
            }
            let f = ForbiddenMatrix::compute(&m);
            for r in generating_set(&f) {
                assert!(r.is_valid(&f), "{}: {r}", m.name());
            }
        }
    }

    #[test]
    fn generating_set_covers_every_latency() {
        let m = example_machine();
        let f = ForbiddenMatrix::compute(&m);
        let set = generating_set(&f);
        let mut covered = std::collections::HashSet::new();
        for r in &set {
            covered.extend(r.forbidden_triples());
        }
        for x in 0..f.num_ops() {
            for y in 0..f.num_ops() {
                for lat in f.get_idx(x, y).iter_nonneg() {
                    assert!(
                        covered.contains(&(x as u32, y as u32, lat)),
                        "latency {lat} ∈ F[{x}][{y}] uncovered"
                    );
                }
            }
        }
    }

    #[test]
    fn result_is_an_antichain() {
        let f = ForbiddenMatrix::compute(&rmd_machine::models::mips_r3000());
        let set = generating_set(&f);
        for (i, a) in set.iter().enumerate() {
            for (j, b) in set.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset(b), "resource {i} ⊆ resource {j}");
                }
            }
        }
    }
}
