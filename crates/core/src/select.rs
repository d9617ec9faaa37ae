//! Step 3: selecting synthesized resources and usages (paper §5).

use crate::synth::{SynthResource, SynthUsage};
use rmd_latency::ForbiddenMatrix;
use std::collections::{HashMap, HashSet};

/// The objective the selection heuristic minimizes, matching the paper's
/// two internal representations of partial schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Minimize the total number of resource usages — the right choice
    /// for the *discrete* representation, whose query cost is linear in
    /// usages (paper: "res-uses").
    ResUses,
    /// Minimize the number of nonempty groups of `k` consecutive cycles
    /// in the reduced reservation tables, secondarily packing as many
    /// usages as possible into those groups — the right choice for the
    /// *bitvector* representation with `k` cycle-bitvectors per memory
    /// word (paper: "k-cycle-word uses").
    KCycleWord {
        /// Cycles packed per memory word; must be ≥ 1.
        k: u32,
    },
}

impl Objective {
    fn k(self) -> Option<u32> {
        match self {
            Objective::ResUses => None,
            Objective::KCycleWord { k } => Some(k.max(1)),
        }
    }
}

/// The outcome of resource/usage selection: the reduced synthesized
/// resources (only selected usages, empty resources dropped).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Selection {
    /// The selected resources with their selected usages.
    pub resources: Vec<SynthResource>,
    /// Objective used.
    pub objective: Objective,
}

impl Selection {
    /// Total selected usages across all resources.
    pub fn total_usages(&self) -> usize {
        self.resources.iter().map(SynthResource::len).sum()
    }
}

/// A candidate usage pair within a pruned resource.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    res: usize,
    a: usize,
    b: usize,
}

/// Greedily selects a subset of the pruned generating set's resources and
/// usages that covers every nonnegative forbidden latency of `f`
/// (paper §5's selection heuristic).
///
/// The greedy loop repeatedly takes an uncovered latency with the
/// shortest candidate-pair list and picks the candidate that (for
/// [`Objective::KCycleWord`]) opens the fewest new words, then covers the
/// most uncovered latencies, then has the largest sum of newly covered
/// latencies. For the bitvector objective, every other usage of a chosen
/// resource that falls into an already-nonempty word of the same class's
/// table is selected for free, enabling earlier-out conflict detection.
///
/// # Panics
///
/// Panics if `pruned` cannot cover some forbidden latency of `f` — that
/// would mean it is not a valid (pruned) generating set for `f`.
pub fn select(f: &ForbiddenMatrix, pruned: &[SynthResource], objective: Objective) -> Selection {
    let n = f.num_ops();
    // ---- Target list: all nonnegative forbidden latencies. ----
    let mut targets: Vec<(u32, u32, i32)> = Vec::new();
    let mut target_idx: HashMap<(u32, u32, i32), usize> = HashMap::new();
    for x in 0..n {
        for y in 0..n {
            for lat in f.get_idx(x, y).iter_nonneg() {
                let t = (x as u32, y as u32, lat);
                target_idx.insert(t, targets.len());
                targets.push(t);
            }
        }
    }
    let mut covered = vec![false; targets.len()];
    let mut uncovered_count = targets.len();

    // ---- Candidate lists per target. ----
    let mut candidates: Vec<Vec<Candidate>> = vec![Vec::new(); targets.len()];
    for (ri, r) in pruned.iter().enumerate() {
        let us = r.usages();
        for i in 0..us.len() {
            for j in i..us.len() {
                for t in pair_triples(us[i], us[j]) {
                    if let Some(&ti) = target_idx.get(&t) {
                        candidates[ti].push(Candidate {
                            res: ri,
                            a: i,
                            b: j,
                        });
                    }
                }
            }
        }
    }

    // ---- Greedy cover. ----
    // Selected usage flags per resource.
    let mut sel: Vec<Vec<bool>> = pruned.iter().map(|r| vec![false; r.len()]).collect();
    // Nonempty words per class table: (class, word) — bitvector objective.
    let mut words: HashSet<(u32, u32)> = HashSet::new();
    let k = objective.k();

    // Pre-sort target visit order by candidate-list length.
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&ti| (candidates[ti].len(), ti));

    for &ti in &order {
        if covered[ti] {
            continue;
        }
        assert!(
            !candidates[ti].is_empty(),
            "no candidate generates forbidden latency {:?}; not a generating set",
            targets[ti]
        );
        // Evaluate candidates.
        let mut best: Option<(Candidate, (i64, i64, i64, i64))> = None;
        for &c in &candidates[ti] {
            let gain = candidate_gain(pruned, &sel, c, &covered, &target_idx);
            let new_words = match k {
                None => 0,
                Some(k) => {
                    let us = pruned[c.res].usages();
                    let mut nw: HashSet<(u32, u32)> = HashSet::new();
                    for &ui in &[c.a, c.b] {
                        if !sel[c.res][ui] {
                            let u = us[ui];
                            let w = (u.class, u.cycle / k);
                            if !words.contains(&w) {
                                nw.insert(w);
                            }
                        }
                    }
                    nw.len() as i64
                }
            };
            let newly = gain.len() as i64;
            let sum: i64 = gain.iter().map(|&(_, _, l)| i64::from(l)).sum();
            let new_usages = if c.a == c.b {
                i64::from(!sel[c.res][c.a])
            } else {
                i64::from(!sel[c.res][c.a]) + i64::from(!sel[c.res][c.b])
            };
            // Lexicographic score: fewer new words, more newly covered,
            // larger sum, then fewer new usages (consolidating into
            // already-selected usages). new_words is always 0 for
            // ResUses.
            let score = (-new_words, newly, sum, -new_usages);
            if best.as_ref().map_or(true, |(_, s)| score > *s) {
                best = Some((c, score));
            }
        }
        let (c, _) = best.expect("candidate list nonempty");
        apply_candidate(
            pruned,
            &mut sel,
            c,
            k,
            &mut words,
            &mut covered,
            &mut uncovered_count,
            &target_idx,
        );
        if uncovered_count == 0 {
            break;
        }
    }
    debug_assert_eq!(uncovered_count, 0);

    // ---- Bitvector free-packing: a usage in an already-nonempty word of
    // its class's table costs nothing, so select every such usage of the
    // selected resources (paper: "marks every other usage of marked
    // resources within the same word").
    if let Some(k) = k {
        for (ri, r) in pruned.iter().enumerate() {
            if sel[ri].iter().any(|&s| s) {
                for (ui, &u) in r.usages().iter().enumerate() {
                    if !sel[ri][ui] && words.contains(&(u.class, u.cycle / k)) {
                        sel[ri][ui] = true;
                    }
                }
            }
        }
    }

    // ---- Materialize. ----
    let resources: Vec<SynthResource> = pruned
        .iter()
        .zip(&sel)
        .filter_map(|(r, flags)| {
            let picked: Vec<SynthUsage> = r
                .usages()
                .iter()
                .zip(flags)
                .filter(|(_, &s)| s)
                .map(|(&u, _)| u)
                .collect();
            if picked.is_empty() {
                None
            } else {
                Some(SynthResource::from_usages(picked))
            }
        })
        .collect();
    let resources = drop_redundant(resources);
    let resources = consolidate(f, resources);
    let resources = drop_redundant(resources);
    Selection {
        resources,
        objective,
    }
}

/// Drops resources whose entire generated forbidden set is also generated
/// by the other selected resources. Greedy covers can leave such
/// stragglers, especially after word-packing adds free usages; removing
/// them shrinks both the resource count and the usage count without
/// touching coverage.
fn drop_redundant(resources: Vec<SynthResource>) -> Vec<SynthResource> {
    let mut kept: Vec<SynthResource> = resources;
    loop {
        let triples: Vec<Vec<(u32, u32, i32)>> =
            kept.iter().map(SynthResource::forbidden_triples).collect();
        let mut counts: HashMap<(u32, u32, i32), usize> = HashMap::new();
        for ts in &triples {
            for &t in ts {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        // Remove the largest fully-redundant resource, if any.
        let victim = (0..kept.len())
            .filter(|&i| triples[i].iter().all(|t| counts[t] >= 2))
            .max_by_key(|&i| kept[i].len());
        match victim {
            Some(i) => {
                kept.remove(i);
            }
            None => return kept,
        }
    }
}

/// Merges selected resources whose union is still valid (every cross
/// pair of usages generates an already-forbidden latency). Merging never
/// changes any class's reserved cycles or word counts — it only reduces
/// the number of synthesized resource rows, and with it the reserved
/// table's bits per cycle.
fn consolidate(f: &ForbiddenMatrix, mut resources: Vec<SynthResource>) -> Vec<SynthResource> {
    let mut i = 0;
    while i < resources.len() {
        let mut j = i + 1;
        while j < resources.len() {
            let mergeable = resources[j]
                .usages()
                .iter()
                .all(|&u| resources[i].accepts(f, u));
            if mergeable {
                let moved: Vec<SynthUsage> = resources[j].usages().to_vec();
                for u in moved {
                    resources[i].insert(u);
                }
                resources.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
    resources
}

/// The (oriented, nonnegative) forbidden triples a usage pair generates.
fn pair_triples(u: SynthUsage, v: SynthUsage) -> Vec<(u32, u32, i32)> {
    let d = i64::from(v.cycle) - i64::from(u.cycle);
    match d.cmp(&0) {
        core::cmp::Ordering::Greater => vec![(u.class, v.class, d as i32)],
        core::cmp::Ordering::Less => vec![(v.class, u.class, (-d) as i32)],
        core::cmp::Ordering::Equal => {
            if u == v {
                vec![(u.class, u.class, 0)]
            } else {
                vec![(u.class, v.class, 0), (v.class, u.class, 0)]
            }
        }
    }
}

/// Uncovered triples that selecting candidate `c` would cover.
fn candidate_gain(
    pruned: &[SynthResource],
    sel: &[Vec<bool>],
    c: Candidate,
    covered: &[bool],
    target_idx: &HashMap<(u32, u32, i32), usize>,
) -> Vec<(u32, u32, i32)> {
    let us = pruned[c.res].usages();
    let mut new_usages = vec![c.a];
    if c.b != c.a {
        new_usages.push(c.b);
    }
    let mut gain = HashSet::new();
    for (idx, &nu) in new_usages.iter().enumerate() {
        let u = us[nu];
        // vs previously selected usages of this resource
        for (wi, &w) in us.iter().enumerate() {
            if sel[c.res][wi] {
                for t in pair_triples(w, u) {
                    if let Some(&ti) = target_idx.get(&t) {
                        if !covered[ti] {
                            gain.insert(t);
                        }
                    }
                }
            }
        }
        // vs the other new usage (and itself)
        for &nv in &new_usages[idx..] {
            for t in pair_triples(u, us[nv]) {
                if let Some(&ti) = target_idx.get(&t) {
                    if !covered[ti] {
                        gain.insert(t);
                    }
                }
            }
        }
    }
    gain.into_iter().collect()
}

#[allow(clippy::too_many_arguments)]
fn apply_candidate(
    pruned: &[SynthResource],
    sel: &mut [Vec<bool>],
    c: Candidate,
    k: Option<u32>,
    words: &mut HashSet<(u32, u32)>,
    covered: &mut [bool],
    uncovered_count: &mut usize,
    target_idx: &HashMap<(u32, u32, i32), usize>,
) {
    let us = pruned[c.res].usages();
    let mut newly: Vec<usize> = Vec::new();
    for &ui in &[c.a, c.b] {
        if !sel[c.res][ui] {
            sel[c.res][ui] = true;
            newly.push(ui);
        }
    }
    // Free same-word packing within this resource and class.
    if let Some(k) = k {
        for &ui in &newly.clone() {
            let u = us[ui];
            words.insert((u.class, u.cycle / k));
        }
        for (wi, &w) in us.iter().enumerate() {
            if !sel[c.res][wi] && words.contains(&(w.class, w.cycle / k)) {
                sel[c.res][wi] = true;
                newly.push(wi);
            }
        }
    }
    // Update coverage: new usages against all selected usages of this
    // resource (including each other and themselves).
    for &ni in &newly {
        let u = us[ni];
        for (wi, &w) in us.iter().enumerate() {
            if sel[c.res][wi] {
                for t in pair_triples(w, u) {
                    if let Some(&ti) = target_idx.get(&t) {
                        if !covered[ti] {
                            covered[ti] = true;
                            *uncovered_count -= 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genset::generating_set;
    use crate::prune::prune_dominated;
    use rmd_machine::models::example_machine;

    fn u(c: u32, cy: u32) -> SynthUsage {
        SynthUsage::new(c, cy)
    }

    fn selection_covers_matrix(f: &ForbiddenMatrix, s: &Selection) -> bool {
        let mut covered = HashSet::new();
        for r in &s.resources {
            covered.extend(r.forbidden_triples());
        }
        for x in 0..f.num_ops() {
            for y in 0..f.num_ops() {
                for lat in f.get_idx(x, y).iter_nonneg() {
                    if !covered.contains(&(x as u32, y as u32, lat)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn example_machine_res_uses_matches_figure_1d() {
        let f = ForbiddenMatrix::compute(&example_machine());
        let pruned = prune_dominated(&generating_set(&f));
        let s = select(&f, &pruned, Objective::ResUses);
        // Two resources; A has 1 usage; B has 1 + 3 = 4 usages total
        // (the paper notes one redundant B usage can be dropped from the
        // 4-usage maximal resource).
        assert_eq!(s.resources.len(), 2);
        assert_eq!(s.total_usages(), 5);
        let a_usages: usize = s
            .resources
            .iter()
            .flat_map(|r| r.usages())
            .filter(|u| u.class == 0)
            .count();
        assert_eq!(a_usages, 1);
        assert!(selection_covers_matrix(&f, &s));
    }

    #[test]
    fn example_machine_every_selection_is_valid() {
        let f = ForbiddenMatrix::compute(&example_machine());
        let pruned = prune_dominated(&generating_set(&f));
        for obj in [
            Objective::ResUses,
            Objective::KCycleWord { k: 1 },
            Objective::KCycleWord { k: 2 },
            Objective::KCycleWord { k: 4 },
        ] {
            let s = select(&f, &pruned, obj);
            assert!(selection_covers_matrix(&f, &s), "{obj:?}");
            for r in &s.resources {
                assert!(r.is_valid(&f), "{obj:?}: {r}");
            }
        }
    }

    #[test]
    fn kcycle_packing_adds_free_usages() {
        let f = ForbiddenMatrix::compute(&example_machine());
        let pruned = prune_dominated(&generating_set(&f));
        let res = select(&f, &pruned, Objective::ResUses).total_usages();
        let k4 = select(&f, &pruned, Objective::KCycleWord { k: 4 }).total_usages();
        // With 4-cycle words the B@{0,1,2,3} usages are all in word 0, so
        // packing keeps them all.
        assert!(k4 >= res, "k4={k4} res={res}");
    }

    #[test]
    fn consolidation_merges_compatible_resources() {
        // Two ops conflicting only at 0 on separate "clusters" can share
        // one synthesized resource iff the cross pair is forbidden too.
        let mut b = rmd_machine::MachineBuilder::new("m");
        let r0 = b.resource("r0");
        let r1 = b.resource("r1");
        let shared = b.resource("shared");
        b.operation("x").usage(r0, 0).usage(shared, 0).finish();
        b.operation("y").usage(r1, 0).usage(shared, 0).finish();
        let m = b.build().unwrap();
        let f = ForbiddenMatrix::compute(&m);
        let pruned = prune_dominated(&generating_set(&f));
        let s = select(&f, &pruned, Objective::ResUses);
        // x and y conflict at 0 (shared), so one resource covers all
        // three targets; consolidation must not leave two.
        assert_eq!(s.resources.len(), 1, "{:?}", s.resources);
    }

    #[test]
    fn redundant_resources_are_dropped() {
        let f = ForbiddenMatrix::compute(&example_machine());
        let pruned = prune_dominated(&generating_set(&f));
        for obj in [Objective::ResUses, Objective::KCycleWord { k: 4 }] {
            let s = select(&f, &pruned, obj);
            // No selected resource may be fully redundant.
            let triples: Vec<_> = s
                .resources
                .iter()
                .map(SynthResource::forbidden_triples)
                .collect();
            for (i, ts) in triples.iter().enumerate() {
                let elsewhere: std::collections::HashSet<_> = triples
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .flat_map(|(_, t)| t.iter().copied())
                    .collect();
                assert!(
                    ts.iter().any(|t| !elsewhere.contains(t)),
                    "{obj:?}: resource {i} contributes nothing"
                );
            }
        }
    }

    #[test]
    fn zero_latency_targets_coverable_by_single_usage() {
        // A machine where two ops conflict only at latency 0.
        let mut b = rmd_machine::MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        b.operation("y").usage(r, 0).finish();
        let m = b.build().unwrap();
        let f = ForbiddenMatrix::compute(&m);
        let pruned = prune_dominated(&generating_set(&f));
        let s = select(&f, &pruned, Objective::ResUses);
        assert!(selection_covers_matrix(&f, &s));
        // One resource with both ops at cycle 0 suffices.
        assert_eq!(s.resources.len(), 1);
        assert_eq!(s.resources[0].usages(), &[u(0, 0), u(1, 0)]);
    }
}
