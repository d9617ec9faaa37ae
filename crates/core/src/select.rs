//! Step 3: selecting synthesized resources and usages (paper §5).

use crate::synth::{SynthResource, SynthUsage};
use rmd_latency::ForbiddenMatrix;

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

/// A candidate usage pair within a pruned resource: usages `a ≤ b` of
/// resource `res`.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    res: u32,
    a: u32,
    b: u32,
}

/// The nonnegative forbidden latencies of a matrix, numbered densely in
/// row-major order, latency ascending within a cell.
struct Targets {
    n: usize,
    /// Cell `x * n + y`'s targets are `list[cell_start[x * n + y]..]`, up
    /// to the next cell's start.
    cell_start: Vec<usize>,
    list: Vec<(u32, u32, i32)>,
}

impl Targets {
    fn new(f: &ForbiddenMatrix) -> Self {
        let n = f.num_ops();
        let mut cell_start = Vec::with_capacity(n * n + 1);
        let mut list = Vec::with_capacity(f.total_nonneg());
        cell_start.push(0);
        for x in 0..n {
            for y in 0..n {
                list.extend(
                    f.get_idx(x, y)
                        .iter_nonneg()
                        .map(|lat| (x as u32, y as u32, lat)),
                );
                cell_start.push(list.len());
            }
        }
        Targets {
            n,
            cell_start,
            list,
        }
    }

    /// The id of target `t`, if `t` is one.
    fn id(&self, (x, y, lat): (u32, u32, i32)) -> Option<usize> {
        let (x, y) = (x as usize, y as usize);
        if x >= self.n || y >= self.n {
            return None;
        }
        let k = x * self.n + y;
        let from = self.cell_start[k];
        self.list[from..self.cell_start[k + 1]]
            .binary_search_by_key(&lat, |t| t.2)
            .ok()
            .map(|i| from + i)
    }
}

/// The pruned resources' usages, numbered flat, with the selection state
/// of the greedy cover.
struct Cover<'a> {
    pruned: &'a [SynthResource],
    targets: Targets,
    /// Resource `r`'s usage `i` is flat usage `first[r] + i`.
    first: Vec<usize>,
    selected: Vec<bool>,
    covered: Vec<bool>,
    uncovered: usize,
    /// The word of each flat usage, for the bitvector objective: a dense
    /// id of `(class, cycle / k)`.
    word: Vec<usize>,
    nonempty: Vec<bool>,
    k: Option<u32>,
    /// `stamp[t] == epoch` iff target `t` was counted for the candidate
    /// being scored.
    stamp: Vec<u32>,
    epoch: u32,
    newly: Vec<usize>,
}

impl<'a> Cover<'a> {
    fn new(f: &ForbiddenMatrix, pruned: &'a [SynthResource], k: Option<u32>) -> Self {
        let targets = Targets::new(f);
        let mut first = Vec::with_capacity(pruned.len() + 1);
        first.push(0);
        for r in pruned {
            first.push(first[first.len() - 1] + r.len());
        }
        let usages = first[pruned.len()];
        let mut word = vec![0; usages];
        let mut words = 0;
        if let Some(k) = k {
            let key = |u: &SynthUsage| (u.class, u.cycle / k);
            let mut keys: Vec<(u32, u32)> = pruned
                .iter()
                .flat_map(|r| r.usages().iter().map(key))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            for (w, u) in word.iter_mut().zip(pruned.iter().flat_map(|r| r.usages())) {
                *w = keys.binary_search(&key(u)).expect("every usage's key");
            }
            words = keys.len();
        }
        let t = targets.list.len();
        Cover {
            pruned,
            targets,
            first,
            selected: vec![false; usages],
            covered: vec![false; t],
            uncovered: t,
            word,
            nonempty: vec![false; words],
            k,
            stamp: vec![0; t],
            epoch: 0,
            newly: Vec::new(),
        }
    }

    /// Candidate lists per target, each in resource-then-pair order, as
    /// one array and each target's start in it.
    fn candidates(&self) -> (Vec<usize>, Vec<Candidate>) {
        let mut found: Vec<(usize, Candidate)> = Vec::new();
        for (ri, r) in self.pruned.iter().enumerate() {
            let us = r.usages();
            for i in 0..us.len() {
                for j in i..us.len() {
                    for t in pair_triples(us[i], us[j]) {
                        if let Some(ti) = self.targets.id(t) {
                            let (res, a, b) = (ri as u32, i as u32, j as u32);
                            found.push((ti, Candidate { res, a, b }));
                        }
                    }
                }
            }
        }
        let t = self.targets.list.len();
        let mut start = vec![0; t + 1];
        for &(ti, _) in &found {
            start[ti + 1] += 1;
        }
        for ti in 0..t {
            start[ti + 1] += start[ti];
        }
        let mut next = start.clone();
        let mut list = vec![Candidate { res: 0, a: 0, b: 0 }; found.len()];
        for (ti, c) in found {
            list[next[ti]] = c;
            next[ti] += 1;
        }
        (start, list)
    }

    /// How many uncovered targets selecting `c` would cover, and the sum
    /// of their latencies.
    fn gain(&mut self, c: Candidate) -> (i64, i64) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let us = self.pruned[c.res as usize].usages();
        let sel = &self.selected[self.first[c.res as usize]..];
        let new_usages: &[u32] = if c.a == c.b { &[c.a] } else { &[c.a, c.b] };
        let (mut newly, mut sum) = (0, 0);
        let mut count = |t: (u32, u32, i32)| {
            if let Some(ti) = self.targets.id(t) {
                if !self.covered[ti] && self.stamp[ti] != self.epoch {
                    self.stamp[ti] = self.epoch;
                    newly += 1;
                    sum += i64::from(t.2);
                }
            }
        };
        for (idx, &nu) in new_usages.iter().enumerate() {
            let u = us[nu as usize];
            // vs previously selected usages of this resource
            for (wi, &w) in us.iter().enumerate() {
                if sel[wi] {
                    pair_triples(w, u).for_each(&mut count);
                }
            }
            // vs the other new usage (and itself)
            for &nv in &new_usages[idx..] {
                pair_triples(u, us[nv as usize]).for_each(&mut count);
            }
        }
        (newly, sum)
    }

    /// Lexicographic score of `c`: fewer new words, more newly covered,
    /// larger sum, then fewer new usages (consolidating into
    /// already-selected usages). New words are always 0 for ResUses.
    fn score(&mut self, c: Candidate) -> (i64, i64, i64, i64) {
        let (newly, sum) = self.gain(c);
        let first = self.first[c.res as usize];
        let (a, b) = (first + c.a as usize, first + c.b as usize);
        let opens =
            |g: usize| (!self.selected[g] && !self.nonempty[self.word[g]]).then_some(self.word[g]);
        let new_words = match self.k.map(|_| (opens(a), opens(b))) {
            None => 0,
            Some((Some(wa), Some(wb))) => 1 + i64::from(wa != wb),
            Some((wa, wb)) => i64::from(wa.is_some() || wb.is_some()),
        };
        let new_usages = if a == b {
            i64::from(!self.selected[a])
        } else {
            i64::from(!self.selected[a]) + i64::from(!self.selected[b])
        };
        (-new_words, newly, sum, -new_usages)
    }

    fn apply(&mut self, c: Candidate) {
        let us = self.pruned[c.res as usize].usages();
        let first = self.first[c.res as usize];
        self.newly.clear();
        for ui in [c.a as usize, c.b as usize] {
            if !self.selected[first + ui] {
                self.selected[first + ui] = true;
                self.newly.push(ui);
            }
        }
        // Free same-word packing within this resource and class.
        if self.k.is_some() {
            for &ui in &self.newly {
                self.nonempty[self.word[first + ui]] = true;
            }
            for wi in 0..us.len() {
                let g = first + wi;
                if !self.selected[g] && self.nonempty[self.word[g]] {
                    self.selected[g] = true;
                    self.newly.push(wi);
                }
            }
        }
        // Update coverage: new usages against all selected usages of this
        // resource (including each other and themselves).
        for &ni in &self.newly {
            let u = us[ni];
            for (wi, &w) in us.iter().enumerate() {
                if self.selected[first + wi] {
                    for t in pair_triples(w, u) {
                        if let Some(ti) = self.targets.id(t) {
                            if !self.covered[ti] {
                                self.covered[ti] = true;
                                self.uncovered -= 1;
                            }
                        }
                    }
                }
            }
        }
    }
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
    let k = objective.k();
    let mut cover = Cover::new(f, pruned, k);
    let (start, candidates) = cover.candidates();
    let cands = |ti: usize| &candidates[start[ti]..start[ti + 1]];

    // ---- Greedy cover, visiting targets by candidate-list length. ----
    let mut order: Vec<usize> = (0..cover.covered.len()).collect();
    order.sort_unstable_by_key(|&ti| (cands(ti).len(), ti));
    for &ti in &order {
        if cover.covered[ti] {
            continue;
        }
        assert!(
            !cands(ti).is_empty(),
            "no candidate generates forbidden latency {:?}; not a generating set",
            cover.targets.list[ti]
        );
        let mut best: Option<(Candidate, (i64, i64, i64, i64))> = None;
        for &c in cands(ti) {
            let score = cover.score(c);
            if best.as_ref().map_or(true, |(_, s)| score > *s) {
                best = Some((c, score));
            }
        }
        let (c, _) = best.expect("candidate list nonempty");
        cover.apply(c);
        if cover.uncovered == 0 {
            break;
        }
    }
    debug_assert_eq!(cover.uncovered, 0);

    // ---- Bitvector free-packing: a usage in an already-nonempty word of
    // its class's table costs nothing, so select every such usage of the
    // selected resources (paper: "marks every other usage of marked
    // resources within the same word").
    if k.is_some() {
        for ri in 0..pruned.len() {
            let flat = cover.first[ri]..cover.first[ri + 1];
            if cover.selected[flat.clone()].contains(&true) {
                for g in flat {
                    cover.selected[g] |= cover.nonempty[cover.word[g]];
                }
            }
        }
    }

    // ---- Materialize. ----
    let resources: Vec<SynthResource> = pruned
        .iter()
        .enumerate()
        .filter_map(|(ri, r)| {
            let flags = &cover.selected[cover.first[ri]..cover.first[ri + 1]];
            let picked: Vec<SynthUsage> = r
                .usages()
                .iter()
                .zip(flags)
                .filter(|(_, &s)| s)
                .map(|(&u, _)| u)
                .collect();
            (!picked.is_empty()).then(|| SynthResource::from_sorted(picked))
        })
        .collect();
    let resources = drop_redundant(&cover.targets, resources);
    let resources = consolidate(f, resources);
    let resources = drop_redundant(&cover.targets, resources);
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
///
/// Each pass removes the largest (last among equals) fully redundant
/// resource; the per-triple counts it leaves behind are updated in place.
fn drop_redundant(targets: &Targets, resources: Vec<SynthResource>) -> Vec<SynthResource> {
    // Triples that are not targets (only a resource the matrix does not
    // allow generates one) are numbered after the targets.
    let mut others: Vec<(u32, u32, i32)> = resources
        .iter()
        .flat_map(generated)
        .filter(|&t| targets.id(t).is_none())
        .collect();
    others.sort_unstable();
    others.dedup();
    let base = targets.list.len();
    let id = |t| {
        targets
            .id(t)
            .unwrap_or_else(|| base + others.binary_search(&t).expect("collected above"))
    };
    // Each resource's distinct triples, and how many resources generate
    // each one.
    let mut counts = vec![0usize; base + others.len()];
    let mut seen = vec![usize::MAX; counts.len()];
    let ids: Vec<Vec<usize>> = resources
        .iter()
        .enumerate()
        .map(|(ri, r)| {
            let mut ids = Vec::new();
            for t in generated(r).map(id) {
                if seen[t] != ri {
                    seen[t] = ri;
                    counts[t] += 1;
                    ids.push(t);
                }
            }
            ids
        })
        .collect();
    let mut kept = vec![true; resources.len()];
    while let Some(victim) = (0..resources.len())
        .filter(|&i| kept[i] && ids[i].iter().all(|&t| counts[t] >= 2))
        .max_by_key(|&i| resources[i].len())
    {
        kept[victim] = false;
        for &t in &ids[victim] {
            counts[t] -= 1;
        }
    }
    resources
        .into_iter()
        .zip(kept)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
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

/// The triples of every usage pair of `r`, repeats included.
fn generated(r: &SynthResource) -> impl Iterator<Item = (u32, u32, i32)> + '_ {
    let us = r.usages();
    (0..us.len()).flat_map(move |i| us[i..].iter().flat_map(move |&v| pair_triples(us[i], v)))
}

/// The (oriented, nonnegative) forbidden triples a usage pair generates.
fn pair_triples(u: SynthUsage, v: SynthUsage) -> impl Iterator<Item = (u32, u32, i32)> {
    let d = i64::from(v.cycle) - i64::from(u.cycle);
    let (first, second) = match d.cmp(&0) {
        core::cmp::Ordering::Greater => ((u.class, v.class, d as i32), None),
        core::cmp::Ordering::Less => ((v.class, u.class, (-d) as i32), None),
        core::cmp::Ordering::Equal if u == v => ((u.class, u.class, 0), None),
        core::cmp::Ordering::Equal => ((u.class, v.class, 0), Some((v.class, u.class, 0))),
    };
    core::iter::once(first).chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genset::generating_set;
    use crate::prune::prune_dominated;
    use rmd_machine::models::example_machine;
    use std::collections::HashSet;

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
