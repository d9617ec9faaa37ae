//! The reduction's heavy steps against the code they replaced.
//!
//! Algorithm 1 (`generating_set`), cover selection (`select`) and the
//! class partition were rewritten for speed with the promise that every
//! output stays the same: the same resources in the same order, the same
//! trace events and the same budget errors. The `oracle` module keeps
//! the replaced code, unchanged apart from import paths, and the tests
//! below run both on the built-in models, the shipped `machines/*.mdl`,
//! seeded generated machines and mutants of every mutation operator.

use rmd_core::{
    dominated_by, generating_set, generating_set_budgeted, generating_set_traced, prune_dominated,
    select, try_reduce, validate_limits, GenSetTrace, Objective, ReduceOptions, StepBudget,
};
use rmd_fault::{generate, mutate, GenConfig, MutantPayload, ALL_OPERATORS};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_machine::{content_fingerprint, mdl, models, MachineDescription};
use rmd_query::WordLayout;

/// The replaced code.
mod oracle {
    use rmd_core::{
        GenSetEvent, GenSetTrace, Objective, RmdError, Selection, StepBudget, SynthResource,
        SynthUsage,
    };
    use rmd_latency::{ClassId, ClassPartition, ForbiddenMatrix};
    use rmd_machine::{MachineBuilder, MachineDescription, OpId};
    use std::collections::{HashMap, HashSet};

    /// `Objective::k`, private to `rmd_core`.
    trait K {
        fn k(self) -> Option<u32>;
    }

    impl K for Objective {
        fn k(self) -> Option<u32> {
            match self {
                Objective::ResUses => None,
                Objective::KCycleWord { k } => Some(k.max(1)),
            }
        }
    }

    #[inline]
    fn usages_compatible(f: &ForbiddenMatrix, u: SynthUsage, v: SynthUsage) -> bool {
        let d = i64::from(v.cycle) - i64::from(u.cycle);
        f.get_idx(u.class as usize, v.class as usize)
            .contains(d as i32)
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

    pub fn build(
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
                                if usages_compatible(f, w, u0) && usages_compatible(f, w, u1) {
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
    pub fn select(
        f: &ForbiddenMatrix,
        pruned: &[SynthResource],
        objective: Objective,
    ) -> Selection {
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

    /// `ClassPartition`'s fields.
    pub struct Partition {
        pub class_of: Vec<ClassId>,
        pub members: Vec<Vec<OpId>>,
    }

    /// `ClassPartition::compute`.
    pub fn classes(machine: &MachineDescription, f: &ForbiddenMatrix) -> Partition {
        let n = machine.num_operations();
        assert_eq!(n, f.num_ops(), "matrix must match machine");
        // Signature of X: its entire row and column of F.
        let mut sig_to_class: HashMap<Vec<rmd_latency::LatencySet>, ClassId> = HashMap::new();
        let mut class_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<OpId>> = Vec::new();
        for x in 0..n {
            let mut sig = Vec::with_capacity(2 * n);
            for z in 0..n {
                sig.push(f.get_idx(x, z).clone());
            }
            for z in 0..n {
                sig.push(f.get_idx(z, x).clone());
            }
            let next = ClassId(members.len() as u32);
            let id = *sig_to_class.entry(sig).or_insert(next);
            if id == next {
                members.push(Vec::new());
            }
            members[id.index()].push(OpId(x as u32));
            class_of.push(id);
        }
        Partition { class_of, members }
    }

    /// The materialization that closes `try_reduce`.
    pub fn materialize(
        machine: &MachineDescription,
        classes: &ClassPartition,
        class_machine: &MachineDescription,
        selection: &Selection,
    ) -> Result<MachineDescription, RmdError> {
        // Materialize the reduced class machine.
        let mut b = MachineBuilder::new(format!("{}-reduced", machine.name()));
        let mut qids = Vec::with_capacity(selection.resources.len());
        for i in 0..selection.resources.len() {
            qids.push(b.resource(format!("q{i}")));
        }
        for (ci, _) in classes.iter() {
            let rep = class_machine.operation(rmd_machine::OpId(ci.0));
            let mut ob = b.operation(rep.name().to_owned()).weight(rep.weight());
            for (ri, r) in selection.resources.iter().enumerate() {
                for u in r.usages() {
                    if u.class == ci.0 {
                        ob = ob.usage(qids[ri], u.cycle);
                    }
                }
            }
            ob.finish();
        }
        let reduced_classes = b.build()?;

        // Materialize the reduced full machine: each original op carries its
        // class's reduced table.
        let mut b = MachineBuilder::new(format!("{}-reduced", machine.name()));
        for i in 0..selection.resources.len() {
            b.resource(format!("q{i}"));
        }
        for (id, op) in machine.ops() {
            let class_table = reduced_classes
                .operation(rmd_machine::OpId(classes.class_of(id).0))
                .table()
                .clone();
            let mut ob = b.operation(op.name().to_owned()).weight(op.weight());
            if let Some(base) = op.base() {
                ob = ob.base(base.to_owned());
            }
            for u in class_table.usages() {
                ob = ob.usage(u.resource, u.cycle);
            }
            ob.finish();
        }
        let reduced = b.build()?;
        Ok(reduced)
    }
}

/// The objectives compared: both certificate objectives, plus narrower
/// words.
fn objectives(m: &MachineDescription) -> Vec<Objective> {
    let widest = WordLayout::widest(64, m.num_resources()).k;
    let mut out = vec![Objective::ResUses];
    for k in [1, 2, 4, widest] {
        if !out.contains(&Objective::KCycleWord { k }) {
            out.push(Objective::KCycleWord { k });
        }
    }
    out
}

fn shipped(file: &str) -> MachineDescription {
    let path = format!("{}/../machines/{file}.mdl", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    mdl::parse_machine(&src).expect("shipped machine parses").0
}

const SHIPPED: [&str; 9] = [
    "alpha21064",
    "cydra5",
    "cydra5_subset",
    "example",
    "mips_r3000",
    "vliw_dsp",
    "zoo_clustered",
    "zoo_deep_np",
    "zoo_wide_issue",
];

/// Every machine the comparison runs on, with a label.
fn corpus() -> Vec<(String, MachineDescription)> {
    let mut out: Vec<(String, MachineDescription)> = models::all_machines()
        .into_iter()
        .map(|m| (m.name().to_owned(), m))
        .collect();
    out.extend(SHIPPED.map(|f| (format!("{f}.mdl"), shipped(f))));
    out.extend((0..32).map(|s| (format!("small {s}"), generate(s, &GenConfig::small()))));
    out.extend((0..16).map(|s| (format!("medium {s}"), generate(s, &GenConfig::medium()))));
    let mut bases = vec![
        models::example_machine(),
        shipped("vliw_dsp"),
        models::cydra5_subset(),
        models::mips_r3000(),
    ];
    bases.extend((0..4).map(|s| generate(s, &GenConfig::small())));
    for base in &bases {
        for op in ALL_OPERATORS {
            for seed in 0..3 {
                let Some(mu) = mutate(base, op, seed) else {
                    continue;
                };
                let label = format!("{} {op} {seed}", base.name());
                match mu.payload {
                    MutantPayload::Machine(m) | MutantPayload::ReducedMachine(m) => {
                        out.push((label, m));
                    }
                    MutantPayload::QueryWord { .. } => {}
                }
            }
        }
    }
    out
}

/// The class machine's matrix as the replaced code computed it: from the class
/// machine itself.
fn reference_matrix(m: &MachineDescription, classes: &ClassPartition) -> ForbiddenMatrix {
    ForbiddenMatrix::compute(&classes.class_machine(m).expect("class machine builds"))
}

#[test]
fn every_stage_matches_the_replaced_pipeline() {
    let corpus = corpus();
    assert!(corpus.len() > 200, "{}", corpus.len());
    for (label, m) in &corpus {
        if validate_limits(m).is_err() {
            continue;
        }
        let f_ops = ForbiddenMatrix::compute(m);
        let classes = ClassPartition::compute(m, &f_ops);
        let old = oracle::classes(m, &f_ops);
        assert_eq!(classes.num_classes(), old.members.len(), "{label}");
        for (c, members) in classes.iter() {
            assert_eq!(members, old.members[c.index()].as_slice(), "{label}");
        }
        for (op, _) in m.ops() {
            assert_eq!(classes.class_of(op), old.class_of[op.index()], "{label}");
        }
        let matrix = reference_matrix(m, &classes);
        assert_eq!(classes.class_matrix(&f_ops), matrix, "{label}");

        let mut old_trace = GenSetTrace::default();
        let old_set = oracle::build(&matrix, Some(&mut old_trace), None).expect("unlimited");
        let (set, trace) = generating_set_traced(&matrix);
        assert_eq!(set, old_set, "{label}: generating set");
        assert_eq!(trace.events, old_trace.events, "{label}: trace");
        assert_eq!(generating_set(&matrix), old_set, "{label}");
        assert_eq!(dominated_by(&set), dominated_by(&old_set), "{label}");
        let pruned = prune_dominated(&set);
        assert_eq!(pruned, prune_dominated(&old_set), "{label}");

        let class_machine = classes.class_machine(m).expect("class machine builds");
        let widest = WordLayout::widest(64, m.num_resources()).k;
        for objective in objectives(m) {
            let old_sel = oracle::select(&matrix, &pruned, objective);
            assert_eq!(
                select(&matrix, &pruned, objective),
                old_sel,
                "{label}: {objective:?}"
            );
            if objective == Objective::ResUses || objective == (Objective::KCycleWord { k: widest })
            {
                let old_reduced = oracle::materialize(m, &classes, &class_machine, &old_sel)
                    .expect("materializes");
                let red = try_reduce(m, objective, &ReduceOptions::default()).expect("reduces");
                assert_eq!(red.matrix, matrix, "{label}");
                assert_eq!(red.genset_size, old_set.len(), "{label}");
                assert_eq!(
                    content_fingerprint(&red.reduced),
                    content_fingerprint(&old_reduced),
                    "{label}: {objective:?}"
                );
            }
        }
    }
}

/// `try_reduce` under `max_steps: Some(limit)` as the replaced code ran it:
/// Algorithm 1 under the budget, then one charge for cover selection.
fn reference_budget(matrix: &ForbiddenMatrix, limit: u64) -> Result<u64, rmd_core::RmdError> {
    let mut budget = StepBudget::new(limit);
    let set = oracle::build(matrix, None, Some(&mut budget))?;
    let pruned = prune_dominated(&set);
    budget.charge((pruned.len() as u64).saturating_mul(matrix.num_ops() as u64))?;
    Ok(budget.used())
}

#[test]
fn step_budgets_trip_where_they_did() {
    for (m, stride) in [
        (models::example_machine(), 1),
        (shipped("vliw_dsp"), 1),
        (models::cydra5_subset(), 1),
        (models::mips_r3000(), 97),
    ] {
        let f_ops = ForbiddenMatrix::compute(&m);
        let matrix = reference_matrix(&m, &ClassPartition::compute(&m, &f_ops));
        let total = reference_budget(&matrix, u64::MAX).expect("unlimited");
        let mut genset_total = StepBudget::unlimited();
        oracle::build(&matrix, None, Some(&mut genset_total)).expect("unlimited");
        let genset_total = genset_total.used();
        let mut limits: Vec<u64> = (0..=total + 1).step_by(stride).collect();
        limits.extend([
            genset_total - 1,
            genset_total,
            genset_total + 1,
            total - 1,
            total,
        ]);
        for limit in limits {
            let expect = reference_budget(&matrix, limit).map(|_| ());
            let options = ReduceOptions {
                max_steps: Some(limit),
            };
            let got = try_reduce(&m, Objective::ResUses, &options).map(|_| ());
            assert_eq!(got, expect, "{}: max_steps {limit}", m.name());

            let mut old = StepBudget::new(limit);
            let old_set = oracle::build(&matrix, None, Some(&mut old));
            let mut new = StepBudget::new(limit);
            let new_set = generating_set_budgeted(&matrix, &mut new);
            assert_eq!(new_set, old_set, "{}: genset budget {limit}", m.name());
            assert_eq!(
                new.used(),
                old.used(),
                "{}: genset budget {limit}",
                m.name()
            );
        }
    }
}
