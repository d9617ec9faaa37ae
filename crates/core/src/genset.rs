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
fn signature(usages: &[SynthUsage]) -> u64 {
    let mut s = 0u64;
    for u in usages {
        s |= 1u64 << ((u.class.wrapping_mul(31).wrapping_add(u.cycle)) % 64);
    }
    s
}

/// One word of a resource's usage bitmap: the usages
/// `class@(64 * word + b)` for the set bits `b`.
#[derive(Clone, Copy, Debug)]
struct Word {
    class: u32,
    word: u32,
    bits: u64,
}

/// A resource of the working set, with its usages also as a bitmap
/// (nonzero words only, sorted by `(class, word)`) and a signature.
struct Slot {
    resource: SynthResource,
    words: Vec<Word>,
    sig: u64,
}

impl Slot {
    fn new(resource: SynthResource) -> Self {
        let mut slot = Slot {
            resource,
            words: Vec::new(),
            sig: 0,
        };
        slot.refresh();
        slot
    }

    /// Rebuilds the bitmap and the signature from the usages.
    fn refresh(&mut self) {
        let usages = self.resource.usages();
        self.sig = signature(usages);
        self.words.clear();
        for u in usages {
            let (word, bit) = (u.cycle / 64, 1u64 << (u.cycle % 64));
            match self.words.last_mut() {
                Some(w) if w.class == u.class && w.word == word => w.bits |= bit,
                _ => self.words.push(Word {
                    class: u.class,
                    word,
                    bits: bit,
                }),
            }
        }
    }

    /// Whether this resource holds every usage of `q` that fits the
    /// pair `fit` is on.
    fn holds_fitting(&self, q: &Slot, fit: &mut PairFit) -> bool {
        let mut own = self.words.iter().peekable();
        q.words.iter().all(|w| {
            let hit = w.bits & fit.fitting(w.class, w.word);
            hit == 0 || {
                while own
                    .next_if(|o| (o.class, o.word) < (w.class, w.word))
                    .is_some()
                {}
                own.peek()
                    .is_some_and(|o| (o.class, o.word) == (w.class, w.word) && hit & !o.bits == 0)
            }
        })
    }
}

/// Which usages fit both usages of the current pair, worked out once per
/// pair and class from a flat copy of the matrix.
///
/// A usage `w` may share a resource with `u0 = x@0` iff
/// `w.cycle ∈ F[x][w.class]`, and with `u1 = y@lat` iff
/// `w.cycle − lat ∈ F[y][w.class]` (the mirrors of `−w.cycle ∈
/// F[w.class][x]` and `lat − w.cycle ∈ F[w.class][y]`). Both are windows
/// of one cell's bits, so a class's fitting cycles take a few word
/// shifts, and testing a word of usages after that is one `and`.
struct PairFit {
    n: usize,
    /// Cell `k = r * n + c` is `words[cell_start[k]..cell_start[k + 1]]`,
    /// whose bit `d + cell_bias[k]` is set iff `d ∈ F[r][c]`.
    cell_start: Vec<usize>,
    cell_bias: Vec<u32>,
    words: Vec<u64>,
    /// Where each class's fitting cycles are in `mask`.
    classes: Vec<ClassMask>,
    mask: Vec<u64>,
    pair: u64,
    x: usize,
    y: usize,
    lat: i32,
}

impl PairFit {
    fn new(f: &ForbiddenMatrix) -> Self {
        let n = f.num_ops();
        let mut cell_start = Vec::with_capacity(n * n + 1);
        let mut cell_bias = Vec::with_capacity(n * n);
        let mut words = Vec::new();
        let mut top = vec![0usize; n];
        cell_start.push(0);
        for r in 0..n {
            for (c, top) in top.iter_mut().enumerate() {
                // The negative half of `F[r][c]` mirrors the nonnegative
                // half of `F[c][r]`.
                let bias = f.get_idx(c, r).iter_nonneg().last().unwrap_or(0);
                let base = words.len();
                let mut set = |bit: usize| {
                    let w = base + bit / 64;
                    if w >= words.len() {
                        words.resize(w + 1, 0);
                    }
                    words[w] |= 1 << (bit % 64);
                };
                for d in f.get_idx(c, r).iter_nonneg().filter(|&d| d > 0) {
                    set((bias - d) as usize);
                }
                for d in f.get_idx(r, c).iter_nonneg() {
                    set((bias + d) as usize);
                    *top = (*top).max(d as usize);
                }
                cell_start.push(words.len());
                cell_bias.push(bias as u32);
            }
        }
        let mut lo = 0;
        let classes: Vec<ClassMask> = top
            .into_iter()
            .map(|t| {
                let c = ClassMask {
                    lo,
                    len: t / 64 + 1,
                    pair: 0,
                };
                lo += c.len;
                c
            })
            .collect();
        PairFit {
            n,
            cell_start,
            cell_bias,
            words,
            classes,
            mask: vec![0; lo],
            pair: 0,
            x: 0,
            y: 0,
            lat: 0,
        }
    }

    /// Starts the pair `x@0`, `y@lat`.
    fn start(&mut self, x: usize, y: usize, lat: i32) {
        self.pair += 1;
        (self.x, self.y, self.lat) = (x, y, lat);
    }

    /// Bits `from .. from + 64` of cell `k`, zero outside it.
    fn cell_bits(&self, k: usize, from: i64) -> u64 {
        let cell = &self.words[self.cell_start[k]..self.cell_start[k + 1]];
        let word = |i: i64| usize::try_from(i).ok().and_then(|i| cell.get(i)).copied();
        let (w, s) = (from.div_euclid(64), from.rem_euclid(64) as u32);
        let low = word(w).unwrap_or(0) >> s;
        if s == 0 {
            low
        } else {
            low | word(w + 1).unwrap_or(0) << (64 - s)
        }
    }

    /// The usages `class@(64 * word + b)` that fit both usages of the
    /// pair, as bits `b`.
    fn fitting(&mut self, class: u32, word: u32) -> u64 {
        let c = class as usize;
        let ClassMask { lo, len, pair } = self.classes[c];
        if pair != self.pair {
            self.classes[c].pair = self.pair;
            let kx = self.x * self.n + c;
            let ky = self.y * self.n + c;
            let from_x = i64::from(self.cell_bias[kx]);
            let from_y = i64::from(self.cell_bias[ky]) - i64::from(self.lat);
            for j in 0..len {
                let at = 64 * j as i64;
                self.mask[lo + j] =
                    self.cell_bits(kx, from_x + at) & self.cell_bits(ky, from_y + at);
            }
        }
        let word = word as usize;
        debug_assert!(word < len, "class c{class} has no usage in word {word}");
        if word < len {
            self.mask[lo + word]
        } else {
            0
        }
    }

    /// Whether `w` fits both usages of the pair.
    fn fits(&mut self, w: SynthUsage) -> bool {
        self.fitting(w.class, w.cycle / 64) >> (w.cycle % 64) & 1 == 1
    }
}

/// Class `c`'s fitting cycles: `mask[lo..lo + len]`, wide enough for
/// every cycle a class-`c` usage can take (the largest nonnegative latency
/// in column `c`), and the pair they were last set for.
#[derive(Clone, Copy)]
struct ClassMask {
    lo: usize,
    len: usize,
    pair: u64,
}

struct WorkingSet {
    /// Slot is `None` once the resource has been subsumed.
    slots: Vec<Option<Slot>>,
    /// Indices of the live slots, ascending; entries whose slot died
    /// since the last [`compact`](Self::compact) are skipped.
    live: Vec<usize>,
    /// Whether a slot died since the last compaction.
    died: bool,
}

impl WorkingSet {
    fn new() -> Self {
        WorkingSet {
            slots: Vec::new(),
            live: Vec::new(),
            died: false,
        }
    }

    /// Drops live resources that are strict subsets of `cand`.
    fn drop_subsets_of(&mut self, cand: &SynthResource, sig: u64) {
        for &i in &self.live {
            let slot = &mut self.slots[i];
            if slot.as_ref().is_some_and(|r| {
                r.sig & !sig == 0 && r.resource.len() < cand.len() && r.resource.is_subset(cand)
            }) {
                *slot = None;
                self.died = true;
            }
        }
    }

    /// Adds `cand` (assumed not subsumed); returns its index.
    fn push(&mut self, cand: SynthResource) -> usize {
        let slot = Slot::new(cand);
        self.drop_subsets_of(&slot.resource, slot.sig);
        let idx = self.slots.len();
        self.slots.push(Some(slot));
        self.live.push(idx);
        idx
    }

    /// Forgets the live-list entries of slots that died.
    fn compact(&mut self) {
        if std::mem::take(&mut self.died) {
            let slots = &self.slots;
            self.live.retain(|&i| slots[i].is_some());
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
    let mut fit = PairFit::new(f);
    // The Rule 2 combination under construction, kept only if it is new.
    let mut cand: Vec<SynthUsage> = Vec::new();
    // The live resources holding both usages of the current pair: the
    // only ones that can contain a combination, which holds the pair.
    let mut holders: Vec<usize> = Vec::new();

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
                // One step for the pair and one per slot of the snapshot
                // below, dead slots included, charged as that many single
                // steps: exhaustion reports the same count wherever in
                // the pair it would have tripped.
                if let Some(b) = budget.as_deref_mut() {
                    b.charge_steps(1 + set.slots.len() as u64)?;
                }
                let u0 = SynthUsage::new(x as u32, 0);
                let u1 = SynthUsage::new(y as u32, lat as u32);
                emit!(GenSetEvent::ProcessPair {
                    x: x as u32,
                    y: y as u32,
                    latency: lat,
                });
                fit.start(x, y, lat);
                // The pair's own bits in a bitmap word.
                let pair_bits = |w: &Word| {
                    u64::from(w.class == u0.class && w.word == 0)
                        | u64::from(w.class == u1.class && w.word == u1.cycle / 64)
                            << (u1.cycle % 64)
                };
                let pair_sig = signature(&[u0, u1]);
                holders.clear();
                holders.extend(set.live.iter().copied().filter(|&i| {
                    let q = set.slots[i].as_ref().expect("compacted");
                    q.sig & pair_sig == pair_sig
                        && q.resource.contains(u0)
                        && q.resource.contains(u1)
                }));

                // Step 2: try the pair against every resource currently
                // in the set (snapshot; later additions already hold it).
                let snapshot = set.live.len();
                let mut co_resident = false;
                for pos in 0..snapshot {
                    let qi = set.live[pos];
                    let Some(q) = &set.slots[qi] else { continue };
                    // One pass over q's bitmap settles the rule: Rule 1 iff
                    // every usage fits both; otherwise Rule 2's combination
                    // is the pair plus the usages that fit both, which adds
                    // nothing unless one of them is not the pair itself.
                    let mut all = true;
                    let mut extra = false;
                    for w in &q.words {
                        let hit = w.bits & fit.fitting(w.class, w.word);
                        all &= hit == w.bits;
                        extra |= hit & !pair_bits(w) != 0;
                    }
                    if all {
                        // Rule 1: merge the pair into q.
                        let mut q = set.slots[qi].take().expect("checked live");
                        let grew = q.resource.insert(u0) | q.resource.insert(u1);
                        co_resident = true;
                        if grew {
                            q.refresh();
                            set.drop_subsets_of(&q.resource, q.sig);
                            holders.push(qi);
                        }
                        set.slots[qi] = Some(q);
                        emit!(GenSetEvent::Rule1 { resource: qi });
                    } else if extra {
                        // Rule 2: combine the pair with the compatible
                        // subset of q — unless a resource already holds
                        // the combination (antichain invariant).
                        co_resident = true;
                        let held = holders.iter().any(|&h| {
                            set.slots[h]
                                .as_ref()
                                .is_some_and(|r| r.holds_fitting(q, &mut fit))
                        });
                        if held {
                            emit!(GenSetEvent::Rule2Discarded { from: qi });
                        } else {
                            cand.clear();
                            let fitting = q.resource.usages().iter().filter(|&&w| fit.fits(w));
                            cand.extend(fitting);
                            for u in [u0, u1] {
                                if let Err(at) = cand.binary_search(&u) {
                                    cand.insert(at, u);
                                }
                            }
                            let idx = set.push(SynthResource::from_sorted(cand.clone()));
                            holders.push(idx);
                            emit!(GenSetEvent::Rule2 { from: qi, new: idx });
                        }
                    } else {
                        // "If this new resource is not simply p itself
                        // with no other usages, then it is added."
                        emit!(GenSetEvent::Rule2Discarded { from: qi });
                    }
                }

                // Rule 3: the pair is not yet co-resident in any resource
                // (and no live resource holds it).
                if !co_resident && !holders.iter().any(|&h| set.slots[h].is_some()) {
                    let idx = set.push(SynthResource::from_usages([u0, u1]));
                    emit!(GenSetEvent::Rule3 { new: idx });
                }
                set.compact();
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

    Ok(set
        .slots
        .into_iter()
        .flatten()
        .map(|s| s.resource)
        .collect())
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
