//! The bitvector-representation query module.

use crate::compiled::{CompiledMasks, CompiledUsages};
use crate::counters::{QueryFn, WorkCounters};
use crate::registry::{OpInstance, Registry};
use crate::traits::ContentionQuery;
use crate::window::{self, LoadCache, WindowScan};
use rmd_machine::{MachineDescription, OpId};

/// How cycle-bitvectors are packed into memory words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WordLayout {
    /// Logical word size in bits (the paper evaluates 32 and 64).
    pub word_bits: u32,
    /// Cycle-bitvectors packed per word.
    pub k: u32,
}

impl WordLayout {
    /// The widest layout for a machine with `num_resources` resources:
    /// `k = word_bits / num_resources` cycles per word (at least 1 — a
    /// machine wider than the word degenerates to one cycle per word,
    /// still stored in a single `u64` here).
    pub fn widest(word_bits: u32, num_resources: usize) -> Self {
        let k = (word_bits / (num_resources as u32).max(1)).max(1);
        WordLayout { word_bits, k }
    }

    /// A layout with exactly `k` cycles per word.
    pub fn with_k(word_bits: u32, k: u32) -> Self {
        WordLayout { word_bits, k }
    }
}

/// Contention query module over a *bitvector* reserved table: the flag
/// bits of the discrete representation packed `k` cycle-bitvectors per
/// word (paper §5 "bitvector-representation", §7).
///
/// * `check` — AND each nonempty reservation word with the reserved
///   table and test for zero; aborts at the first conflict.
/// * `assign` — OR the words in.
/// * `free` — AND the complements.
/// * `assign_free` — *optimistic mode*: pure word operations while no
///   conflict arises; the first conflict triggers a transition that
///   scans the scheduled-operation list to rebuild per-entry owner
///   fields (cost charged to the call), after which the module stays in
///   *update mode* and `assign_free` iterates over usages like the
///   discrete module.
///
/// Work units: one per nonempty word handled (or per usage in update
/// mode), matching the paper's accounting.
#[derive(Clone, Debug)]
pub struct BitvecModule {
    masks: CompiledMasks,
    usages: CompiledUsages,
    layout: WordLayout,
    words: Vec<u64>,
    /// Owner fields, maintained from the first transition on.
    owner: Option<Vec<Option<OpInstance>>>,
    horizon_cycles: u32,
    registry: Registry,
    counters: WorkCounters,
}

impl BitvecModule {
    /// Creates an empty partial schedule over `machine` with the given
    /// word layout.
    ///
    /// # Panics
    ///
    /// Panics if `layout.k * machine.num_resources()` exceeds 64 bits.
    pub fn new(machine: &MachineDescription, layout: WordLayout) -> Self {
        BitvecModule {
            masks: CompiledMasks::new(machine, layout.k),
            usages: CompiledUsages::new(machine),
            layout,
            words: Vec::new(),
            owner: None,
            horizon_cycles: 0,
            registry: Registry::new(),
            counters: WorkCounters::new(),
        }
    }

    /// Whether the module has transitioned to update mode.
    pub fn in_update_mode(&self) -> bool {
        self.owner.is_some()
    }

    /// Fault-injection hook: XORs `mask` into word `index` of the packed
    /// reserved table, growing the table if needed.
    ///
    /// This models in-memory corruption of the bitvector state and
    /// exists solely for the `rmd-fault` mutation harness, whose
    /// differential oracle must prove that a flipped word changes query
    /// answers relative to the discrete representation. Schedulers must
    /// never call it: a corrupted table violates the owner/registry
    /// invariants that `assign` and `free` debug-assert.
    pub fn corrupt_word(&mut self, index: usize, mask: u64) {
        if index >= self.words.len() {
            self.words.resize(index + 1, 0);
        }
        self.words[index] ^= mask;
    }

    /// The word layout in use.
    pub fn layout(&self) -> WordLayout {
        self.layout
    }

    /// The instance holding resource `r` at `cycle`, if the module is in
    /// update mode and the slot is reserved. Always `None` in optimistic
    /// mode, where no owner fields exist ([`Self::in_update_mode`]
    /// distinguishes the two cases).
    pub fn owner_of(&self, r: u32, cycle: u32) -> Option<OpInstance> {
        let owner = self.owner.as_ref()?;
        owner.get(self.slot(r, cycle)).copied().flatten()
    }

    fn ensure_horizon(&mut self, cycles: u32) {
        if cycles > self.horizon_cycles {
            let words = (cycles as usize).div_ceil(self.layout.k as usize) + 1;
            if words > self.words.len() {
                self.words.resize(words, 0);
            }
            if let Some(owner) = &mut self.owner {
                owner.resize(cycles as usize * self.usages.num_resources, None);
            }
            self.horizon_cycles = cycles;
        }
    }

    #[inline]
    fn slot(&self, r: u32, cycle: u32) -> usize {
        cycle as usize * self.usages.num_resources + r as usize
    }

    /// Rebuild owner fields from the scheduled-operation list; charged
    /// one unit per usage scanned (paper: "the entire list of scheduled
    /// operations is scanned to reconstruct the new field entries").
    fn transition_to_update(&mut self) {
        let nr = self.usages.num_resources;
        let mut owner = vec![None; self.horizon_cycles as usize * nr];
        let mut scanned = 0u64;
        for (inst, op, cycle) in self.registry.iter() {
            for &(r, c) in self.usages.of(op) {
                scanned += 1;
                let s = (cycle + c) as usize * nr + r as usize;
                owner[s] = Some(inst);
            }
        }
        self.counters.charge_units(QueryFn::AssignFree, scanned);
        self.counters.record_transition();
        self.owner = Some(owner);
    }

    fn set_owner(&mut self, r: u32, cycle: u32, v: Option<OpInstance>) {
        let s = self.slot(r, cycle);
        if let Some(owner) = &mut self.owner {
            owner[s] = v;
        }
    }

    /// Word-parallel window scan behind the `check_window` /
    /// `first_free_in` overrides: probes cycles `start + i` for
    /// `i < len` against the same per-alignment mask lists as `check`
    /// (same early exits, so the equivalent-`check` accounting is
    /// exact), but reloads a table word only when the previous cycle
    /// read a different one — with `k` cycles packed per word, that is
    /// the word-level batching the paper's layout was built for.
    fn window_scan(&mut self, op: OpId, start: u32, len: u32, stop_at_free: bool) -> WindowScan {
        let len = len.min(64);
        let k = self.layout.k;
        let mut cache = LoadCache::new();
        let mut out = WindowScan::default();
        for i in 0..len {
            let Some(cycle) = start.checked_add(i) else {
                break;
            };
            let (a, base) = (cycle % k, (cycle / k) as usize);
            out.probed += 1;
            let mut clear = true;
            for &(off, m) in self.masks.of(op, a) {
                out.eq_units += 1;
                let idx = base + off as usize;
                let w = cache.read(idx, || self.words.get(idx).copied().unwrap_or(0));
                if w & m != 0 {
                    clear = false;
                    break;
                }
            }
            if clear {
                out.mask |= 1u64 << i;
                if out.first_free.is_none() {
                    out.first_free = Some(cycle);
                }
                if stop_at_free {
                    break;
                }
            }
        }
        out.loads = cache.loads;
        out
    }

    /// OR/ANDN an op's words in or out, returning one work unit per
    /// word touched (the caller records them on its own function).
    fn word_apply(&mut self, op: OpId, cycle: u32, set: bool) -> u64 {
        let k = self.layout.k;
        let (a, base) = (cycle % k, (cycle / k) as usize);
        let mut units = 0;
        for i in 0..self.masks.of(op, a).len() {
            let (off, m) = self.masks.of(op, a)[i];
            units += 1;
            let w = &mut self.words[base + off as usize];
            if set {
                debug_assert_eq!(*w & m, 0, "assign over a reservation");
                *w |= m;
            } else {
                debug_assert_eq!(*w & m, m, "free of unreserved bits");
                *w &= !m;
            }
        }
        units
    }
}

impl ContentionQuery for BitvecModule {
    fn check(&mut self, op: OpId, cycle: u32) -> bool {
        let k = self.layout.k;
        let (a, base) = (cycle % k, (cycle / k) as usize);
        let mut units = 0;
        let mut clear = true;
        for &(off, m) in self.masks.of(op, a) {
            units += 1;
            let w = self.words.get(base + off as usize).copied().unwrap_or(0);
            if w & m != 0 {
                clear = false;
                break;
            }
        }
        self.counters.record(QueryFn::Check, units);
        clear
    }

    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        self.ensure_horizon(cycle + self.usages.length[op.index()]);
        let units = self.word_apply(op, cycle, true);
        self.counters.record(QueryFn::Assign, units);
        if self.owner.is_some() {
            for i in 0..self.usages.of(op).len() {
                let (r, c) = self.usages.of(op)[i];
                self.set_owner(r, cycle + c, Some(inst));
            }
        }
        self.registry.insert(inst, op, cycle);
    }

    fn assign_free_into(
        &mut self,
        inst: OpInstance,
        op: OpId,
        cycle: u32,
        evicted: &mut Vec<OpInstance>,
    ) {
        self.ensure_horizon(cycle + self.usages.length[op.index()]);
        evicted.clear();
        let mut units = 0;

        if self.owner.is_none() {
            // Optimistic mode: try pure word operations.
            let k = self.layout.k;
            let (a, base) = (cycle % k, (cycle / k) as usize);
            let mut conflict = false;
            for i in 0..self.masks.of(op, a).len() {
                let (off, m) = self.masks.of(op, a)[i];
                units += 1;
                if self.words[base + off as usize] & m != 0 {
                    conflict = true;
                    break;
                }
            }
            if !conflict {
                // One more pass ORs the words in; the paper's unit is
                // "handling a word", already counted above.
                for i in 0..self.masks.of(op, a).len() {
                    let (off, m) = self.masks.of(op, a)[i];
                    self.words[base + off as usize] |= m;
                }
                self.counters.record(QueryFn::AssignFree, units);
                self.registry.insert(inst, op, cycle);
                return;
            }
            // Conflict: rebuild owner fields and stay in update mode
            // (the scan is charged to assign&free inside the call).
            self.transition_to_update();
        }

        // Update mode: per-usage processing with owner maintenance.
        for i in 0..self.usages.of(op).len() {
            let (r, c) = self.usages.of(op)[i];
            units += 1;
            let gc = cycle + c;
            let holder = self.owner.as_ref().expect("update mode")[self.slot(r, gc)];
            if let Some(holder) = holder {
                if holder != inst {
                    let (hop, hcycle) = self
                        .registry
                        .remove(holder)
                        .expect("owner entries track registered instances");
                    for j in 0..self.usages.of(hop).len() {
                        let (hr, hc) = self.usages.of(hop)[j];
                        units += 1;
                        let hgc = hcycle + hc;
                        self.set_owner(hr, hgc, None);
                        // Clear the flag bit.
                        let k = self.layout.k;
                        let bit = (hgc % k) * self.usages.num_resources as u32 + hr;
                        self.words[(hgc / k) as usize] &= !(1u64 << bit);
                    }
                    evicted.push(holder);
                }
            }
            self.set_owner(r, gc, Some(inst));
            let k = self.layout.k;
            let bit = (gc % k) * self.usages.num_resources as u32 + r;
            self.words[(gc / k) as usize] |= 1u64 << bit;
        }
        self.counters.record(QueryFn::AssignFree, units);
        self.registry.insert(inst, op, cycle);
    }

    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        let removed = self.registry.remove(inst);
        debug_assert_eq!(removed, Some((op, cycle)), "free of unscheduled instance");
        let units = self.word_apply(op, cycle, false);
        self.counters.record(QueryFn::Free, units);
        if self.owner.is_some() {
            for i in 0..self.usages.of(op).len() {
                let (r, c) = self.usages.of(op)[i];
                self.set_owner(r, cycle + c, None);
            }
        }
    }

    fn check_window(&mut self, op: OpId, start: u32, len: u32) -> u64 {
        let s = self.window_scan(op, start, len, false);
        s.record(&mut self.counters);
        s.mask
    }

    fn first_free_in(&mut self, op: OpId, start: u32, len: u32) -> Option<u32> {
        window::first_free_chunked(start, len, |s, l| {
            let scan = self.window_scan(op, s, l, true);
            scan.record(&mut self.counters);
            scan.first_free
        })
    }

    fn counters(&self) -> &WorkCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut WorkCounters {
        &mut self.counters
    }

    fn num_scheduled(&self) -> usize {
        self.registry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteModule;
    use rmd_machine::models::example_machine;

    fn module(k: u32) -> (rmd_machine::MachineDescription, BitvecModule, OpId, OpId) {
        let m = example_machine();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        let q = BitvecModule::new(&m, WordLayout::with_k(64, k));
        (m, q, a, b)
    }

    #[test]
    fn widest_layout_divides_word() {
        assert_eq!(WordLayout::widest(64, 15).k, 4);
        assert_eq!(WordLayout::widest(32, 15).k, 2);
        assert_eq!(WordLayout::widest(32, 7).k, 4);
        assert_eq!(WordLayout::widest(32, 100).k, 1);
    }

    #[test]
    fn check_matches_discrete_for_all_k() {
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let a = m.op_by_name("A").unwrap();
        for k in 1..=4 {
            let mut bv = BitvecModule::new(&m, WordLayout::with_k(64, k));
            let mut ds = DiscreteModule::new(&m);
            for (i, (op, cyc)) in [(b, 0u32), (a, 2), (b, 4)].iter().enumerate() {
                bv.assign(OpInstance(i as u32), *op, *cyc);
                ds.assign(OpInstance(i as u32), *op, *cyc);
            }
            for cyc in 0..16 {
                for op in [a, b] {
                    assert_eq!(bv.check(op, cyc), ds.check(op, cyc), "k={k} {op} @{cyc}");
                }
            }
        }
    }

    #[test]
    fn assign_free_optimistic_stays_wordwise() {
        let (_, mut q, a, b) = module(4);
        assert!(q.assign_free(OpInstance(0), b, 0).is_empty());
        assert!(q.assign_free(OpInstance(1), a, 2).is_empty());
        assert!(!q.in_update_mode());
        assert_eq!(q.counters().transitions, 0);
    }

    #[test]
    fn assign_free_conflict_transitions_once_then_evicts() {
        let (_, mut q, _, b) = module(4);
        q.assign_free(OpInstance(0), b, 0);
        let evicted = q.assign_free(OpInstance(1), b, 1);
        assert_eq!(evicted, vec![OpInstance(0)]);
        assert!(q.in_update_mode());
        assert_eq!(q.counters().transitions, 1);
        // Further conflicts stay in update mode without new transitions.
        let evicted = q.assign_free(OpInstance(2), b, 2);
        assert_eq!(evicted, vec![OpInstance(1)]);
        assert_eq!(q.counters().transitions, 1);
        assert_eq!(q.num_scheduled(), 1);
    }

    #[test]
    fn free_clears_words_in_both_modes() {
        let (_, mut q, _, b) = module(2);
        // Optimistic.
        q.assign_free(OpInstance(0), b, 0);
        q.free(OpInstance(0), b, 0);
        assert!(q.check(b, 0));
        // Trigger update mode, then free again.
        q.assign_free(OpInstance(1), b, 0);
        q.assign_free(OpInstance(2), b, 1);
        q.free(OpInstance(2), b, 1);
        assert!(q.check(b, 1));
        assert_eq!(q.num_scheduled(), 0);
    }

    #[test]
    fn word_units_are_fewer_than_usage_units_for_packed_words() {
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let mut bv = BitvecModule::new(&m, WordLayout::with_k(64, 8));
        let mut ds = DiscreteModule::new(&m);
        bv.check(b, 0);
        ds.check(b, 0);
        // B's 8 usages span cycles 0..=7: one 8-cycle word vs 8 entries.
        assert_eq!(bv.counters().check.units, 1);
        assert_eq!(ds.counters().check.units, 8);
    }

    #[test]
    fn mixed_assign_then_assign_free_evicts_assigned_instance() {
        let (_, mut q, _, b) = module(4);
        q.assign(OpInstance(0), b, 0);
        let evicted = q.assign_free(OpInstance(1), b, 3);
        assert_eq!(evicted, vec![OpInstance(0)]);
    }
}
