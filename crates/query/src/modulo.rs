//! Modulo reservation tables for software pipelining (paper §8).
//!
//! In a modulo schedule with initiation interval II, an operation issued
//! at cycle `t` uses its cycle-`c` resources in *slot* `(t + c) mod II`
//! of a table with II rows — every iteration repeats the same pattern.
//! Both query representations exist in modulo form; the scheduler
//! allocates one per scheduling attempt (II is fixed per attempt).

use crate::compiled::{CompiledUsages, ModuloMasks};
use crate::counters::{QueryFn, WorkCounters};
use crate::registry::{OpInstance, Registry};
use crate::traits::ContentionQuery;
use crate::window::{self, LoadCache, WindowScan};
use crate::WordLayout;
use rmd_machine::{MachineDescription, OpId, ReservationTable};
use std::collections::HashMap;
use std::sync::Arc;

/// Discrete-representation modulo reservation table.
///
/// # Example
///
/// ```
/// use rmd_machine::models::example_machine;
/// use rmd_query::{ContentionQuery, ModuloDiscreteModule, OpInstance};
///
/// let m = example_machine();
/// let b = m.op_by_name("B").unwrap();
/// // II = 4: B self-conflicts at latencies {1,2,3} mod 4, so a second B
/// // can never be placed in a different slot...
/// let mut q = ModuloDiscreteModule::new(&m, 4);
/// q.assign(OpInstance(0), b, 0);
/// assert!(!q.check(b, 1));
/// assert!(!q.check(b, 7));
/// // ...and II = 8 leaves slots 4..=7 free.
/// let mut q = ModuloDiscreteModule::new(&m, 8);
/// q.assign(OpInstance(0), b, 0);
/// assert!(q.check(b, 4));
/// ```
#[derive(Clone, Debug)]
pub struct ModuloDiscreteModule {
    compiled: CompiledUsages,
    ii: u32,
    /// `owner[slot * num_resources + r]`, `slot ∈ 0..ii`.
    owner: Vec<Option<OpInstance>>,
    /// Per op: placeable at all under this II (no self-overlap of one
    /// resource slot across iterations)? Precomputed at construction.
    fits: Vec<bool>,
    registry: Registry,
    counters: WorkCounters,
}

impl ModuloDiscreteModule {
    /// Creates an empty modulo reservation table with the given
    /// initiation interval.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(machine: &MachineDescription, ii: u32) -> Self {
        assert!(ii > 0, "initiation interval must be positive");
        let compiled = CompiledUsages::new(machine);
        let owner = vec![None; ii as usize * compiled.num_resources];
        let fits = machine
            .operations()
            .iter()
            .map(|op| op.table().fits_modulo(ii))
            .collect();
        ModuloDiscreteModule {
            compiled,
            ii,
            owner,
            fits,
            registry: Registry::new(),
            counters: WorkCounters::new(),
        }
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Whether `op` is placeable at all under this II (no two usages of
    /// one resource collapse onto the same modulo slot). Schedulers
    /// should bump II when any operation of the loop does not fit.
    pub fn fits(&self, op: OpId) -> bool {
        self.fits[op.index()]
    }

    #[inline]
    fn slot(&self, r: u32, cycle: u32, c: u32) -> usize {
        let s = (cycle as u64 + c as u64) % self.ii as u64;
        s as usize * self.compiled.num_resources + r as usize
    }
}

impl ContentionQuery for ModuloDiscreteModule {
    fn check(&mut self, op: OpId, cycle: u32) -> bool {
        // An op whose table is longer than II may self-overlap across
        // iterations (two usages of one resource in cycles c ≡ c' mod II
        // hit the same slot); such ops can never be placed under this II.
        if !self.fits[op.index()] {
            self.counters.record(QueryFn::Check, 0);
            return false;
        }
        let mut units = 0;
        let mut clear = true;
        for &(r, c) in self.compiled.of(op) {
            units += 1;
            if self.owner[self.slot(r, cycle, c)].is_some() {
                clear = false;
                break;
            }
        }
        self.counters.record(QueryFn::Check, units);
        clear
    }

    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        for &(r, c) in self.compiled.of(op) {
            let s = self.slot(r, cycle, c);
            debug_assert!(self.owner[s].is_none(), "assign over a reservation");
            self.owner[s] = Some(inst);
        }
        self.counters
            .record(QueryFn::Assign, self.compiled.of(op).len() as u64);
        self.registry.insert(inst, op, cycle);
    }

    fn assign_free_into(
        &mut self,
        inst: OpInstance,
        op: OpId,
        cycle: u32,
        evicted: &mut Vec<OpInstance>,
    ) {
        evicted.clear();
        let mut units = 0;
        for ui in 0..self.compiled.of(op).len() {
            let (r, c) = self.compiled.of(op)[ui];
            units += 1;
            let s = self.slot(r, cycle, c);
            if let Some(holder) = self.owner[s] {
                if holder != inst {
                    let (hop, hcycle) = self
                        .registry
                        .remove(holder)
                        .expect("owner entries track registered instances");
                    for &(hr, hc) in self.compiled.of(hop) {
                        units += 1;
                        let hs = self.slot(hr, hcycle, hc);
                        self.owner[hs] = None;
                    }
                    evicted.push(holder);
                }
            }
            self.owner[s] = Some(inst);
        }
        self.counters.record(QueryFn::AssignFree, units);
        self.registry.insert(inst, op, cycle);
    }

    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        let removed = self.registry.remove(inst);
        debug_assert_eq!(removed, Some((op, cycle)), "free of unscheduled instance");
        for &(r, c) in self.compiled.of(op) {
            let s = self.slot(r, cycle, c);
            debug_assert_eq!(self.owner[s], Some(inst), "free of foreign reservation");
            self.owner[s] = None;
        }
        self.counters
            .record(QueryFn::Free, self.compiled.of(op).len() as u64);
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

/// The modulo slots of one operation's usages, in usage order, for an
/// issue in a given slot. Usages are sorted by cycle, so each step adds
/// the gap since the previous usage and wraps by one subtraction; only
/// a gap wider than II takes a division. A call therefore divides once,
/// for the issue slot, however many usages it walks.
struct SlotWalk {
    ii: u32,
    /// Slot of the usage at cycle offset `at`.
    slot: u32,
    at: u32,
}

impl SlotWalk {
    /// Starts at the issue slot (`slot < ii`).
    #[inline]
    fn new(slot: u32, ii: u32) -> Self {
        debug_assert!(slot < ii);
        SlotWalk { ii, slot, at: 0 }
    }

    /// The slot of the usage `c` cycles after issue. `c` must not be
    /// below the previous call's.
    #[inline]
    fn to(&mut self, c: u32) -> u32 {
        debug_assert!(c >= self.at, "usages must be walked in cycle order");
        let ii = u64::from(self.ii);
        let mut s = u64::from(self.slot) + u64::from(c - self.at);
        if s >= ii {
            s -= ii;
            if s >= ii {
                s %= ii;
            }
        }
        self.at = c;
        self.slot = s as u32;
        self.slot
    }
}

/// Bitvector-representation modulo reservation table.
///
/// The II slots are packed `k` cycle-bitvectors per word
/// (`ceil(II / k)` words). Because a reservation wraps around the table,
/// the word masks of an operation depend on its issue slot modulo II;
/// they are expanded eagerly at construction (and shareable across
/// modules via [`ModuloMaskCache`]), so the hot `check` path is pure
/// word AND/OR over a precompiled slice — no lazy-fill branch. The
/// update mode, which sets and clears one flag per usage, steps from
/// usage to usage with one division per call and reads each slot's word
/// and bit from the same expansion's position table.
#[derive(Clone, Debug)]
pub struct ModuloBitvecModule {
    usages: Arc<CompiledUsages>,
    layout: WordLayout,
    ii: u32,
    words: Vec<u64>,
    /// Eagerly expanded per-(op, slot) word masks, shared when built
    /// through a [`ModuloMaskCache`].
    masks: Arc<ModuloMasks>,
    fits: Arc<[bool]>,
    /// Owner table, only meaningful while `in_update` — kept allocated
    /// across [`refit`](Self::refit) so a later transition re-sizes
    /// within existing capacity instead of reallocating.
    owner: Vec<Option<OpInstance>>,
    in_update: bool,
    registry: Registry,
    counters: WorkCounters,
}

impl ModuloBitvecModule {
    /// Creates an empty modulo reservation table, through a
    /// [`ModuloMaskCache`] of its own.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0` or a word cannot hold `layout.k`
    /// cycle-bitvectors of this machine.
    pub fn new(machine: &MachineDescription, ii: u32, layout: WordLayout) -> Self {
        ModuloMaskCache::new(machine, layout).module(ii)
    }

    /// Assembles a module from precompiled (possibly shared) parts; the
    /// constructor behind [`ModuloMaskCache::module`].
    pub(crate) fn from_parts(
        usages: Arc<CompiledUsages>,
        masks: Arc<ModuloMasks>,
        fits: Arc<[bool]>,
        layout: WordLayout,
    ) -> Self {
        let ii = masks.ii();
        let nwords = (ii as usize).div_ceil(layout.k as usize);
        ModuloBitvecModule {
            usages,
            layout,
            ii,
            words: vec![0; nwords],
            masks,
            fits,
            owner: Vec::new(),
            in_update: false,
            registry: Registry::new(),
            counters: WorkCounters::new(),
        }
    }

    /// Re-targets this module at a (possibly different) initiation
    /// interval, reusing every buffer the previous schedule already
    /// sized: the packed word vector, the owner table's capacity, and
    /// the registry's slab capacity. The compiled usages and word
    /// layout are unchanged — callers go through
    /// [`ModuloMaskCache::module_reusing`], which guards both.
    ///
    /// Steady state (an II already seen by this module) performs no
    /// heap allocation; behavior is byte-identical to a fresh
    /// [`from_parts`](Self::from_parts) module.
    pub(crate) fn refit(&mut self, masks: Arc<ModuloMasks>, fits: Arc<[bool]>) {
        let ii = masks.ii();
        let nwords = (ii as usize).div_ceil(self.layout.k as usize);
        self.ii = ii;
        self.masks = masks;
        self.fits = fits;
        self.words.clear();
        self.words.resize(nwords, 0);
        self.owner.clear();
        self.in_update = false;
        self.registry.clear();
        self.counters.reset();
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Whether the module has transitioned to update mode.
    pub fn in_update_mode(&self) -> bool {
        self.in_update
    }

    /// Whether `op` is placeable at all under this II (see
    /// [`ModuloDiscreteModule::fits`]).
    pub fn fits(&self, op: OpId) -> bool {
        self.fits[op.index()]
    }

    fn transition_to_update(&mut self) {
        let nr = self.usages.num_resources;
        self.owner.clear();
        self.owner.resize(self.ii as usize * nr, None);
        let mut scanned = 0u64;
        for (inst, op, cycle) in self.registry.iter() {
            let mut walk = SlotWalk::new(cycle % self.ii, self.ii);
            for &(r, c) in self.usages.of(op) {
                scanned += 1;
                self.owner[walk.to(c) as usize * nr + r as usize] = Some(inst);
            }
        }
        self.counters.charge_units(QueryFn::AssignFree, scanned);
        self.counters.record_transition();
        self.in_update = true;
    }

    /// Word-parallel window scan over consecutive issue slots. The
    /// per-slot mask lists come from the eagerly expanded (and possibly
    /// [`ModuloMaskCache`]-shared) [`ModuloMasks`] arrays, so the inner
    /// loop is the same branch-light word AND as `check`; consecutive
    /// slots landing in one packed word share their load through a
    /// one-entry cache. The issue slot is a cursor that steps with the
    /// cycle and wraps at II, so the scan divides once, not per cycle.
    fn window_scan(&mut self, op: OpId, start: u32, len: u32, stop_at_free: bool) -> WindowScan {
        let len = len.min(64);
        if !self.fits[op.index()] {
            // The scalar loop records one zero-unit `check` per cycle
            // and finds nothing; reproduce that without touching the
            // table (only cycles representable in u32 are probed).
            let valid = (u64::from(u32::MAX) - u64::from(start) + 1).min(u64::from(len));
            return WindowScan {
                probed: valid,
                ..WindowScan::default()
            };
        }
        let mut cache = LoadCache::new();
        let mut out = WindowScan::default();
        let mut slot = start % self.ii;
        for i in 0..len {
            let Some(cycle) = start.checked_add(i) else {
                break;
            };
            out.probed += 1;
            let mut clear = true;
            for &(w, m) in self.masks.of(op, slot) {
                out.eq_units += 1;
                let idx = w as usize;
                let v = cache.read(idx, || self.words[idx]);
                if v & m != 0 {
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
            slot += 1;
            if slot == self.ii {
                slot = 0;
            }
        }
        out.loads = cache.loads;
        out
    }
}

impl ContentionQuery for ModuloBitvecModule {
    fn check(&mut self, op: OpId, cycle: u32) -> bool {
        if !self.fits[op.index()] {
            self.counters.record(QueryFn::Check, 0);
            return false;
        }
        let slot = cycle % self.ii;
        let mut units = 0;
        let mut clear = true;
        for &(w, m) in self.masks.of(op, slot) {
            units += 1;
            if self.words[w as usize] & m != 0 {
                clear = false;
                break;
            }
        }
        self.counters.record(QueryFn::Check, units);
        clear
    }

    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        let slot = cycle % self.ii;
        for &(w, m) in self.masks.of(op, slot) {
            debug_assert_eq!(self.words[w as usize] & m, 0, "assign over a reservation");
            self.words[w as usize] |= m;
        }
        self.counters
            .record(QueryFn::Assign, self.masks.of(op, slot).len() as u64);
        if self.in_update {
            let nr = self.usages.num_resources;
            let mut walk = SlotWalk::new(slot, self.ii);
            for &(r, c) in self.usages.of(op) {
                self.owner[walk.to(c) as usize * nr + r as usize] = Some(inst);
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
        evicted.clear();
        let slot = cycle % self.ii;
        let mut units = 0;

        if !self.in_update {
            let mut conflict = false;
            for &(w, m) in self.masks.of(op, slot) {
                units += 1;
                if self.words[w as usize] & m != 0 {
                    conflict = true;
                    break;
                }
            }
            if !conflict {
                // A second pass ORs the words in; the paper's unit is
                // "handling a word", already counted above.
                for &(w, m) in self.masks.of(op, slot) {
                    self.words[w as usize] |= m;
                }
                self.counters.record(QueryFn::AssignFree, units);
                self.registry.insert(inst, op, cycle);
                return;
            }
            // The rebuild scan is charged to assign&free inside the call.
            self.transition_to_update();
        }

        let nr = self.usages.num_resources;
        let pos = self.masks.positions();
        let mut walk = SlotWalk::new(slot, self.ii);
        for &(r, c) in self.usages.of(op) {
            units += 1;
            let s = walk.to(c) as usize;
            if let Some(holder) = self.owner[s * nr + r as usize] {
                if holder != inst {
                    let (hop, hcycle) = self
                        .registry
                        .remove(holder)
                        .expect("owner entries track registered instances");
                    let mut hwalk = SlotWalk::new(hcycle % self.ii, self.ii);
                    for &(hr, hc) in self.usages.of(hop) {
                        units += 1;
                        let hs = hwalk.to(hc) as usize;
                        self.owner[hs * nr + hr as usize] = None;
                        let (w, base) = pos[hs];
                        self.words[w as usize] &= !(1u64 << (base + hr));
                    }
                    evicted.push(holder);
                }
            }
            self.owner[s * nr + r as usize] = Some(inst);
            let (w, base) = pos[s];
            self.words[w as usize] |= 1u64 << (base + r);
        }
        self.counters.record(QueryFn::AssignFree, units);
        self.registry.insert(inst, op, cycle);
    }

    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        let removed = self.registry.remove(inst);
        debug_assert_eq!(removed, Some((op, cycle)), "free of unscheduled instance");
        let slot = cycle % self.ii;
        for &(w, m) in self.masks.of(op, slot) {
            debug_assert_eq!(self.words[w as usize] & m, m, "free of unreserved bits");
            self.words[w as usize] &= !m;
        }
        self.counters
            .record(QueryFn::Free, self.masks.of(op, slot).len() as u64);
        if self.in_update {
            let nr = self.usages.num_resources;
            let mut walk = SlotWalk::new(slot, self.ii);
            for &(r, c) in self.usages.of(op) {
                self.owner[walk.to(c) as usize * nr + r as usize] = None;
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

/// One cached per-II expansion: the packed masks, the fits table, and
/// the last-use tick driving LRU eviction.
#[derive(Clone, Debug)]
struct CacheEntry {
    masks: Arc<ModuloMasks>,
    fits: Arc<[bool]>,
    last_use: u64,
}

/// A per-machine cache of modulo mask expansions, keyed by initiation
/// interval.
///
/// The iterative modulo scheduler constructs a fresh reservation table
/// for every II it attempts, and a suite run schedules many loops on
/// the same machine — so the same (op, slot) mask lists are expanded
/// over and over. This cache compiles the machine's usage lists once
/// and memoizes the per-II expansion behind `Arc`s: after the first
/// [`module`](Self::module) call for a given II, constructing another
/// table for that II is two reference-count bumps plus a zeroed word
/// vector.
///
/// A suite run owns one cache, as does each machine cached by the
/// serve daemon; sharing is by `clone` of the compiled parts, never by
/// locking.
///
/// # Example
///
/// ```
/// use rmd_machine::models::example_machine;
/// use rmd_query::{ContentionQuery, ModuloMaskCache, WordLayout};
///
/// let m = example_machine();
/// let b = m.op_by_name("B").unwrap();
/// let mut cache = ModuloMaskCache::new(&m, WordLayout::with_k(64, 4));
/// let mut q = cache.module(8);
/// assert!(q.check(b, 0));
/// let mut q2 = cache.module(8); // served from cache
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// assert!(q2.check(b, 0));
/// ```
#[derive(Clone, Debug)]
pub struct ModuloMaskCache {
    usages: Arc<CompiledUsages>,
    /// The machine's reservation tables, which the per-II fit tables
    /// are built from.
    tables: Vec<ReservationTable>,
    layout: WordLayout,
    /// Per-II expansion plus the last-use tick driving LRU eviction.
    by_ii: HashMap<u32, CacheEntry>,
    /// Monotonic access clock for LRU ordering.
    tick: u64,
    /// Maximum number of cached IIs, fixed at construction; `None` is
    /// unbounded.
    entry_cap: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModuloMaskCache {
    /// Creates an empty cache for `machine` under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if a word cannot hold `layout.k` cycle-bitvectors of this
    /// machine.
    pub fn new(machine: &MachineDescription, layout: WordLayout) -> Self {
        let usages = Arc::new(CompiledUsages::new(machine));
        let nr = usages.num_resources as u32;
        assert!(
            layout.k >= 1 && layout.k * nr <= 64,
            "k={} cycles of {nr} resources exceed a 64-bit word",
            layout.k
        );
        ModuloMaskCache {
            usages,
            tables: machine
                .operations()
                .iter()
                .map(|op| op.table().clone())
                .collect(),
            layout,
            by_ii: HashMap::new(),
            tick: 0,
            entry_cap: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates an empty cache bounded to at most `cap` cached IIs
    /// (least-recently-used expansions are evicted beyond that). A long-
    /// running daemon uses this so the cache cannot grow without limit.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new); additionally if `cap == 0`: a cache that
    /// can hold nothing would silently disable sharing.
    pub fn with_cap(machine: &MachineDescription, layout: WordLayout, cap: usize) -> Self {
        assert!(cap > 0, "entry cap must be at least 1");
        ModuloMaskCache {
            entry_cap: Some(cap),
            ..Self::new(machine, layout)
        }
    }

    /// Removes the least-recently-used expansion. Eviction only drops
    /// the cache's own `Arc`s: modules already constructed from the
    /// evicted expansion keep their shared masks alive and are
    /// unaffected — eviction can never change query results, only
    /// force a re-expansion on the next request for that II.
    fn evict_lru(&mut self) {
        if let Some((&ii, _)) = self.by_ii.iter().min_by_key(|(_, e)| e.last_use) {
            self.by_ii.remove(&ii);
            self.evictions += 1;
        }
    }

    /// An empty modulo reservation table for `ii`, reusing (or building
    /// and memoizing) the mask expansion for that interval.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn module(&mut self, ii: u32) -> ModuloBitvecModule {
        assert!(ii > 0, "initiation interval must be positive");
        let (masks, fits) = self.parts(ii);
        ModuloBitvecModule::from_parts(Arc::clone(&self.usages), masks, fits, self.layout)
    }

    /// Like [`module`](Self::module), but re-targets the module already
    /// held in `slot` instead of constructing a fresh one, reusing its
    /// word/owner/registry buffers. An empty `slot` (or one holding a
    /// module built against a different machine or layout) is filled
    /// with a fresh module; a warm `slot` whose previous schedule
    /// already sized the buffers for this II performs **no heap
    /// allocation** when the II expansion is cached. Behavior of the
    /// returned module is byte-identical to [`module`](Self::module),
    /// counters included.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn module_reusing<'a>(
        &mut self,
        ii: u32,
        slot: &'a mut Option<ModuloBitvecModule>,
    ) -> &'a mut ModuloBitvecModule {
        assert!(ii > 0, "initiation interval must be positive");
        let (masks, fits) = self.parts(ii);
        match slot {
            Some(module)
                if Arc::ptr_eq(&module.usages, &self.usages) && module.layout == self.layout =>
            {
                module.refit(masks, fits);
            }
            _ => {
                *slot = Some(ModuloBitvecModule::from_parts(
                    Arc::clone(&self.usages),
                    masks,
                    fits,
                    self.layout,
                ));
            }
        }
        slot.as_mut().expect("slot was just filled")
    }

    /// The `(masks, fits)` expansion for `ii`, served from cache or
    /// built, memoized, and LRU-accounted.
    fn parts(&mut self, ii: u32) -> (Arc<ModuloMasks>, Arc<[bool]>) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.by_ii.get_mut(&ii) {
            self.hits += 1;
            entry.last_use = tick;
            (Arc::clone(&entry.masks), Arc::clone(&entry.fits))
        } else {
            self.misses += 1;
            let masks = Arc::new(ModuloMasks::new(&self.usages, ii, self.layout.k));
            let fits: Arc<[bool]> = self.tables.iter().map(|t| t.fits_modulo(ii)).collect();
            if let Some(cap) = self.entry_cap {
                while self.by_ii.len() >= cap {
                    self.evict_lru();
                }
            }
            self.by_ii.insert(
                ii,
                CacheEntry {
                    masks: Arc::clone(&masks),
                    fits: Arc::clone(&fits),
                    last_use: tick,
                },
            );
            (masks, fits)
        }
    }

    /// The word layout modules from this cache use.
    pub fn layout(&self) -> WordLayout {
        self.layout
    }

    /// `module` calls served from an already-expanded II.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `module` calls that had to expand a new II.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Expansions dropped by the LRU entry cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of distinct initiation intervals cached.
    pub fn num_cached(&self) -> usize {
        self.by_ii.len()
    }

    /// Total `(word, mask)` entries across all cached expansions — the
    /// cache's memory footprint in units of one packed word operation.
    pub fn mask_entries(&self) -> usize {
        self.by_ii.values().map(|e| e.masks.num_entries()).sum()
    }

    /// Exports the cache statistics into `reg` under `prefix`:
    /// `{prefix}.hits` / `{prefix}.misses` / `{prefix}.evictions`
    /// counters plus `{prefix}.cached_iis` / `{prefix}.mask_entries`
    /// gauges.
    pub fn export_to(&self, reg: &mut rmd_obs::MetricRegistry, prefix: &str) {
        reg.inc(&format!("{prefix}.hits"), self.hits);
        reg.inc(&format!("{prefix}.misses"), self.misses);
        reg.inc(&format!("{prefix}.evictions"), self.evictions);
        reg.set_gauge(&format!("{prefix}.cached_iis"), self.by_ii.len() as u64);
        reg.set_gauge(
            &format!("{prefix}.mask_entries"),
            self.mask_entries() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    fn ops() -> (rmd_machine::MachineDescription, OpId, OpId) {
        let m = example_machine();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        (m, a, b)
    }

    #[test]
    fn modulo_wraps_conflicts() {
        let (m, a, b) = ops();
        let mut q = ModuloDiscreteModule::new(&m, 5);
        q.assign(OpInstance(0), b, 0);
        // F[A][B] = {-1}: A one cycle *before* B conflicts, and in a
        // modulo schedule with II=5 that wraps to slots ≡ 4 (mod 5).
        assert!(!q.check(a, 4));
        assert!(!q.check(a, 9));
        assert!(q.check(a, 2));
        assert!(q.check(a, 6));
    }

    #[test]
    fn self_overlap_rejected_when_ii_too_small() {
        let (m, _, b) = ops();
        // B uses mul-stage in cycles 2..=5; with II=2 cycles 2 and 4
        // collapse to one slot: B can never be scheduled.
        let mut q = ModuloDiscreteModule::new(&m, 2);
        assert!(!q.check(b, 0));
        let mut q = ModuloBitvecModule::new(&m, 2, WordLayout::with_k(64, 2));
        assert!(!q.check(b, 0));
        // II=4 works (cycles 2..=5 hit 4 distinct slots).
        let mut q = ModuloDiscreteModule::new(&m, 4);
        assert!(q.check(b, 0));
    }

    #[test]
    fn discrete_and_bitvec_agree_across_slots() {
        let (m, a, b) = ops();
        for ii in [4u32, 5, 7, 9] {
            for k in [1u32, 2, 4] {
                let mut d = ModuloDiscreteModule::new(&m, ii);
                let mut v = ModuloBitvecModule::new(&m, ii, WordLayout::with_k(64, k));
                if d.check(b, 2) {
                    d.assign(OpInstance(0), b, 2);
                    v.assign(OpInstance(0), b, 2);
                }
                for t in 0..(2 * ii) {
                    assert_eq!(d.check(a, t), v.check(a, t), "ii={ii} k={k} a@{t}");
                    assert_eq!(d.check(b, t), v.check(b, t), "ii={ii} k={k} b@{t}");
                }
            }
        }
    }

    #[test]
    fn modulo_assign_free_evicts_across_wrap() {
        let (m, _, b) = ops();
        let mut q = ModuloDiscreteModule::new(&m, 8);
        q.assign(OpInstance(0), b, 0);
        // B at slot 4: B's table is 8 long, wraps; conflicts with inst0?
        // F[B][B] = {±1..3}: modulo 8, latency 4 ∉ F: fits.
        assert!(q.check(b, 4));
        q.assign(OpInstance(1), b, 4);
        // A third B must evict both.
        let mut e = q.assign_free(OpInstance(2), b, 2);
        e.sort();
        assert_eq!(e, vec![OpInstance(0), OpInstance(1)]);
        assert_eq!(q.num_scheduled(), 1);
    }

    #[test]
    fn bitvec_modulo_transition_and_free() {
        let (m, _, b) = ops();
        let mut q = ModuloBitvecModule::new(&m, 8, WordLayout::with_k(64, 4));
        q.assign_free(OpInstance(0), b, 0);
        assert!(!q.in_update_mode());
        let e = q.assign_free(OpInstance(1), b, 1);
        assert_eq!(e, vec![OpInstance(0)]);
        assert!(q.in_update_mode());
        assert_eq!(q.counters().transitions, 1);
        q.free(OpInstance(1), b, 1);
        assert_eq!(q.num_scheduled(), 0);
        assert!(q.check(b, 0));
    }

    #[test]
    fn cached_modules_behave_like_fresh_ones() {
        let (m, a, b) = ops();
        let mut cache = ModuloMaskCache::new(&m, WordLayout::with_k(64, 2));
        for ii in [4u32, 5, 8, 5, 4] {
            let mut fresh = ModuloBitvecModule::new(&m, ii, WordLayout::with_k(64, 2));
            let mut cached = cache.module(ii);
            let placeable = fresh.check(b, 2);
            assert_eq!(placeable, cached.check(b, 2), "ii={ii} gate");
            if placeable {
                fresh.assign(OpInstance(0), b, 2);
                cached.assign(OpInstance(0), b, 2);
            }
            for t in 0..(2 * ii) {
                assert_eq!(fresh.check(a, t), cached.check(a, t), "ii={ii} a@{t}");
                assert_eq!(fresh.check(b, t), cached.check(b, t), "ii={ii} b@{t}");
            }
            assert_eq!(fresh.counters(), cached.counters(), "ii={ii}");
        }
        // Five requests over three distinct IIs: 3 misses, 2 hits.
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        assert_eq!(cache.num_cached(), 3);
        assert!(cache.mask_entries() > 0);
    }

    #[test]
    fn cache_modules_are_independent() {
        let (m, _, b) = ops();
        let mut cache = ModuloMaskCache::new(&m, WordLayout::with_k(64, 4));
        let mut q1 = cache.module(8);
        let mut q2 = cache.module(8);
        q1.assign(OpInstance(0), b, 0);
        // q2 shares masks with q1 but not reservation state.
        assert!(!q1.check(b, 1));
        assert!(q2.check(b, 1));
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let (m, _, _) = ops();
        let mut cache = ModuloMaskCache::with_cap(&m, WordLayout::with_k(64, 2), 2);
        cache.module(4);
        cache.module(5);
        cache.module(4); // refresh 4 → LRU is now 5
        cache.module(8); // evicts 5
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.num_cached(), 2);
        cache.module(4); // still cached: a hit, not a re-expansion
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        cache.module(5); // was evicted: re-expanded
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn cap_bounds_the_cache_and_new_is_unbounded() {
        let (m, _, _) = ops();
        let layout = WordLayout::with_k(64, 2);
        let mut capped = ModuloMaskCache::with_cap(&m, layout, 2);
        let mut unbounded = ModuloMaskCache::new(&m, layout);
        for ii in [3u32, 4, 5, 6, 7] {
            capped.module(ii);
            unbounded.module(ii);
        }
        assert_eq!((capped.num_cached(), capped.evictions()), (2, 3));
        assert_eq!((unbounded.num_cached(), unbounded.evictions()), (5, 0));
    }

    #[test]
    #[should_panic(expected = "entry cap must be at least 1")]
    fn zero_entry_cap_rejected() {
        let (m, _, _) = ops();
        ModuloMaskCache::with_cap(&m, WordLayout::with_k(64, 2), 0);
    }

    #[test]
    fn eviction_preserves_module_behavior() {
        // Byte-identity under eviction at the query level: a cache with
        // cap 1 (every alternating request evicts) hands out modules
        // indistinguishable from fresh ones, and live modules survive
        // eviction of the expansion they share.
        let (m, a, b) = ops();
        let mut cache = ModuloMaskCache::with_cap(&m, WordLayout::with_k(64, 2), 1);
        let mut survivor = cache.module(8);
        survivor.assign(OpInstance(0), b, 2);
        for ii in [4u32, 8, 5, 8, 4] {
            let mut fresh = ModuloBitvecModule::new(&m, ii, WordLayout::with_k(64, 2));
            let mut cached = cache.module(ii);
            let placeable = fresh.check(b, 2);
            assert_eq!(placeable, cached.check(b, 2), "ii={ii} gate");
            if placeable {
                fresh.assign(OpInstance(0), b, 2);
                cached.assign(OpInstance(0), b, 2);
            }
            for t in 0..(2 * ii) {
                assert_eq!(fresh.check(a, t), cached.check(a, t), "ii={ii} a@{t}");
                assert_eq!(fresh.check(b, t), cached.check(b, t), "ii={ii} b@{t}");
            }
            assert_eq!(fresh.counters(), cached.counters(), "ii={ii}");
        }
        // Five requests, cap 1, all alternating: every request after the
        // first for a different II is a miss that evicted.
        assert_eq!(cache.num_cached(), 1);
        assert!(cache.evictions() >= 4);
        // The module created before the churn still answers correctly
        // from its own Arc of the (since evicted) expansion.
        let mut fresh = ModuloBitvecModule::new(&m, 8, WordLayout::with_k(64, 2));
        fresh.assign(OpInstance(0), b, 2);
        for t in 0..16 {
            assert_eq!(fresh.check(a, t), survivor.check(a, t), "survivor a@{t}");
        }
        let mut reg = rmd_obs::MetricRegistry::new();
        cache.export_to(&mut reg, "mask_cache");
        assert!(reg.counter("mask_cache.evictions") >= 4);
    }

    #[test]
    fn module_reusing_matches_fresh_modules() {
        let (m, a, b) = ops();
        let mut cache = ModuloMaskCache::new(&m, WordLayout::with_k(64, 2));
        let mut slot = None;
        for ii in [4u32, 5, 8, 5, 4] {
            let mut fresh = ModuloBitvecModule::new(&m, ii, WordLayout::with_k(64, 2));
            let reused = cache.module_reusing(ii, &mut slot);
            let placeable = fresh.check(b, 2);
            assert_eq!(placeable, reused.check(b, 2), "ii={ii} gate");
            if placeable {
                fresh.assign(OpInstance(0), b, 2);
                reused.assign(OpInstance(0), b, 2);
                // Drive the transition/eviction path on both.
                let mut e1 = Vec::new();
                let mut e2 = vec![OpInstance(99)]; // stale content must be cleared
                fresh.assign_free_into(OpInstance(1), b, 3, &mut e1);
                reused.assign_free_into(OpInstance(1), b, 3, &mut e2);
                assert_eq!(e1, e2, "ii={ii} evictions");
            }
            for t in 0..(2 * ii) {
                assert_eq!(fresh.check(a, t), reused.check(a, t), "ii={ii} a@{t}");
                assert_eq!(fresh.check(b, t), reused.check(b, t), "ii={ii} b@{t}");
            }
            assert_eq!(fresh.counters(), reused.counters(), "ii={ii}");
            assert_eq!(fresh.in_update_mode(), reused.in_update_mode(), "ii={ii}");
        }
    }

    #[test]
    fn module_reusing_replaces_foreign_slots() {
        // A slot holding a module built against different compiled
        // parts (another cache) is replaced with a fresh module, never
        // refitted onto mismatched usages.
        let (m, _, b) = ops();
        let mut c1 = ModuloMaskCache::new(&m, WordLayout::with_k(64, 2));
        let mut c2 = ModuloMaskCache::new(&m, WordLayout::with_k(64, 4));
        let mut slot = None;
        c1.module_reusing(8, &mut slot).assign(OpInstance(0), b, 0);
        let q = c2.module_reusing(8, &mut slot);
        assert_eq!(q.num_scheduled(), 0, "foreign module was replaced");
        assert!(q.check(b, 0));
    }

    #[test]
    fn assign_free_into_matches_assign_free() {
        // Each backend writes only `assign_free_into`: the provided
        // `assign_free` must report the same evictions and book the same
        // work, and the buffer form must drop stale buffer content. The
        // script evicts, so the bitvector backends leave optimistic mode.
        fn same<Q: ContentionQuery>(name: &str, mut q1: Q, mut q2: Q, script: &[(u32, OpId, u32)]) {
            for &(inst, op, cycle) in script {
                let e1 = q1.assign_free(OpInstance(inst), op, cycle);
                let mut e2 = vec![OpInstance(99)];
                q2.assign_free_into(OpInstance(inst), op, cycle, &mut e2);
                assert_eq!(e1, e2, "{name}: inst={inst} cycle={cycle}");
            }
            assert_eq!(q1.counters(), q2.counters(), "{name}");
            assert_eq!(q1.num_scheduled(), q2.num_scheduled(), "{name}");
        }
        let (m, a, b) = ops();
        let layout = WordLayout::with_k(64, 4);
        let script = [(0, b, 0), (1, b, 4), (2, b, 2), (3, a, 9)];
        let discrete = || crate::DiscreteModule::new(&m);
        let bitvec = || crate::BitvecModule::new(&m, layout);
        let modulo_discrete = || ModuloDiscreteModule::new(&m, 8);
        let modulo_bitvec = || ModuloBitvecModule::new(&m, 8, layout);
        let metered = || crate::MeteredQuery::new(crate::DiscreteModule::new(&m));
        same("discrete", discrete(), discrete(), &script);
        same("bitvec", bitvec(), bitvec(), &script);
        same(
            "modulo discrete",
            modulo_discrete(),
            modulo_discrete(),
            &script,
        );
        same("modulo bitvec", modulo_bitvec(), modulo_bitvec(), &script);
        same("metered", metered(), metered(), &script);
    }

    #[test]
    fn free_then_reuse_slot() {
        let (m, a, _) = ops();
        let mut q = ModuloBitvecModule::new(&m, 3, WordLayout::with_k(64, 2));
        q.assign(OpInstance(0), a, 1);
        assert!(!q.check(a, 4)); // same slot mod 3
        q.free(OpInstance(0), a, 1);
        assert!(q.check(a, 4));
    }
}
