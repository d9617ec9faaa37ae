//! Resource-commitment state encoding and the packed state arena.
//!
//! A state is a resource-commitment matrix packed into `u64` words over
//! its *live cells* only, resource-major. Resource `r` owns a run of
//! `1 + (the last cycle any explored table reserves r)` bits, or no bits
//! when no explored table reserves it, and bit `cycle` of its run is set
//! iff `r` is committed `cycle` cycles from now. The explored tables are
//! the ones a BFS issues — forward or reversed, restricted to a resource
//! subset — so every reachable state, a union of table masks shifted
//! toward the present, lies inside the runs, and bits at or above their
//! total width are always clear. One cycle of time is a one-bit right
//! shift of the whole word string, masked to clear the last bit of each
//! run: that is where the next run's expiring cycle-0 bit lands.
//!
//! Reachable states map one to one onto full `cycle × resource`
//! matrices, so a BFS discovers them in the same order, under the same
//! ids, as it would over the full matrices.
//!
//! A [`StateArena`] interns the states of one search. `clear()` and
//! `reset(width)` empty it for the next search, at the same or another
//! state width, and keep its storage.

use rmd_machine::ReservationTable;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Where each resource's run of cells lies in the states of one
/// transition system.
#[derive(Clone, Debug)]
pub(crate) struct StateShape {
    /// Words per state.
    pub blocks: usize,
    /// Resource `r` owns bits `starts[r]..starts[r + 1]`.
    starts: Vec<usize>,
    /// Per word, every live bit except the last of each run: the bits
    /// a one-bit right shift may fill.
    shifted: Vec<u64>,
}

impl StateShape {
    /// The shape of the states reached by issuing `tables` on a machine
    /// of `num_resources` resources, tracking only the resources in
    /// `keep` (all when `None`), and the tables' masks back to back:
    /// table `i`'s mask is words `i * blocks..(i + 1) * blocks`.
    pub fn with_masks<'a, I>(
        num_resources: usize,
        tables: I,
        keep: Option<&[bool]>,
    ) -> (Self, Vec<u64>)
    where
        I: IntoIterator<Item = &'a ReservationTable>,
        I::IntoIter: Clone,
    {
        let tables = tables.into_iter();
        let kept = |r: usize| keep.map_or(true, |keep| keep[r]);
        let mut runs = vec![0; num_resources];
        for u in tables.clone().flat_map(ReservationTable::usages) {
            let r = u.resource.index();
            if kept(r) {
                runs[r] = runs[r].max(u.cycle as usize + 1);
            }
        }
        let mut starts = vec![0];
        for len in runs {
            starts.push(starts[starts.len() - 1] + len);
        }
        let blocks = starts[num_resources].div_ceil(64);
        let mut shifted = vec![0u64; blocks];
        for run in starts.windows(2) {
            for bit in run[0]..run[1].saturating_sub(1) {
                shifted[bit / 64] |= 1 << (bit % 64);
            }
        }
        let shape = StateShape {
            blocks,
            starts,
            shifted,
        };

        let mut masks = Vec::new();
        for table in tables {
            let at = masks.len();
            masks.resize(at + blocks, 0);
            for u in table.usages().iter().filter(|u| kept(u.resource.index())) {
                let bit = shape
                    .bit(u.resource.index(), u.cycle)
                    .expect("a kept usage lies in its resource's run");
                masks[at + bit / 64] |= 1 << (bit % 64);
            }
        }
        (shape, masks)
    }

    /// The bit of the cell where `resource` is committed `cycle` cycles
    /// from now, or `None` when no state of this shape can commit it.
    pub fn bit(&self, resource: usize, cycle: u32) -> Option<usize> {
        let bit = self.starts[resource] + cycle as usize;
        (bit < self.starts[resource + 1]).then_some(bit)
    }

    /// Writes `state` shifted one cycle toward the present into `out`
    /// (commitments at cycle 0 expire): a one-bit right shift of the
    /// words that clears the last bit of every run.
    pub fn advance(&self, state: &[u64], out: &mut [u64]) {
        for (i, (o, &shifted)) in out.iter_mut().zip(&self.shifted).enumerate() {
            let carry = state.get(i + 1).map_or(0, |&next| next << 63);
            *o = (state[i] >> 1 | carry) & shifted;
        }
    }
}

/// Whether `state` and `mask` share a committed bit.
pub(crate) fn conflicts(state: &[u64], mask: &[u64]) -> bool {
    state.iter().zip(mask).any(|(&a, &b)| a & b != 0)
}

/// Writes `state ∪ mask` into `out`.
pub(crate) fn union(state: &[u64], mask: &[u64], out: &mut [u64]) {
    for ((o, &a), &b) in out.iter_mut().zip(state).zip(mask) {
        *o = a | b;
    }
}

/// Marks a free slot of the [`StateArena`] index.
const EMPTY: u32 = u32::MAX;

/// The odd multiplier of the [`StateArena`] hash (2⁶⁴ over the golden
/// ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `a` and `b`, its high half folded onto its
/// low half: every bit of `a` reaches the low bits of the result.
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// An interning store for fixed-width packed states.
///
/// States live back to back in one flat `Vec<u64>` and are numbered in
/// insertion order, so a BFS that interns successors as it finds them
/// visits states in id order. Lookup goes through an open-addressing
/// index of ids (linear probing, at most half full) whose slot is the
/// low bits of a multiply-fold hash: each word in turn is XORed into
/// the running hash, which is then multiplied by an odd constant to 128
/// bits and folded back to 64. The hash starts from a seed drawn once
/// per arena from the standard library's randomly keyed hasher.
///
/// ```
/// use rmd_automata::StateArena;
///
/// let mut arena = StateArena::new(2);
/// assert_eq!(arena.intern(&[0, 0]), (0, true));
/// assert_eq!(arena.intern(&[1, 0]), (1, true));
/// assert_eq!(arena.intern(&[0, 0]), (0, false));
/// assert_eq!(arena.get(1), &[1, 0]);
/// assert_eq!(arena.len(), 2);
/// arena.clear();
/// assert_eq!(arena.intern(&[1, 0]), (0, true));
/// ```
#[derive(Debug)]
pub struct StateArena {
    width: usize,
    len: usize,
    words: Vec<u64>,
    /// Ids by hash slot, [`EMPTY`] where free; the length is a power of
    /// two.
    index: Vec<u32>,
    seed: u64,
    /// Index slots examined by every `intern` so far.
    #[cfg(test)]
    probes: u64,
}

impl StateArena {
    /// An empty arena of states `width` words wide.
    pub fn new(width: usize) -> Self {
        StateArena {
            width,
            len: 0,
            words: Vec::new(),
            index: vec![EMPTY; 16],
            seed: RandomState::new().hash_one(0u64),
            #[cfg(test)]
            probes: 0,
        }
    }

    /// The width of every state, in `u64` words.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every state but keeps the storage, so the next state
    /// interned gets id 0.
    pub fn clear(&mut self) {
        self.len = 0;
        self.words.clear();
        self.index.fill(EMPTY);
    }

    /// [`clear`](Self::clear)s the arena and makes it hold states
    /// `width` words wide, keeping its storage: the index keeps its
    /// size and the state words their capacity, so a search that
    /// follows a larger one neither regrows the index nor touches fresh
    /// pages.
    ///
    /// ```
    /// use rmd_automata::StateArena;
    ///
    /// let mut arena = StateArena::new(3);
    /// for i in 0..100 {
    ///     arena.intern(&[i, 0, 0]);
    /// }
    /// arena.reset(2);
    /// assert!(arena.is_empty());
    /// assert_eq!(arena.width(), 2);
    /// assert_eq!(arena.intern(&[7, 0]), (0, true));
    /// assert_eq!(arena.intern(&[7, 0]), (0, false));
    /// ```
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.clear();
    }

    /// The state with id `id`.
    ///
    /// # Panics
    ///
    /// When `id` was not returned by [`intern`](Self::intern).
    pub fn get(&self, id: u32) -> &[u64] {
        let start = id as usize * self.width;
        &self.words[start..start + self.width]
    }

    /// The id of `state`, interning it under the next id if it is new;
    /// the flag is `true` iff it was new.
    ///
    /// # Panics
    ///
    /// When `state` is not [`width`](Self::width) words wide, or the
    /// arena already holds `u32::MAX` states.
    pub fn intern(&mut self, state: &[u64]) -> (u32, bool) {
        assert_eq!(state.len(), self.width, "state width");
        if 2 * (self.len + 1) > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = self.hash(state) as usize & mask;
        loop {
            #[cfg(test)]
            {
                self.probes += 1;
            }
            match self.index[slot] {
                EMPTY => break,
                id if self.get(id) == state => return (id, false),
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = u32::try_from(self.len)
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("a state arena holds fewer than u32::MAX states");
        self.index[slot] = id;
        self.words.extend_from_slice(state);
        self.len += 1;
        (id, true)
    }

    fn hash(&self, state: &[u64]) -> u64 {
        state
            .iter()
            .fold(self.seed, |hash, &word| fold_mul(hash ^ word, MUL))
    }

    /// Doubles the index and re-slots every interned id.
    fn grow(&mut self) {
        let size = self.index.len() * 2;
        let mut index = vec![EMPTY; size];
        for id in 0..self.len as u32 {
            let mut slot = self.hash(self.get(id)) as usize & (size - 1);
            while index[slot] != EMPTY {
                slot = (slot + 1) & (size - 1);
            }
            index[slot] = id;
        }
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::{MachineBuilder, MachineDescription, ResourceId};

    fn toy() -> MachineDescription {
        let mut b = MachineBuilder::new("t");
        let r0 = b.resource("r0");
        let r1 = b.resource("r1");
        b.operation("x").usage(r0, 0).usage(r1, 2).finish();
        b.build().unwrap()
    }

    fn toy_shape(keep: Option<&[bool]>) -> (StateShape, Vec<u64>) {
        let m = toy();
        let tables = m.operations().iter().map(|op| op.table());
        StateShape::with_masks(m.num_resources(), tables, keep)
    }

    fn advanced(sh: &StateShape, state: &[u64]) -> Vec<u64> {
        let mut out = vec![0; sh.blocks];
        sh.advance(state, &mut out);
        out
    }

    /// The committed `(cycle, resource)` cells of `state`, read through
    /// the shape, sorted.
    ///
    /// # Panics
    ///
    /// When `state` sets a bit that is no cell of the shape.
    fn cells(sh: &StateShape, num_resources: usize, state: &[u64]) -> Vec<(u32, usize)> {
        assert_eq!(state.len(), sh.blocks);
        let mut cells = Vec::new();
        for r in 0..num_resources {
            for cycle in 0.. {
                let Some(bit) = sh.bit(r, cycle) else { break };
                if state[bit / 64] & 1 << (bit % 64) != 0 {
                    cells.push((cycle, r));
                }
            }
        }
        let set: u32 = state.iter().map(|w| w.count_ones()).sum();
        assert_eq!(set as usize, cells.len(), "a bit outside every run is set");
        cells.sort_unstable();
        cells
    }

    #[test]
    fn mask_sets_expected_bits() {
        let (sh, mask) = toy_shape(None);
        // r0 owns one cell (cycle 0) and r1 three (cycles 0..=2).
        assert_eq!(sh.blocks, 1);
        assert_eq!(
            (sh.bit(0, 1), sh.bit(1, 2), sh.bit(1, 3)),
            (None, Some(3), None)
        );
        assert_eq!(cells(&sh, 2, &mask), [(0, 0), (2, 1)]);
    }

    #[test]
    fn advance_shifts_toward_present() {
        let (sh, mask) = toy_shape(None);
        let a1 = advanced(&sh, &mask);
        // r0's cycle-0 commitment expires; r1's moves from cycle 2 to 1.
        assert_eq!(cells(&sh, 2, &a1), [(1, 1)]);
        let a2 = advanced(&sh, &a1);
        assert_eq!(cells(&sh, 2, &a2), [(0, 1)]);
        let a3 = advanced(&sh, &a2);
        assert_eq!(a3, [0]);
    }

    /// The shift against the per-cell definition of advance, and every
    /// table mask against the table's usages, over random tables at 1,
    /// 63, 64, 65 and 130 resources: forward, reversed and restricted
    /// to a random resource subset. The sweep must include runs that
    /// cross a word edge and empty runs.
    #[test]
    fn advance_shift_matches_per_bit_reference() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut crossing, mut empty) = (0, 0);
        for num_resources in [1, 63, 64, 65, 130] {
            for longest in [1, 2, 3, 5, 8] {
                let tables: Vec<ReservationTable> = (0..4)
                    .map(|_| {
                        let mut t = ReservationTable::new();
                        for r in 0..num_resources as u32 {
                            if next() % 3 != 0 {
                                t.reserve(ResourceId(r), (next() % longest) as u32);
                            }
                        }
                        t
                    })
                    .collect();
                let reversed: Vec<_> = tables.iter().map(ReservationTable::reversed).collect();
                let keep: Vec<bool> = (0..num_resources).map(|_| next() % 2 == 0).collect();
                for (tables, keep) in [(&tables, None), (&reversed, None), (&tables, Some(&keep))] {
                    let keep = keep.map(Vec::as_slice);
                    let (sh, masks) = StateShape::with_masks(num_resources, tables, keep);
                    for run in sh.starts.windows(2) {
                        empty += usize::from(run[0] == run[1]);
                        crossing +=
                            usize::from(run[0] < run[1] && run[0] / 64 != (run[1] - 1) / 64);
                    }
                    for (t, mask) in tables.iter().zip(masks.chunks(sh.blocks.max(1))) {
                        let mut want: Vec<_> = t
                            .usages()
                            .iter()
                            .map(|u| (u.cycle, u.resource.index()))
                            .filter(|&(_, r)| keep.map_or(true, |k| k[r]))
                            .collect();
                        want.sort_unstable();
                        assert_eq!(cells(&sh, num_resources, &mask[..sh.blocks]), want);
                    }
                    let width = sh.starts[num_resources];
                    for density in [u64::MAX, 0x0101_0101_0101_0101] {
                        let mut state: Vec<u64> =
                            (0..sh.blocks).map(|_| next() & density).collect();
                        // Bits at or above the state width are always clear.
                        if width % 64 != 0 {
                            state[width / 64] &= (1 << (width % 64)) - 1;
                        }
                        let want: Vec<_> = cells(&sh, num_resources, &state)
                            .into_iter()
                            .filter(|&(cycle, _)| cycle > 0)
                            .map(|(cycle, r)| (cycle - 1, r))
                            .collect();
                        assert_eq!(
                            cells(&sh, num_resources, &advanced(&sh, &state)),
                            want,
                            "{num_resources} resources, tables up to {longest} cycles"
                        );
                    }
                }
            }
        }
        assert!(
            crossing > 0 && empty > 0,
            "{crossing} crossing, {empty} empty runs"
        );
    }

    #[test]
    fn conflict_detection() {
        let (sh, mask) = toy_shape(None);
        let empty = vec![0; sh.blocks];
        assert!(conflicts(&mask, &mask));
        assert!(!conflicts(&empty, &mask));
        let mut u = vec![0; sh.blocks];
        union(&empty, &mask, &mut u);
        assert_eq!(u, mask);
    }

    #[test]
    fn keep_filter_restricts_resources() {
        let keep = [true, false];
        let (sh, mask) = toy_shape(Some(&keep));
        // r1 is not tracked: its run is empty and only r0@0 survives.
        assert_eq!(sh.bit(1, 0), None);
        assert_eq!(cells(&sh, 2, &mask), [(0, 0)]);
    }

    #[test]
    fn arena_ids_follow_insertion_order_across_growth() {
        let mut arena = StateArena::new(3);
        for i in 0..1000u64 {
            assert_eq!(arena.intern(&[i, i * 7, 1]), (i as u32, true));
        }
        for i in (0..1000u64).rev() {
            assert_eq!(arena.intern(&[i, i * 7, 1]), (i as u32, false));
            assert_eq!(arena.get(i as u32), &[i, i * 7, 1]);
        }
        assert_eq!(arena.len(), 1000);
    }

    #[test]
    fn zero_width_arena_holds_one_state() {
        let mut arena = StateArena::new(0);
        assert!(arena.is_empty());
        assert_eq!(arena.intern(&[]), (0, true));
        assert_eq!(arena.intern(&[]), (0, false));
        assert_eq!(arena.len(), 1);
        assert!(arena.get(0).is_empty());
    }

    #[test]
    fn clear_keeps_capacity_and_restarts_ids() {
        let mut arena = StateArena::new(2);
        for i in 0..100 {
            arena.intern(&[i, 0]);
        }
        let storage = (arena.words.capacity(), arena.index.len());
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!((arena.words.capacity(), arena.index.len()), storage);
        assert_eq!(arena.intern(&[99, 0]), (0, true));
        assert_eq!(arena.intern(&[5, 0]), (1, true));
        assert_eq!(arena.intern(&[99, 0]), (0, false));
        assert_eq!(arena.get(1), &[5, 0]);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn reset_changes_width_and_keeps_storage() {
        let mut arena = StateArena::new(3);
        for i in 0..1000 {
            arena.intern(&[i, 0, 1]);
        }
        let storage = (arena.words.capacity(), arena.index.len());
        arena.reset(1);
        assert_eq!((arena.width(), arena.len()), (1, 0));
        assert_eq!((arena.words.capacity(), arena.index.len()), storage);
        for i in 0..1000 {
            assert_eq!(arena.intern(&[i]), (i as u32, true));
        }
        assert_eq!(arena.intern(&[999]), (999, false));
        assert_eq!((arena.words.capacity(), arena.index.len()), storage);
    }

    /// Single-bit states and runs of set bits at every offset, 1 to 9
    /// words wide: sparse keys that differ by a shift, like commitment
    /// and pair states. Interning each twice (a miss, then a hit) must
    /// examine fewer than 2 index slots per call on average; a hash
    /// whose slot ignores some bits of a word clusters these keys.
    #[test]
    fn probe_length_stays_short_on_shifted_states() {
        for width in 1..=9 {
            let mut arena = StateArena::new(width);
            let bits = 64 * width;
            let mut states = Vec::new();
            for len in [1, 2, 3, 7, 16, 64] {
                for at in 0..=bits - len {
                    let mut state = vec![0u64; width];
                    for bit in at..at + len {
                        state[bit / 64] |= 1 << (bit % 64);
                    }
                    states.push(state);
                }
            }
            for pass in [true, false] {
                for state in &states {
                    assert_eq!(arena.intern(state).1, pass);
                }
            }
            let mean = arena.probes as f64 / (2 * states.len()) as f64;
            assert!(mean < 2.0, "{width} words: {mean:.2} slots per intern");
        }
    }
}
