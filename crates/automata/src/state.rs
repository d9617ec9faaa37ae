//! Resource-commitment state encoding and the packed state arena.
//!
//! A state is a resource-commitment matrix packed cycle-major into `u64`
//! words: bit `cycle * num_resources + r` is set iff resource `r` is
//! committed `cycle` cycles from now. Every state of one machine has the
//! same fixed width of `horizon × num_resources` bits, and bits at or
//! above that width are always clear. Because the layout is cycle-major,
//! one cycle of time is a right shift of the whole word string by
//! `num_resources` bits.

use rmd_machine::{MachineDescription, ReservationTable};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Dimensions shared by all states of one automaton.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StateShape {
    pub num_resources: usize,
    pub blocks: usize,
}

impl StateShape {
    pub fn new(num_resources: usize, horizon: usize) -> Self {
        StateShape {
            num_resources,
            blocks: (num_resources * horizon.max(1)).div_ceil(64),
        }
    }

    pub fn for_machine(m: &MachineDescription) -> Self {
        Self::new(m.num_resources(), m.max_table_length() as usize)
    }

    /// The bitmask of a reservation table (restricted to the resources in
    /// `keep`, or all when `keep` is `None`).
    pub fn table_mask(&self, table: &ReservationTable, keep: Option<&[bool]>) -> Vec<u64> {
        let mut k = vec![0; self.blocks];
        for u in table.usages() {
            if let Some(keep) = keep {
                if !keep[u.resource.index()] {
                    continue;
                }
            }
            let bit = u.cycle as usize * self.num_resources + u.resource.index();
            k[bit / 64] |= 1 << (bit % 64);
        }
        k
    }

    /// Writes `state` shifted one cycle toward the present into `out`
    /// (commitments at cycle 0 expire): a right shift of the packed
    /// words by `num_resources` bits.
    pub fn advance(&self, state: &[u64], out: &mut [u64]) {
        let skip = self.num_resources / 64;
        let shift = self.num_resources % 64;
        let word = |k: usize| state.get(k).copied().unwrap_or(0);
        for (i, o) in out.iter_mut().enumerate() {
            let lo = word(i + skip);
            // `hi << 64` would overflow: a word-aligned shift moves
            // whole words only.
            *o = if shift == 0 {
                lo
            } else {
                lo >> shift | word(i + skip + 1) << (64 - shift)
            };
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

/// An interning store for fixed-width packed states.
///
/// States live back to back in one flat `Vec<u64>` and are numbered in
/// insertion order, so a BFS that interns successors as it finds them
/// visits states in id order. Lookup goes through an open-addressing
/// index of ids (linear probing, at most half full) hashed with the
/// standard library's randomly keyed default hasher.
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
/// ```
#[derive(Debug)]
pub struct StateArena {
    width: usize,
    len: usize,
    words: Vec<u64>,
    /// Ids by hash slot, [`EMPTY`] where free; the length is a power of
    /// two.
    index: Vec<u32>,
    hasher: RandomState,
}

impl StateArena {
    /// An empty arena of states `width` words wide.
    pub fn new(width: usize) -> Self {
        StateArena {
            width,
            len: 0,
            words: Vec::new(),
            index: vec![EMPTY; 16],
            hasher: RandomState::new(),
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
        let mut slot = self.hasher.hash_one(state) as usize & mask;
        loop {
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

    /// Doubles the index and re-slots every interned id.
    fn grow(&mut self) {
        let size = self.index.len() * 2;
        let mut index = vec![EMPTY; size];
        for id in 0..self.len as u32 {
            let mut slot = self.hasher.hash_one(self.get(id)) as usize & (size - 1);
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
    use rmd_machine::MachineBuilder;

    fn toy() -> MachineDescription {
        let mut b = MachineBuilder::new("t");
        let r0 = b.resource("r0");
        let r1 = b.resource("r1");
        b.operation("x").usage(r0, 0).usage(r1, 2).finish();
        b.build().unwrap()
    }

    fn advanced(sh: &StateShape, state: &[u64]) -> Vec<u64> {
        let mut out = vec![0; sh.blocks];
        sh.advance(state, &mut out);
        out
    }

    #[test]
    fn mask_sets_expected_bits() {
        let m = toy();
        let sh = StateShape::for_machine(&m);
        assert_eq!(sh.num_resources, 2);
        assert_eq!(sh.blocks, 1);
        let mask = sh.table_mask(m.operations()[0].table(), None);
        // bit 0 (cycle 0, r0) and bit 2*2+1=5 (cycle 2, r1).
        assert_eq!(mask, [0b100001]);
    }

    #[test]
    fn advance_shifts_toward_present() {
        let m = toy();
        let sh = StateShape::for_machine(&m);
        let mask = sh.table_mask(m.operations()[0].table(), None);
        let a1 = advanced(&sh, &mask);
        // cycle-2 r1 commitment moves to cycle 1: bit 1*2+1 = 3.
        assert_eq!(a1, [0b1000]);
        let a2 = advanced(&sh, &a1);
        assert_eq!(a2, [0b10]);
        let a3 = advanced(&sh, &a2);
        assert_eq!(a3, [0]);
    }

    /// The shift against the per-bit definition of advance, across word
    /// edges: resource counts below, at and above one word (the aligned
    /// shift and the whole-word skip), at several horizons.
    #[test]
    fn advance_shift_matches_per_bit_reference() {
        fn reference(sh: &StateShape, horizon: usize, state: &[u64]) -> Vec<u64> {
            let mut out = vec![0; sh.blocks];
            for cycle in 1..horizon {
                for r in 0..sh.num_resources {
                    let src = cycle * sh.num_resources + r;
                    if state[src / 64] & (1 << (src % 64)) != 0 {
                        let dst = (cycle - 1) * sh.num_resources + r;
                        out[dst / 64] |= 1 << (dst % 64);
                    }
                }
            }
            out
        }
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for num_resources in [1, 63, 64, 65, 130] {
            for horizon in [1, 2, 3, 5, 8] {
                let sh = StateShape::new(num_resources, horizon);
                let bits = num_resources * horizon;
                for density in [u64::MAX, 0x0101_0101_0101_0101] {
                    let mut state: Vec<u64> = (0..sh.blocks).map(|_| next() & density).collect();
                    // Bits at or above the state width are always clear.
                    if bits % 64 != 0 {
                        state[bits / 64] &= (1 << (bits % 64)) - 1;
                    }
                    assert_eq!(
                        advanced(&sh, &state),
                        reference(&sh, horizon, &state),
                        "{num_resources} resources, horizon {horizon}"
                    );
                }
            }
        }
    }

    #[test]
    fn conflict_detection() {
        let m = toy();
        let sh = StateShape::for_machine(&m);
        let mask = sh.table_mask(m.operations()[0].table(), None);
        let empty = vec![0; sh.blocks];
        assert!(conflicts(&mask, &mask));
        assert!(!conflicts(&empty, &mask));
        let mut u = vec![0; sh.blocks];
        union(&empty, &mask, &mut u);
        assert_eq!(u, mask);
    }

    #[test]
    fn keep_filter_restricts_resources() {
        let m = toy();
        let sh = StateShape::for_machine(&m);
        let keep = vec![true, false];
        let mask = sh.table_mask(m.operations()[0].table(), Some(&keep));
        assert_eq!(mask, [0b1]); // only r0@0 survives
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
}
