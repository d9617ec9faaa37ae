//! Machine descriptions compiled into query-friendly forms.

use rmd_machine::{MachineDescription, OpId};

/// Per-operation usage lists: `(resource index, cycle)` pairs sorted by
/// cycle then resource — the iteration order of the discrete functions,
/// and so the order in which every module reports evictions.
#[derive(Clone, Debug)]
pub struct CompiledUsages {
    pub(crate) num_resources: usize,
    /// `usages[op] = [(resource, cycle), ...]`, sorted by (cycle, resource).
    pub(crate) usages: Vec<Vec<(u32, u32)>>,
    /// Table length (cycles) per op.
    pub(crate) length: Vec<u32>,
}

impl CompiledUsages {
    /// Compiles the usage lists of every operation of `m`.
    pub fn new(m: &MachineDescription) -> Self {
        let usages = m
            .operations()
            .iter()
            .map(|op| {
                let mut v: Vec<(u32, u32)> = op
                    .table()
                    .usages()
                    .iter()
                    .map(|u| (u.resource.0, u.cycle))
                    .collect();
                v.sort_unstable_by_key(|&(r, c)| (c, r));
                v
            })
            .collect();
        let length = m
            .operations()
            .iter()
            .map(|op| op.table().length())
            .collect();
        CompiledUsages {
            num_resources: m.num_resources(),
            usages,
            length,
        }
    }

    /// The `(resource index, cycle)` usages of `op`, sorted by
    /// (cycle, resource).
    #[inline]
    pub fn of(&self, op: OpId) -> &[(u32, u32)] {
        &self.usages[op.index()]
    }
}

/// A reservation table compiled to per-alignment word masks for the
/// bitvector representation.
///
/// Cycle bitvectors (one bit per resource) are packed `k` per word. A
/// query at cycle `t` has alignment `a = t mod k` and base word
/// `t div k`; the compiled form stores, for each alignment, the list of
/// `(word offset, mask)` pairs of nonempty words.
#[derive(Clone, Debug)]
pub(crate) struct CompiledMasks {
    /// `masks[op][alignment] = [(word_offset, mask), ...]` sorted by offset.
    pub masks: Vec<Vec<Vec<(u32, u64)>>>,
}

impl CompiledMasks {
    /// Compiles `m` with `k` cycles per word. Requires
    /// `k * num_resources <= 64` (the paper's "k bitvectors packed per
    /// memory word" with 32- or 64-bit words; storage here is always
    /// `u64`, the logical word size is enforced by the caller's choice of
    /// `k`).
    ///
    /// # Panics
    ///
    /// Panics if a word cannot hold `k` cycle-bitvectors.
    pub fn new(m: &MachineDescription, k: u32) -> Self {
        let nr = m.num_resources() as u32;
        assert!(k >= 1, "need at least one cycle per word");
        assert!(
            k * nr <= 64,
            "k={k} cycles of {nr} resources exceed a 64-bit word"
        );
        let masks = m
            .operations()
            .iter()
            .map(|op| {
                (0..k)
                    .map(|a| {
                        let mut words: Vec<(u32, u64)> = Vec::new();
                        for u in op.table().usages() {
                            let gc = u.cycle + a;
                            let w = gc / k;
                            let bit = (gc % k) * nr + u.resource.0;
                            match words.binary_search_by_key(&w, |&(wo, _)| wo) {
                                Ok(i) => words[i].1 |= 1u64 << bit,
                                Err(i) => words.insert(i, (w, 1u64 << bit)),
                            }
                        }
                        words
                    })
                    .collect()
            })
            .collect();
        CompiledMasks { masks }
    }

    #[inline]
    pub fn of(&self, op: OpId, alignment: u32) -> &[(u32, u64)] {
        &self.masks[op.index()][alignment as usize]
    }
}

/// Eagerly expanded modulo reservation masks: for every (operation,
/// issue-slot) pair under one initiation interval, the `(word, mask)`
/// list of nonempty packed words the reservation touches.
///
/// This is the fully materialized form of the lazy per-slot expansion
/// the modulo bitvector module used to compute on first use: all
/// `num_ops × II` slot lists live in two flat arrays (an offset table
/// plus one contiguous word list), so the hot `check` path is a slice
/// index followed by word AND/OR — no `Option` probe, no insertion, no
/// allocation.
///
/// The update-mode paths work one usage at a time instead. For them an
/// II-entry table holds each slot's packed position, its word and the
/// bit of resource 0, so a usage's flag bit is a lookup plus its
/// resource index, with no division by `k`.
#[derive(Clone, Debug)]
pub(crate) struct ModuloMasks {
    ii: u32,
    /// `start[op * ii + slot] .. start[op * ii + slot + 1]` indexes
    /// `words`.
    start: Vec<u32>,
    /// All slot lists, concatenated in (op, slot) order.
    words: Vec<(u32, u64)>,
    /// `pos[slot] = (slot / k, (slot % k) · num_resources)`: the word
    /// holding the slot's cycle-bitvector and the bit of resource 0.
    pos: Vec<(u32, u32)>,
}

impl ModuloMasks {
    /// Expands every (op, slot) pair of `usages` for modulo tables with
    /// initiation interval `ii`, packed `k` cycle-bitvectors per word.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`, `k == 0`, or a word cannot hold `k`
    /// cycle-bitvectors of this machine.
    pub fn new(usages: &CompiledUsages, ii: u32, k: u32) -> Self {
        let nr = usages.num_resources as u32;
        assert!(ii > 0, "initiation interval must be positive");
        assert!(
            k >= 1 && k * nr <= 64,
            "k={k} cycles of {nr} resources exceed a 64-bit word"
        );
        let nops = usages.usages.len();
        let mut start = Vec::with_capacity(nops * ii as usize + 1);
        let mut words: Vec<(u32, u64)> = Vec::new();
        let mut scratch: Vec<(u32, u64)> = Vec::new();
        start.push(0u32);
        for us in &usages.usages {
            for slot in 0..ii {
                scratch.clear();
                for &(r, c) in us {
                    let s = ((u64::from(slot) + u64::from(c)) % u64::from(ii)) as u32;
                    let w = s / k;
                    let bit = (s % k) * nr + r;
                    match scratch.binary_search_by_key(&w, |&(wo, _)| wo) {
                        Ok(i) => scratch[i].1 |= 1u64 << bit,
                        Err(i) => scratch.insert(i, (w, 1u64 << bit)),
                    }
                }
                words.extend_from_slice(&scratch);
                start.push(words.len() as u32);
            }
        }
        let pos = (0..ii).map(|s| (s / k, (s % k) * nr)).collect();
        ModuloMasks {
            ii,
            start,
            words,
            pos,
        }
    }

    /// The nonempty `(word, mask)` pairs of `op` issued in `slot`
    /// (`slot < ii`).
    #[inline]
    pub fn of(&self, op: OpId, slot: u32) -> &[(u32, u64)] {
        let i = op.index() * self.ii as usize + slot as usize;
        &self.words[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The word and resource-0 bit of `slot`'s cycle-bitvector, one
    /// entry per slot `0..ii`: resource `r` issued in `slot` is bit
    /// `base + r` of word `word`.
    #[inline]
    pub fn positions(&self) -> &[(u32, u32)] {
        &self.pos
    }

    /// The initiation interval the masks were expanded for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Total `(word, mask)` entries across all slot lists — the
    /// footprint reported by cache statistics.
    pub fn num_entries(&self) -> usize {
        self.words.len()
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

    #[test]
    fn usages_sorted_by_cycle() {
        let m = toy();
        let c = CompiledUsages::new(&m);
        assert_eq!(c.of(OpId(0)), &[(0, 0), (1, 2)]);
        assert_eq!(c.length[0], 3);
        assert_eq!(c.num_resources, 2);
    }

    #[test]
    fn masks_pack_cycles_into_words() {
        let m = toy();
        // k=2, 2 resources: bits [c_local*2 + r].
        let c = CompiledMasks::new(&m, 2);
        // Alignment 0: cycle 0 -> word 0 bit 0; cycle 2 -> word 1 bit 1.
        assert_eq!(c.of(OpId(0), 0), &[(0, 0b01), (1, 0b10)]);
        // Alignment 1: cycle 1 -> word 0 bit (1*2+0)=2; cycle 3 -> word 1
        // bit (1*2+1)=3.
        assert_eq!(c.of(OpId(0), 1), &[(0, 0b100), (1, 0b1000)]);
    }

    #[test]
    fn masks_merge_same_word() {
        let mut b = MachineBuilder::new("t");
        let r0 = b.resource("r0");
        let r1 = b.resource("r1");
        b.operation("x").usage(r0, 0).usage(r1, 1).finish();
        let m = b.build().unwrap();
        let c = CompiledMasks::new(&m, 2);
        // Both cycles in word 0: bits 0 and (1*2+1)=3.
        assert_eq!(c.of(OpId(0), 0), &[(0, 0b1001)]);
    }

    #[test]
    fn modulo_masks_wrap_around_the_table() {
        let m = toy(); // x: r0@0, r1@2; nr=2
        let c = CompiledUsages::new(&m);
        let mm = ModuloMasks::new(&c, 4, 2);
        assert_eq!(mm.ii(), 4);
        // Slot 0: cycles {0, 2} -> slots {0, 2}: word 0 bit 0, word 1
        // bit (0*2+1)=1.
        assert_eq!(mm.of(OpId(0), 0), &[(0, 0b01), (1, 0b10)]);
        // Slot 3 wraps: r0 -> slot 3 (word 1, bit (1*2+0)=2); r1 -> slot
        // (3+2)%4=1 (word 0, bit (1*2+1)=3).
        assert_eq!(mm.of(OpId(0), 3), &[(0, 0b1000), (1, 0b100)]);
        assert_eq!(mm.num_entries(), 8); // 4 slots x 2 words each
        assert_eq!(mm.positions(), &[(0, 0), (0, 2), (1, 0), (1, 2)]); // 2 slots, 2 resources per word
    }

    #[test]
    #[should_panic(expected = "exceed a 64-bit word")]
    fn masks_reject_oversized_k() {
        let mut b = MachineBuilder::new("t");
        for i in 0..33 {
            b.resource(format!("r{i}"));
        }
        let r = rmd_machine::ResourceId(0);
        b.operation("x").usage(r, 0).finish();
        let m = b.build().unwrap();
        let _ = CompiledMasks::new(&m, 2);
    }
}
