//! Description metrics matching the paper's Tables 1–4.

use rmd_machine::{MachineDescription, ReservationTable};

/// Number of nonempty `k`-cycle words in `table` when its cycles are
/// shifted by `alignment` before packing — i.e. how many memory words a
/// bitvector `check` touches for a query at a cycle congruent to
/// `alignment (mod k)`.
fn word_usages_of_table(table: &ReservationTable, k: u32, alignment: u32) -> usize {
    assert!(k >= 1, "word size must be at least one cycle");
    let mut words: Vec<u32> = table
        .usages()
        .iter()
        .map(|u| (u.cycle + alignment) / k)
        .collect();
    words.sort_unstable();
    words.dedup();
    words.len()
}

/// Average nonempty-word count per operation, averaged over all
/// operations and all `k` possible alignments between the reserved and
/// reservation bitvectors — the paper's *word usage* metric (Tables 1–4).
pub fn avg_word_usages(m: &MachineDescription, k: u32) -> f64 {
    let mut total = 0usize;
    for op in m.operations() {
        for a in 0..k {
            total += word_usages_of_table(op.table(), k, a);
        }
    }
    total as f64 / (m.num_operations() as f64 * f64::from(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::{MachineBuilder, ResourceId};

    #[test]
    fn word_usages_respect_alignment() {
        let t = ReservationTable::from_usages([
            (ResourceId(0), 0),
            (ResourceId(1), 1),
            (ResourceId(0), 4),
        ]);
        // k=4, alignment 0: words {0, 1} -> 2.
        assert_eq!(word_usages_of_table(&t, 4, 0), 2);
        // k=4, alignment 3: cycles 3,4,7 -> words {0,1,1} -> 2.
        assert_eq!(word_usages_of_table(&t, 4, 3), 2);
        // k=1: every distinct cycle is a word.
        assert_eq!(word_usages_of_table(&t, 1, 0), 3);
        // k large: single word.
        assert_eq!(word_usages_of_table(&t, 16, 0), 1);
    }

    #[test]
    fn multiple_resources_in_one_cycle_share_a_word() {
        let t = ReservationTable::from_usages([(ResourceId(0), 0), (ResourceId(1), 0)]);
        assert_eq!(word_usages_of_table(&t, 1, 0), 1);
    }

    #[test]
    fn avg_word_usages_averages_ops_and_alignments() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish(); // 1 word at any alignment
        b.operation("y").usage(r, 0).usage(r, 1).finish();
        let m = b.build().unwrap();
        // k=2: op y occupies 1 word at alignment 0 ({0,0}), 2 at
        // alignment 1 (cycles 1,2 -> words 0,1). Average over ops and
        // alignments: (1+1+1+2)/4 = 1.25.
        assert!((avg_word_usages(&m, 2) - 1.25).abs() < 1e-12);
    }
}
