//! Memory-cost models for the paper's §6 comparison between automata and
//! reduced bitvector reservation tables.

use crate::factored::FactoredAutomata;

/// Bits needed to encode one state id of an automaton with `states`
/// states (⌈log₂ states⌉; 0 for a single-state automaton).
pub fn state_bits(states: usize) -> u32 {
    if states <= 1 {
        0
    } else {
        usize::BITS - (states - 1).leading_zeros()
    }
}

/// Per-schedule-cycle state-cache cost (bits) of supporting an
/// *unrestricted* scheduler with a factored forward/reverse automaton
/// pair: one state of every factor must be stored per cycle (Bala &
/// Rubin; paper §2/§6). Each factor is rounded up to 8 bits as in the
/// paper's Alpha 21064 arithmetic ("encoding each factored state in 8
/// bits ... 64 bits of memory per schedule cycle" for 4 forward + 4
/// reverse factors).
pub fn factored_cache_bits_per_cycle(
    forward: &FactoredAutomata,
    reverse: &FactoredAutomata,
) -> u32 {
    let per = |f: &FactoredAutomata| -> u32 {
        f.factors()
            .iter()
            .map(|a| state_bits(a.num_states()).div_ceil(8) * 8)
            .sum()
    };
    per(forward) + per(reverse)
}

/// Per-schedule-cycle state-cache cost (bits) for explicit per-factor
/// state counts (e.g. after minimization), each rounded up to 8 bits as
/// in the paper's arithmetic.
pub fn cache_bits_from_counts(forward: &[usize], reverse: &[usize]) -> u32 {
    let per =
        |counts: &[usize]| -> u32 { counts.iter().map(|&c| state_bits(c).div_ceil(8) * 8).sum() };
    per(forward) + per(reverse)
}

/// Per-schedule-cycle reserved-table cost (bits) of the bitvector
/// representation: one flag bit per synthesized resource.
pub fn bitvector_bits_per_cycle(num_reduced_resources: usize) -> u32 {
    num_reduced_resources as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_bits_rounds_up() {
        assert_eq!(state_bits(1), 0);
        assert_eq!(state_bits(2), 1);
        assert_eq!(state_bits(3), 2);
        assert_eq!(state_bits(256), 8);
        assert_eq!(state_bits(257), 9);
        assert_eq!(state_bits(6175), 13);
    }

    #[test]
    fn bitvector_cost_is_resource_count() {
        assert_eq!(bitvector_bits_per_cycle(15), 15);
    }

    #[test]
    fn count_based_cache_cost_rounds_to_bytes() {
        // Each ≤256-state factor costs one byte per schedule cycle (the
        // paper's Alpha arithmetic packs 8 such states into 64 bits).
        assert_eq!(cache_bits_from_counts(&[237, 232], &[237, 231]), 32);
        assert_eq!(cache_bits_from_counts(&[124, 337], &[208, 283]), 48);
        assert_eq!(cache_bits_from_counts(&[], &[1]), 0);
    }
}
