//! Model-based property tests: the custom containers against reference
//! implementations, and total-ness of the MDL front end.

use proptest::prelude::*;
use rmd_latency::{BitSet, LatencySet};
use rmd_machine::{ReservationTable, ResourceId};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitset_matches_btreeset(ops in prop::collection::vec((0usize..500, any::<bool>()), 0..80)) {
        let mut sut = BitSet::new();
        let mut model = BTreeSet::new();
        for (x, insert) in ops {
            if insert {
                prop_assert_eq!(sut.insert(x), model.insert(x));
            } else {
                prop_assert_eq!(sut.remove(x), model.remove(&x));
            }
            prop_assert_eq!(sut.len(), model.len());
        }
        prop_assert_eq!(sut.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_algebra_matches_model(
        a in prop::collection::btree_set(0usize..200, 0..40),
        b in prop::collection::btree_set(0usize..200, 0..40),
    ) {
        let sa: BitSet = a.iter().copied().collect();
        let sb: BitSet = b.iter().copied().collect();
        let mut union = sa.clone();
        union.union_with(&sb);
        prop_assert_eq!(
            union.iter().collect::<BTreeSet<_>>(),
            a.union(&b).copied().collect::<BTreeSet<_>>()
        );
        prop_assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
    }

    #[test]
    fn latency_set_matches_btreeset(xs in prop::collection::vec(-300i32..300, 0..60)) {
        let mut sut = LatencySet::new();
        let mut model = BTreeSet::new();
        for x in &xs {
            prop_assert_eq!(sut.insert(*x), model.insert(*x));
        }
        prop_assert_eq!(sut.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sut.len(), model.len());
        prop_assert_eq!(sut.max(), model.last().copied());
        for probe in -310..310 {
            prop_assert_eq!(sut.contains(probe), model.contains(&probe));
        }
    }

    #[test]
    fn collides_at_is_mirror_symmetric(
        a in prop::collection::vec((0u32..4, 0u32..8), 1..6),
        b in prop::collection::vec((0u32..4, 0u32..8), 1..6),
        lat in -12i64..12,
    ) {
        let ta = ReservationTable::from_usages(a.into_iter().map(|(r, c)| (ResourceId(r), c)));
        let tb = ReservationTable::from_usages(b.into_iter().map(|(r, c)| (ResourceId(r), c)));
        // "B issues `lat` after A" collides iff "A issues `-lat` after B".
        prop_assert_eq!(ta.collides_at(&tb, lat), tb.collides_at(&ta, -lat));
    }

    #[test]
    fn mdl_parser_is_total(src in "\\PC*") {
        // Arbitrary junk must yield Ok or Err — never a panic.
        let _ = rmd_machine::mdl::parse(&src);
    }

    #[test]
    fn mdl_parser_is_total_on_structured_junk(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "machine", "\"m\"", "{", "}", "resources", ";", "op", "use",
                "@", "..", ",", "alt", "weight", "1", "2.5", "ident", "[", "]",
            ]),
            0..40,
        )
    ) {
        let src = parts.join(" ");
        let _ = rmd_machine::mdl::parse(&src);
    }
}
