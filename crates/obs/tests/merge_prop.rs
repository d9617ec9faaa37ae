//! Property tests for [`MetricRegistry::merge`]: registries recorded
//! apart (per query backend, per cached machine) are folded in whatever
//! grouping and order their sources come in, so merge must be
//! associative and commutative with the empty registry as identity —
//! otherwise merged metrics would depend on that order.

use proptest::prelude::*;
use rmd_obs::MetricRegistry;

/// One randomly generated registry operation: `(kind, name, value)`
/// where kind 0 is a counter inc, 1 a gauge set, 2 a histogram observe.
/// The shim proptest has no `prop_map`, so ops stay raw tuples and
/// [`build`] interprets them.
type Op = (usize, &'static str, u64);

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0usize..3,
        prop::sample::select(vec!["alpha", "beta", "gamma", "delta"]),
        0u64..1_000_000,
    )
}

fn is_gauge(op: &Op) -> bool {
    op.0 == 1
}

fn build(ops: &[Op]) -> MetricRegistry {
    let mut reg = MetricRegistry::new();
    for &(kind, name, v) in ops {
        match kind {
            0 => reg.inc(name, v),
            1 => reg.set_gauge(name, v),
            _ => reg.observe(name, v),
        }
    }
    reg
}

fn merged(a: &MetricRegistry, b: &MetricRegistry) -> MetricRegistry {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(op_strategy(), 0..40),
        b in prop::collection::vec(op_strategy(), 0..40),
        c in prop::collection::vec(op_strategy(), 0..40),
    ) {
        let (ra, rb, rc) = (build(&a), build(&b), build(&c));
        let left = merged(&merged(&ra, &rb), &rc);
        let right = merged(&ra, &merged(&rb, &rc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn counter_and_histogram_merge_is_commutative(
        a in prop::collection::vec(op_strategy(), 0..40),
        b in prop::collection::vec(op_strategy(), 0..40),
    ) {
        // Gauges merge by max, which is commutative too — so the whole
        // registry commutes regardless of which shard finished first.
        let (ra, rb) = (build(&a), build(&b));
        prop_assert_eq!(merged(&ra, &rb), merged(&rb, &ra));
    }

    #[test]
    fn empty_registry_is_the_merge_identity(
        a in prop::collection::vec(op_strategy(), 0..60),
    ) {
        let ra = build(&a);
        let empty = MetricRegistry::new();
        prop_assert_eq!(merged(&ra, &empty), ra.clone());
        prop_assert_eq!(merged(&empty, &ra), ra);
    }

    #[test]
    fn merge_equals_observing_the_concatenation(
        a in prop::collection::vec(op_strategy(), 0..40),
        b in prop::collection::vec(op_strategy(), 0..40),
    ) {
        // Gauges are excluded from this stronger statement: set_gauge is
        // last-write-wins locally but max-wins across shards, so only
        // counters and histograms are order-insensitive under
        // concatenation. Filter gauge ops out before comparing.
        let no_gauge = |ops: &[Op]| -> Vec<Op> {
            ops.iter().filter(|o| !is_gauge(o)).copied().collect()
        };
        let (ca, cb) = (no_gauge(&a), no_gauge(&b));
        let mut concat = ca.clone();
        concat.extend(cb.iter().cloned());
        prop_assert_eq!(merged(&build(&ca), &build(&cb)), build(&concat));
    }
}
