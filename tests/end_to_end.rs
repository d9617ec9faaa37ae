//! End-to-end pipeline tests over every prebuilt machine model: reduce
//! under every objective, verify exact equivalence, and check that the
//! paper's headline monotonicities hold.

use rmd_core::{avg_word_usages, reduce, verify_equivalence, Objective};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_machine::models::{all_machines, cydra5, cydra5_subset, example_machine};

#[test]
fn every_model_reduces_equivalently_under_every_objective() {
    for m in all_machines() {
        for objective in [
            Objective::ResUses,
            Objective::KCycleWord { k: 1 },
            Objective::KCycleWord { k: 2 },
            Objective::KCycleWord { k: 4 },
            Objective::KCycleWord { k: 7 },
        ] {
            let red = reduce(&m, objective);
            verify_equivalence(&m, &red.reduced)
                .unwrap_or_else(|e| panic!("{} under {objective:?}: {e}", m.name()));
        }
    }
}

#[test]
fn reduction_shrinks_resources_and_usages() {
    for m in all_machines() {
        let red = reduce(&m, Objective::ResUses);
        assert!(
            red.reduced_classes.num_resources() <= m.num_resources(),
            "{}",
            m.name()
        );
        let classes = red.class_machine.avg_usages_per_op();
        let reduced = red.reduced_classes.avg_usages_per_op();
        assert!(
            reduced <= classes,
            "{}: usages/class {reduced} > {classes}",
            m.name()
        );
    }
}

#[test]
fn word_objective_improves_on_the_original_at_its_k() {
    // The k-tuned reduction must always beat the original description's
    // word usages at k, and should essentially match or beat the
    // k=1-tuned reduction there (greedy selection admits a small slack).
    for m in all_machines() {
        let k1 = reduce(&m, Objective::KCycleWord { k: 1 });
        for k in [2u32, 4] {
            let kk = reduce(&m, Objective::KCycleWord { k });
            let at_k = avg_word_usages(&kk.reduced_classes, k);
            let original = avg_word_usages(&kk.class_machine, k);
            assert!(
                at_k < original,
                "{} k={k}: reduced {at_k} !< original {original}",
                m.name()
            );
            let baseline = avg_word_usages(&k1.reduced_classes, k);
            assert!(
                at_k <= baseline * 1.15 + 1e-9,
                "{} k={k}: {at_k} far above the k=1 reduction's {baseline}",
                m.name()
            );
        }
    }
}

#[test]
fn figure_1_numbers_are_exact() {
    let m = example_machine();
    let red = reduce(&m, Objective::ResUses);
    assert_eq!(red.reduced.num_resources(), 2);
    let a = red.reduced.operation(red.reduced.op_by_name("A").unwrap());
    let b = red.reduced.operation(red.reduced.op_by_name("B").unwrap());
    assert_eq!((a.table().num_usages(), b.table().num_usages()), (1, 4));
}

#[test]
fn class_count_is_preserved_by_reduction() {
    for m in all_machines() {
        let red = reduce(&m, Objective::ResUses);
        let f2 = ForbiddenMatrix::compute(&red.reduced);
        let p2 = ClassPartition::compute(&red.reduced, &f2);
        assert_eq!(
            red.classes.num_classes(),
            p2.num_classes(),
            "{}: classes changed under reduction",
            m.name()
        );
        // And the partition itself is identical.
        for (id, _) in red.reduced.ops() {
            assert_eq!(red.classes.class_of(id), p2.class_of(id), "{}", m.name());
        }
    }
}

#[test]
fn double_reduction_is_stable() {
    // Reducing an already-reduced machine must preserve equivalence and
    // never grow the description.
    for m in [example_machine(), cydra5_subset()] {
        let once = reduce(&m, Objective::ResUses);
        let twice = reduce(&once.reduced, Objective::ResUses);
        verify_equivalence(&m, &twice.reduced).expect("still equivalent");
        assert!(twice.reduced.total_usages() <= once.reduced.total_usages());
        assert!(twice.reduced.num_resources() <= once.reduced.num_resources());
    }
}

#[test]
fn cydra_reduction_matches_paper_regime() {
    let m = cydra5();
    let red = reduce(&m, Objective::ResUses);
    // Paper: 56 -> 15 resources (x3.7), usages 18.2 -> 8.3 (x2.2). Our
    // reconstruction is sparser, but the multi-x shape must hold.
    let res_ratio = m.num_resources() as f64 / red.reduced_classes.num_resources() as f64;
    assert!(res_ratio >= 1.5, "resource ratio {res_ratio}");
    let use_ratio = red.class_machine.avg_usages_per_op() / red.reduced_classes.avg_usages_per_op();
    assert!(use_ratio >= 1.3, "usage ratio {use_ratio}");
}
