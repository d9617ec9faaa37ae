//! Cross-backend conformance: every contention query backend — the
//! discrete reserved table, the bitvector table (at several packings),
//! and the forward/reverse automaton pair — must agree on **every** `check`, `check_window`,
//! `first_free_in`, `assign&free`, and `free` outcome of a random query
//! trace over a random machine.
//!
//! The paper's claim is representational: reduced reservation tables,
//! packed bitvectors, and hazard automata all encode the same
//! scheduling constraints. This suite is the executable form of that
//! claim. Traces are generated from a seeded [`Lcg`], so every failure
//! is reproducible from the printed `(spec, seed)` pair; shrunk
//! counterexamples live in `proptest-regressions/conformance_prop.txt`
//! and are replayed explicitly by the `regression_*` tests below.

use proptest::prelude::*;
use rmd_automata::{AutomataModule, Automaton, Direction};
use rmd_integration::{arb_machine_spec, build_single_issue_machine, Lcg, MachineSpec};
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{BitvecModule, ContentionQuery, DiscreteModule, OpInstance, WordLayout};

/// Fixed schedule horizon for the automata backend; trace cycles are
/// bounded so every operation fits, keeping all backends in the regime
/// where their answers are comparable.
const HORIZON: u32 = 32;

/// Events per trace. Long enough to push the bitvector module through
/// its optimistic→update transition and force automata rebuilds.
const EVENTS: usize = 60;

/// Builds one of each backend over `m` and replays a seeded random
/// trace through all of them, asserting agreement after every event.
fn replay(m: &MachineDescription, seed: u64) {
    let fwd = Automaton::build(m, Direction::Forward, 1 << 20).expect("forward automaton");
    let rev = Automaton::build(m, Direction::Reverse, 1 << 20).expect("reverse automaton");
    let widest = WordLayout::widest(64, m.num_resources());
    let mut backends: Vec<(&str, Box<dyn ContentionQuery + '_>)> = vec![
        ("discrete", Box::new(DiscreteModule::new(m))),
        ("bitvec-widest", Box::new(BitvecModule::new(m, widest))),
        (
            "bitvec-k1",
            Box::new(BitvecModule::new(m, WordLayout::with_k(64, 1))),
        ),
        (
            "automata",
            Box::new(AutomataModule::new(m, &fwd, &rev, HORIZON)),
        ),
    ];

    let max_len = m
        .operations()
        .iter()
        .map(|op| op.table().length().max(1))
        .max()
        .expect("machines have operations");
    assert!(max_len <= HORIZON, "spec tables exceed the trace horizon");
    let tmax = u64::from(HORIZON - max_len + 1);
    let nops = m.num_operations() as u64;

    let mut rng = Lcg(seed);
    let mut live: Vec<(OpInstance, OpId, u32)> = Vec::new();
    let mut next_inst = 0u32;
    for step in 0..EVENTS {
        let op = OpId(rng.below(nops) as u32);
        let t = rng.below(tmax) as u32;
        match rng.below(10) {
            // Mostly check-then-assign: the greedy scheduler idiom.
            0..=5 => {
                let answers: Vec<bool> = backends.iter_mut().map(|(_, b)| b.check(op, t)).collect();
                for (i, &a) in answers.iter().enumerate() {
                    assert_eq!(
                        answers[0], a,
                        "step {step}: check({op:?}, {t}) disagrees: \
                         {} says {} but {} says {a}",
                        backends[0].0, answers[0], backends[i].0
                    );
                }
                if answers[0] {
                    let inst = OpInstance(next_inst);
                    next_inst += 1;
                    for (_, b) in backends.iter_mut() {
                        b.assign(inst, op, t);
                    }
                    live.push((inst, op, t));
                }
            }
            // Displacing placement: evictions must match exactly,
            // including order.
            6..=7 => {
                let inst = OpInstance(next_inst);
                next_inst += 1;
                let evictions: Vec<Vec<OpInstance>> = backends
                    .iter_mut()
                    .map(|(_, b)| b.assign_free(inst, op, t))
                    .collect();
                for (i, e) in evictions.iter().enumerate() {
                    assert_eq!(
                        &evictions[0], e,
                        "step {step}: assign_free({op:?}, {t}) evictions disagree \
                         between {} and {}",
                        backends[0].0, backends[i].0
                    );
                }
                live.retain(|(x, _, _)| !evictions[0].contains(x));
                live.push((inst, op, t));
            }
            // Unschedule a random live instance.
            _ => {
                if !live.is_empty() {
                    let idx = rng.below(live.len() as u64) as usize;
                    let (inst, lop, lt) = live.remove(idx);
                    for (_, b) in backends.iter_mut() {
                        b.free(inst, lop, lt);
                    }
                }
            }
        }
        let counts: Vec<usize> = backends.iter().map(|(_, b)| b.num_scheduled()).collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "step {step}: scheduled counts diverge: {counts:?}"
        );

        // Window conformance: at every step, a batched `check_window`
        // over a random span must equal the bitmask assembled from
        // individual `check` calls, on every backend — and the backends
        // must agree with each other. `first_free_in` must land on the
        // lowest set bit of that mask.
        let wop = OpId(rng.below(nops) as u32);
        let ws = rng.below(tmax) as u32;
        let wlen = 1 + rng.below((tmax as u32 - ws).min(64).into()) as u32;
        let masks: Vec<u64> = backends
            .iter_mut()
            .map(|(name, b)| {
                let got = b.check_window(wop, ws, wlen);
                let mut want = 0u64;
                for i in 0..wlen {
                    if b.check(wop, ws + i) {
                        want |= 1u64 << i;
                    }
                }
                assert_eq!(
                    got, want,
                    "step {step}: {name} check_window({wop:?}, {ws}, {wlen}) = \
                     {got:#x} but scalar checks assemble {want:#x}"
                );
                let first = b.first_free_in(wop, ws, wlen);
                let expect = (want != 0).then(|| ws + want.trailing_zeros());
                assert_eq!(
                    first, expect,
                    "step {step}: {name} first_free_in({wop:?}, {ws}, {wlen}) \
                     disagrees with its own window mask {want:#x}"
                );
                got
            })
            .collect();
        for (i, &mask) in masks.iter().enumerate() {
            assert_eq!(
                masks[0], mask,
                "step {step}: check_window({wop:?}, {ws}, {wlen}) disagrees \
                 between {} and {}",
                backends[0].0, backends[i].0
            );
        }
    }

    // Exhaustive sweep: after the trace, every (op, cycle) check must
    // agree across all backends.
    for opi in 0..m.num_operations() {
        let op = OpId(opi as u32);
        for t in 0..tmax as u32 {
            let answers: Vec<bool> = backends.iter_mut().map(|(_, b)| b.check(op, t)).collect();
            for (i, &a) in answers.iter().enumerate() {
                assert_eq!(
                    answers[0], a,
                    "final sweep: check({op:?}, {t}) disagrees between {} and {}",
                    backends[0].0, backends[i].0
                );
            }
        }
    }
}

proptest! {
    // 256 cases; every case exercises all backend pairs jointly, so
    // each of the C(5,2) pairs sees >= 256 random traces.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backends_agree_on_random_traces(
        // Small machines keep the unminimized automata tractable; the
        // shared single-issue resource bounds in-flight operations.
        spec in arb_machine_spec(4, 4, 4, 6),
        seed in any::<u64>(),
    ) {
        let m = build_single_issue_machine(&spec);
        replay(&m, seed);
    }
}

/// Replay of shrunk counterexamples (see
/// `proptest-regressions/conformance_prop.txt`): machines whose shapes
/// once exposed disagreements while the adapter backends were being
/// built — a one-op self-conflicting table, and a pair whose spans
/// nest strictly (the case only the automata pair's span replay sees).
#[test]
fn regression_minimal_machines() {
    let specs: [MachineSpec; 3] = [
        vec![vec![(0, 0), (0, 2)]],
        vec![vec![(0, 0), (1, 3)], vec![(1, 1)]],
        vec![vec![(0, 5)], vec![(0, 0), (0, 5)], vec![(1, 2), (0, 3)]],
    ];
    for (i, spec) in specs.iter().enumerate() {
        let m = build_single_issue_machine(spec);
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            replay(&m, seed);
        }
        // Also exercise the machine without the issue resource: wider
        // concurrency, different automata state shapes.
        let m = rmd_integration::build_machine(spec);
        replay(&m, 42 + i as u64);
    }
}
