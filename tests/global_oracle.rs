//! The certifier's global commitment-product pass against a reference
//! oracle.
//!
//! `rmd_certify`'s fourth pass interns packed product states in one
//! `StateArena`, advances them with a word shift and walks ids in order.
//! The oracle below is the BFS it replaced: one `Vec<u64>` per state, a
//! per-bit advance, a `HashMap<Vec<u64>, u32>` index and a frontier
//! drained a wave at a time in increasing id order, expanding every
//! state in full. Both must agree on whether the pass completes and on
//! how many product states it reached, including the exact count at
//! which a budget stops it.
//!
//! The pass skips the issue successors that its canonical issue order
//! proves already interned: a state first reached by issuing op `a`
//! does not issue the ops below `a`. The oracle computes those
//! successors anyway and checks that each one already has an id when
//! the state is expanded, which is where the skip could lose a state.

use rmd_certify::{certificate_objectives, certify_pair, CertifyOptions};
use rmd_core::ReduceOptions;
use rmd_fault::{generate, GenConfig};
use rmd_machine::{mdl, models, MachineBuilder, MachineDescription};

/// The global pass as it was before the packed state arena.
mod oracle {
    use rmd_machine::MachineDescription;
    use std::collections::{BTreeSet, HashMap};

    /// One machine's commitment space: bit `cycle * num_resources + r`
    /// of a state is set iff `r` is committed `cycle` cycles from now.
    struct Space {
        num_resources: usize,
        horizon: usize,
        blocks: usize,
        masks: Vec<Vec<u64>>,
    }

    impl Space {
        fn new(m: &MachineDescription) -> Self {
            let num_resources = m.num_resources();
            let horizon = (m.max_table_length() as usize).max(1);
            let blocks = (num_resources * horizon).div_ceil(64);
            let masks = m
                .operations()
                .iter()
                .map(|op| {
                    let mut k = vec![0u64; blocks];
                    for u in op.table().usages() {
                        let bit = u.cycle as usize * num_resources + u.resource.index();
                        k[bit / 64] |= 1 << (bit % 64);
                    }
                    k
                })
                .collect();
            Space {
                num_resources,
                horizon,
                blocks,
                masks,
            }
        }

        fn start(&self) -> Vec<u64> {
            vec![0; self.blocks]
        }

        fn can_issue(&self, state: &[u64], op: usize) -> bool {
            !state.iter().zip(&self.masks[op]).any(|(&a, &b)| a & b != 0)
        }

        fn issue(&self, state: &[u64], op: usize) -> Option<Vec<u64>> {
            self.can_issue(state, op).then(|| {
                state
                    .iter()
                    .zip(&self.masks[op])
                    .map(|(&a, &b)| a | b)
                    .collect()
            })
        }

        fn advance(&self, state: &[u64]) -> Vec<u64> {
            let mut out = self.start();
            for cycle in 1..self.horizon {
                for r in 0..self.num_resources {
                    let src = cycle * self.num_resources + r;
                    if state[src / 64] & (1 << (src % 64)) != 0 {
                        let dst = (cycle - 1) * self.num_resources + r;
                        out[dst / 64] |= 1 << (dst % 64);
                    }
                }
            }
            out
        }
    }

    /// What the oracle BFS found under one budget.
    pub struct Outcome {
        /// Whether the BFS ran to completion.
        pub completed: bool,
        /// Product states interned.
        pub states: u64,
        /// Issue successors the canonical issue order skips: op `b`
        /// fits a state first reached by issuing op `a > b`.
        pub skipped: u64,
        /// Those of them whose skip bound `a` lies in a later word of
        /// the op set than `b`.
        pub skipped_across_words: u64,
    }

    /// The product BFS under `budget`.
    ///
    /// # Panics
    ///
    /// When the two machines admit an operation differently at some
    /// reachable product state (every pair checked here is
    /// equivalent), or when an issue successor the canonical issue
    /// order skips has no id yet when its state is expanded.
    pub fn global(left: &MachineDescription, right: &MachineDescription, budget: u64) -> Outcome {
        let a = Space::new(left);
        let b = Space::new(right);
        let n = a.masks.len().min(b.masks.len());
        let key = |sa: &[u64], sb: &[u64]| [sa, sb].concat();

        let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
        // Each state with the op whose issue first reached it, if any.
        let mut states = vec![(a.start(), b.start(), None)];
        ids.insert(key(&a.start(), &b.start()), 0);
        let (mut skipped, mut skipped_across_words) = (0, 0);
        let mut frontier = BTreeSet::from([0u32]);
        while !frontier.is_empty() {
            for id in std::mem::take(&mut frontier) {
                let (sa, sb, first) = states[id as usize].clone();
                for op in 0..n {
                    assert_eq!(
                        a.can_issue(&sa, op),
                        b.can_issue(&sb, op),
                        "op {op} at product state {id}"
                    );
                }
                for op in 0..first.unwrap_or(0) {
                    if let (Some(na), Some(nb)) = (a.issue(&sa, op), b.issue(&sb, op)) {
                        assert!(
                            ids.contains_key(&key(&na, &nb)),
                            "product state {id} skips op {op} onto a state with no id"
                        );
                        skipped += 1;
                        skipped_across_words += u64::from(op / 64 < first.unwrap_or(0) / 64);
                    }
                }
                let mut push = |na: Vec<u64>, nb: Vec<u64>, op, frontier: &mut BTreeSet<u32>| {
                    let next = ids.len() as u32;
                    let id2 = *ids.entry(key(&na, &nb)).or_insert(next);
                    if id2 == next {
                        states.push((na, nb, op));
                        frontier.insert(id2);
                    }
                };
                push(a.advance(&sa), b.advance(&sb), None, &mut frontier);
                for op in 0..n {
                    if let (Some(na), Some(nb)) = (a.issue(&sa, op), b.issue(&sb, op)) {
                        push(na, nb, Some(op), &mut frontier);
                    }
                }
                if states.len() as u64 > budget {
                    return Outcome {
                        completed: false,
                        states: states.len() as u64,
                        skipped,
                        skipped_across_words,
                    };
                }
            }
        }
        Outcome {
            completed: true,
            states: states.len() as u64,
            skipped,
            skipped_across_words,
        }
    }
}

/// Budgets that stop the pass early.
const EARLY: [u64; 3] = [50, 1_000, 5_000];

/// The default budget, then budgets that stop the pass early.
fn budgets() -> [u64; 4] {
    [
        CertifyOptions::default().global_budget,
        EARLY[0],
        EARLY[1],
        EARLY[2],
    ]
}

/// `left` against `right` at `budget`: the pass and the oracle must
/// agree. Returns the oracle's outcome.
fn check_pair(
    left: &MachineDescription,
    right: &MachineDescription,
    budget: u64,
    what: &str,
) -> oracle::Outcome {
    let options = CertifyOptions {
        global_budget: budget,
        ..CertifyOptions::default()
    };
    let got = certify_pair(left, right, &options)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .global;
    let want = oracle::global(left, right, budget);
    assert_eq!(
        (got.completed, got.product_states),
        (want.completed, want.states),
        "{what} at budget {budget}"
    );
    want
}

/// `machine` against its reduction under each certificate objective, at
/// each of `budgets`. Returns the skipped issue successors per
/// objective, summed over the budgets.
fn check_reductions(machine: &MachineDescription, budgets: &[u64]) -> Vec<u64> {
    let mut skipped = Vec::new();
    for (label, objective) in certificate_objectives(machine) {
        let what = format!("{} {label}", machine.name());
        let red = rmd_core::try_reduce(machine, objective, &ReduceOptions::default())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let skips = budgets
            .iter()
            .map(|&budget| check_pair(machine, &red.reduced, budget, &what).skipped);
        skipped.push(skips.sum());
    }
    skipped
}

fn shipped(file: &str) -> MachineDescription {
    let path = format!("{}/../machines/{file}.mdl", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    mdl::parse_machine(&text)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .0
}

#[test]
fn shipped_machines_match_the_oracle() {
    check_reductions(&models::example_machine(), &budgets());
    for file in ["vliw_dsp", "zoo_clustered", "zoo_deep_np", "zoo_wide_issue"] {
        check_reductions(&shipped(file), &budgets());
    }
}

/// At the default budget mips_r3000's pass reaches over a million
/// states and cydra5_subset's stops at the budget, too many for the
/// oracle's `HashMap` BFS, so they are checked at the early budgets
/// only.
#[test]
fn wide_shipped_machines_match_the_oracle_at_early_budgets() {
    check_reductions(&models::mips_r3000(), &EARLY);
    check_reductions(&models::cydra5_subset(), &EARLY);
}

/// The skip must be exercised where it could lose a state: some
/// generated pair has issue successors that the canonical order skips.
#[test]
fn generated_machines_match_the_oracle() {
    let mut skipping = 0;
    for seed in 0..24 {
        let skipped = check_reductions(&generate(seed, &GenConfig::small()), &budgets());
        skipping += skipped.iter().filter(|&&n| n > 0).count();
    }
    for seed in 0..4 {
        let skipped = check_reductions(&generate(seed, &GenConfig::medium()), &budgets());
        skipping += skipped.iter().filter(|&&n| n > 0).count();
    }
    assert!(skipping > 0, "no generated pair skips an issue successor");
}

/// 72 operations on 24 resources: op `i` holds resource `i % 24` at
/// cycle `i / 24` and the next resource one cycle later. Admitted-op
/// sets span two words, and by budget 5,000 the BFS expands the states
/// first reached by issuing ops 64 to 71, whose skip bound lies in the
/// second word while ops of the first word fit them.
fn wide() -> MachineDescription {
    let mut b = MachineBuilder::new("wide72");
    let r: Vec<_> = (0..24).map(|i| b.resource(format!("r{i}"))).collect();
    for i in 0..72u32 {
        let (k, g) = ((i % 24) as usize, i / 24);
        b.operation(format!("op{i}"))
            .usage(r[k], g)
            .usage(r[(k + 1) % 24], g + 1)
            .finish();
    }
    b.build().expect("valid machine")
}

#[test]
fn a_72_op_machine_matches_the_oracle_across_a_word_edge() {
    let m = wide();
    let mut across = 0;
    for budget in EARLY {
        across += check_pair(&m, &m, budget, "wide72").skipped_across_words;
    }
    assert!(across > 0, "no skip bound crosses a word edge");
}
