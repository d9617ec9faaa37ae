//! The certifier's global commitment-product pass against a reference
//! oracle.
//!
//! `rmd_certify`'s fourth pass interns packed product states in one
//! `StateArena`, advances them with a word shift and walks ids in order.
//! The oracle below is the BFS it replaced: one `Vec<u64>` per state, a
//! per-bit advance, a `HashMap<Vec<u64>, u32>` index and a frontier
//! drained a wave at a time in increasing id order. Both must agree on
//! whether the pass completes and on how many product states it
//! reached, including the exact count at which a budget stops it.

use rmd_certify::{certificate_objectives, certify_pair, CertifyOptions};
use rmd_core::ReduceOptions;
use rmd_fault::{generate, GenConfig};
use rmd_machine::{mdl, models, MachineDescription};

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

    /// `(completed, product_states)` of the product BFS under `budget`.
    ///
    /// # Panics
    ///
    /// When the two machines admit an operation differently at some
    /// reachable product state: every pair checked here is equivalent.
    pub fn global(left: &MachineDescription, right: &MachineDescription, budget: u64) -> (bool, u64) {
        let a = Space::new(left);
        let b = Space::new(right);
        let n = a.masks.len().min(b.masks.len());
        let key = |sa: &[u64], sb: &[u64]| [sa, sb].concat();

        let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut states = vec![(a.start(), b.start())];
        ids.insert(key(&a.start(), &b.start()), 0);
        let mut frontier = BTreeSet::from([0u32]);
        while !frontier.is_empty() {
            for id in std::mem::take(&mut frontier) {
                let (sa, sb) = states[id as usize].clone();
                for op in 0..n {
                    assert_eq!(
                        a.can_issue(&sa, op),
                        b.can_issue(&sb, op),
                        "op {op} at product state {id}"
                    );
                }
                let mut push = |na: Vec<u64>, nb: Vec<u64>, frontier: &mut BTreeSet<u32>| {
                    let next = ids.len() as u32;
                    let id2 = *ids.entry(key(&na, &nb)).or_insert(next);
                    if id2 == next {
                        states.push((na, nb));
                        frontier.insert(id2);
                    }
                };
                push(a.advance(&sa), b.advance(&sb), &mut frontier);
                for op in 0..n {
                    if let Some(na) = a.issue(&sa, op) {
                        if let Some(nb) = b.issue(&sb, op) {
                            push(na, nb, &mut frontier);
                        }
                    }
                }
                if states.len() as u64 > budget {
                    return (false, states.len() as u64);
                }
            }
        }
        (true, states.len() as u64)
    }
}

/// The default budget, then budgets that stop the pass early.
fn budgets() -> [u64; 4] {
    [CertifyOptions::default().global_budget, 50, 1_000, 5_000]
}

/// `machine` against its reduction under each certificate objective, at
/// every budget.
fn check_reductions(machine: &MachineDescription) {
    for (label, objective) in certificate_objectives(machine) {
        let red = rmd_core::try_reduce(machine, objective, &ReduceOptions::default())
            .unwrap_or_else(|e| panic!("{} {label}: {e}", machine.name()));
        for budget in budgets() {
            let options = CertifyOptions {
                global_budget: budget,
                ..CertifyOptions::default()
            };
            let got = certify_pair(machine, &red.reduced, &options)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", machine.name()))
                .global;
            assert_eq!(
                (got.completed, got.product_states),
                oracle::global(machine, &red.reduced, budget),
                "{} {label} at budget {budget}",
                machine.name()
            );
        }
    }
}

#[test]
fn shipped_machines_match_the_oracle() {
    check_reductions(&models::example_machine());
    for file in ["vliw_dsp", "zoo_clustered", "zoo_deep_np", "zoo_wide_issue"] {
        let path = format!("{}/../machines/{file}.mdl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (m, _) = mdl::parse_machine(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        check_reductions(&m);
    }
}

#[test]
fn generated_machines_match_the_oracle() {
    for seed in 0..24 {
        check_reductions(&generate(seed, &GenConfig::small()));
    }
    for seed in 0..4 {
        check_reductions(&generate(seed, &GenConfig::medium()));
    }
}
