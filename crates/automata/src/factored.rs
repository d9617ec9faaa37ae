//! Factored automata: intersection of smaller automata over a resource
//! partition (Müller; Bala & Rubin).

use crate::automaton::{Automaton, BuildError, Direction, StateId};
use rmd_machine::{MachineDescription, OpId};

/// Partitions a machine's resources into at most `target_groups` groups,
/// trying to keep resources that appear in the same reservation tables
/// together only when necessary and otherwise separating independent
/// functional units — the factoring that makes per-factor automata small.
///
/// The heuristic: resources are first grouped by connected components of
/// the "used by a common operation" relation; if fewer components than
/// requested, the largest components are split by balanced round-robin
/// over their resources (correctness does not depend on the split — a
/// placement is legal iff *every* factor accepts, whatever the partition).
pub fn partition_resources(m: &MachineDescription, target_groups: usize) -> Vec<Vec<bool>> {
    let nr = m.num_resources();
    // Union-find over resources.
    let mut parent: Vec<usize> = (0..nr).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for op in m.operations() {
        let rs: Vec<usize> = op.table().resources().map(|r| r.index()).collect();
        for w in rs.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut comps: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for r in 0..nr {
        let root = find(&mut parent, r);
        comps.entry(root).or_default().push(r);
    }
    let mut groups: Vec<Vec<usize>> = comps.into_values().collect();
    groups.sort_by_key(|g| (usize::MAX - g.len(), g[0]));

    // Merge down or split up toward target_groups.
    while groups.len() > target_groups && groups.len() > 1 {
        // Merge the two smallest.
        let a = groups.pop().expect("len > 1");
        groups.last_mut().expect("len >= 1").extend(a);
    }
    while groups.len() < target_groups {
        // Split the largest in two (round-robin keeps usage balanced).
        groups.sort_by_key(|g| usize::MAX - g.len());
        let big = groups.remove(0);
        if big.len() < 2 {
            groups.insert(0, big);
            break;
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (i, r) in big.into_iter().enumerate() {
            if i % 2 == 0 {
                a.push(r);
            } else {
                b.push(r);
            }
        }
        groups.push(a);
        groups.push(b);
    }

    groups
        .into_iter()
        .map(|g| {
            let mut keep = vec![false; nr];
            for r in g {
                keep[r] = true;
            }
            keep
        })
        .collect()
}

/// A conjunction of automata over disjoint resource subsets: an issue is
/// legal iff every factor accepts it. Smaller per-factor state counts
/// trade against one lookup per factor per query (the paper's §2 size
/// discussion).
#[derive(Clone, Debug)]
pub struct FactoredAutomata {
    factors: Vec<Automaton>,
}

impl FactoredAutomata {
    /// Builds one automaton per group of `partition` (as produced by
    /// [`partition_resources`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from any factor.
    pub fn build(
        m: &MachineDescription,
        direction: Direction,
        partition: &[Vec<bool>],
        max_states_per_factor: usize,
    ) -> Result<Self, BuildError> {
        let factors = partition
            .iter()
            .map(|keep| {
                Automaton::build_restricted(m, direction, max_states_per_factor, Some(keep))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FactoredAutomata { factors })
    }

    /// The factor automata.
    pub fn factors(&self) -> &[Automaton] {
        &self.factors
    }

    /// Per-factor state counts.
    pub fn state_counts(&self) -> Vec<usize> {
        self.factors.iter().map(Automaton::num_states).collect()
    }

    /// The start state vector.
    pub fn start(&self) -> Vec<StateId> {
        self.factors.iter().map(Automaton::start).collect()
    }

    /// Whether `op` can issue now — one lookup per factor.
    pub fn can_issue(&self, states: &[StateId], op: OpId) -> bool {
        self.factors
            .iter()
            .zip(states)
            .all(|(f, &s)| f.can_issue(s, op))
    }

    /// Issues `op`, returning the successor state vector; `None` if any
    /// factor rejects.
    pub fn issue(&self, states: &[StateId], op: OpId) -> Option<Vec<StateId>> {
        let mut out = Vec::with_capacity(states.len());
        for (f, &s) in self.factors.iter().zip(states) {
            out.push(f.issue(s, op)?);
        }
        Some(out)
    }

    /// Advances every factor one cycle.
    pub fn advance(&self, states: &[StateId]) -> Vec<StateId> {
        self.factors
            .iter()
            .zip(states)
            .map(|(f, &s)| f.advance(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::{alpha21064, example_machine};

    #[test]
    fn partition_covers_all_resources_exactly_once() {
        let m = alpha21064();
        for g in [1usize, 2, 4] {
            let p = partition_resources(&m, g);
            assert!(!p.is_empty() && p.len() <= g.max(1));
            let mut seen = vec![0; m.num_resources()];
            for keep in &p {
                for (r, &k) in keep.iter().enumerate() {
                    if k {
                        seen[r] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "groups={g}: {seen:?}");
        }
    }

    #[test]
    fn factored_agrees_with_monolithic() {
        let m = example_machine();
        let mono = Automaton::build(&m, Direction::Forward, 1 << 20).unwrap();
        let p = partition_resources(&m, 2);
        let fact = FactoredAutomata::build(&m, Direction::Forward, &p, 1 << 20).unwrap();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();

        // Drive both through the same issue/advance script and compare
        // every can_issue answer.
        let script: &[(bool, OpId)] = &[
            (true, b),
            (false, a),
            (true, a),
            (false, b),
            (false, a),
            (true, b),
            (false, a),
        ];
        let mut ms = mono.start();
        let mut fs = fact.start();
        for &(advance, op) in script {
            if advance {
                ms = mono.advance(ms);
                fs = fact.advance(&fs);
            }
            assert_eq!(mono.can_issue(ms, op), fact.can_issue(&fs, op));
            if let Some(next) = mono.issue(ms, op) {
                ms = next;
                fs = fact.issue(&fs, op).expect("factored must accept too");
            }
        }
    }

    #[test]
    fn factoring_makes_the_alpha_buildable() {
        // The monolithic Alpha 21064 automaton blows past 100k states
        // (the paper's §2 size concern); the 2-way factored pair fits
        // comfortably — which is why Bala & Rubin factored this machine.
        let m = alpha21064();
        let mono = Automaton::build(&m, Direction::Forward, 100_000);
        assert!(
            matches!(
                mono,
                Err(crate::automaton::BuildError::TooManyStates { .. })
            ),
            "expected blow-up, got {:?} states",
            mono.map(|a| a.num_states())
        );
        let p = partition_resources(&m, 2);
        let fact = FactoredAutomata::build(&m, Direction::Forward, &p, 100_000).unwrap();
        assert!(fact.state_counts().iter().all(|&c| c <= 100_000));
        assert_eq!(fact.factors().len(), 2);
    }
}
