//! The certifier's linear pass against a reference oracle.
//!
//! `rmd_certify`'s first pass interns every pair's product states in one
//! `StateArena` that all the pairs of a `certify_pair` call share. The
//! oracle below is the pass it replaced, kept verbatim: a SipHash
//! `HashMap` index and two `Vec`s per pair. Both must agree on the
//! pass's counts (`pairs`, `pair_product_states`, `max_pair_states`)
//! and on where a state budget stops it. On inequivalent mutants both
//! must return the same counterexample (kind, placements, probe and
//! both answers), so a search whose order reaches a different first
//! divergence fails here.

use rmd_certify::{
    certificate_objectives, certify_pair, CertifyFailure, CertifyOptions, ConflictVectors,
};
use rmd_core::ReduceOptions;
use rmd_fault::{generate, mutate, GenConfig, MutantPayload, ALL_OPERATORS};
use rmd_machine::{mdl, models, MachineDescription};

/// The linear pass as it was before the shared state arena.
mod oracle {
    use rmd_certify::{
        CertifyError, CertifyFailure, CertifyOptions, CexKind, ConflictVectors, Counterexample,
    };
    use rmd_machine::{MachineDescription, OpId};
    use std::collections::HashMap;

    /// `(pairs, pair_product_states, max_pair_states)` of the linear
    /// pass over every unordered operation pair, as `certify_pair` runs
    /// it, or the pass's first failure.
    pub fn linear(
        left: &MachineDescription,
        right: &MachineDescription,
        options: &CertifyOptions,
    ) -> Result<(u64, u64, u64), CertifyFailure> {
        let a = ConflictVectors::compute(left).map_err(CertifyFailure::Error)?;
        let b = ConflictVectors::compute(right).map_err(CertifyFailure::Error)?;
        let n = a.num_ops();
        let (mut pairs, mut total, mut max) = (0, 0, 0);
        for x in 0..n {
            for y in x..n {
                let states = certify_pair_linear(
                    &a,
                    &b,
                    x,
                    y,
                    rmd_certify::ISSUE_CAP,
                    options.pair_state_cap,
                )?;
                pairs += 1;
                total += states;
                max = u64::max(max, states);
            }
        }
        Ok((pairs, total, max))
    }

    /// How a product state was reached from its parent.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Step {
        Root,
        Advance,
        /// Issue candidate 0 (`x`) or 1 (`y`).
        Issue(u8),
    }

    /// One product state: the conflict masks of both candidates on both
    /// machines — `(a_x, a_y, b_x, b_y)` — plus the number of placements
    /// already made on the path that reached it.
    ///
    /// The placement count is part of the state because exploration is
    /// bounded by it. The bound loses nothing: a candidate's mask is the OR
    /// of one shifted conflict vector per placement, so the two machines
    /// disagree on some multi-placement state iff they disagree on some
    /// *single*-placement state (project the divergent OR bit to the one
    /// placement that contributes it — legal alone by monotonicity). The
    /// certifier explores up to `issue_cap ≥ 2` placements anyway, one more
    /// than a minimal witness needs, as redundancy against that very lemma.
    type PairState = ([u128; 4], u8);

    /// Exhaustively explore the product of the two conflict-mask systems
    /// for candidates `x` and `y` (possibly equal), checking contention
    /// bisimulation at every reachable state (up to `issue_cap` placements
    /// per path — complete; see [`PairState`]).
    ///
    /// Returns the number of reachable product states, or the first
    /// mismatch as a counterexample, or a budget error if the state count
    /// exceeds `max_states` (which indicates a pathological description,
    /// not a proof failure — the caller reports it as such).
    fn certify_pair_linear(
        a: &ConflictVectors,
        b: &ConflictVectors,
        x: usize,
        y: usize,
        issue_cap: u8,
        max_states: u64,
    ) -> Result<u64, CertifyFailure> {
        let start: PairState = ([0, 0, 0, 0], 0);
        let mut ids: HashMap<PairState, u32> = HashMap::new();
        let mut states: Vec<PairState> = Vec::new();
        let mut parents: Vec<(u32, Step)> = Vec::new();
        ids.insert(start, 0);
        states.push(start);
        parents.push((0, Step::Root));

        // Ids are handed out in discovery order and only fresh states are
        // expanded, so visiting ids in order is breadth-first.
        let mut id = 0u32;
        while (id as usize) < states.len() {
            let (s, issued) = states[id as usize];
            // Contention bisimulation: both machines must admit exactly
            // the same candidates in this state.
            for (slot, op) in [(0usize, x), (1usize, y)] {
                if slot == 1 && y == x {
                    break;
                }
                let left = s[slot] & 1 == 0;
                let right = s[2 + slot] & 1 == 0;
                if left != right {
                    return Err(CertifyFailure::Mismatch(Box::new(build_cex(
                        &states, &parents, id, x, y, op, left, right,
                    ))));
                }
            }
            // Expand: one cycle of time, then each both-sides-legal issue.
            let mut push = |next: PairState, step: Step| {
                let n = ids.len() as u32;
                if *ids.entry(next).or_insert(n) == n {
                    states.push(next);
                    parents.push((id, step));
                }
            };
            // Once every mask is empty, further advances revisit the
            // start of an already-explored suffix — don't re-enqueue.
            if s != [0, 0, 0, 0] {
                push(
                    ([s[0] >> 1, s[1] >> 1, s[2] >> 1, s[3] >> 1], issued),
                    Step::Advance,
                );
            }
            for (slot, op) in [(0usize, x), (1usize, y)] {
                if slot == 1 && y == x {
                    break;
                }
                if issued >= issue_cap || s[slot] & 1 != 0 {
                    continue; // bisimulation above guarantees both agree
                }
                let next = [
                    s[0] | a.get(op, x),
                    s[1] | a.get(op, y),
                    s[2] | b.get(op, x),
                    s[3] | b.get(op, y),
                ];
                push((next, issued + 1), Step::Issue(slot as u8));
            }
            if states.len() as u64 > max_states {
                return Err(CertifyFailure::Error(CertifyError::StateBudget {
                    pair: (x, y),
                    budget: max_states,
                }));
            }
            id += 1;
        }
        Ok(states.len() as u64)
    }

    /// Reconstruct the issue/advance path from the root to `id` and convert
    /// it into placements at absolute cycles plus the divergent probe.
    #[allow(clippy::too_many_arguments)]
    fn build_cex(
        states: &[PairState],
        parents: &[(u32, Step)],
        id: u32,
        x: usize,
        y: usize,
        probe_op: usize,
        left: bool,
        right: bool,
    ) -> Counterexample {
        let mut path = Vec::new();
        let mut cur = id;
        loop {
            let (parent, step) = parents[cur as usize];
            if matches!(step, Step::Root) {
                break;
            }
            path.push(step);
            cur = parent;
        }
        path.reverse();
        debug_assert_eq!(states[0], ([0, 0, 0, 0], 0));
        let mut cycle = 0u32;
        let mut places = Vec::new();
        for step in path {
            match step {
                Step::Root => unreachable!("root is never recorded as a step"),
                Step::Advance => cycle += 1,
                Step::Issue(slot) => {
                    let op = if slot == 0 { x } else { y };
                    places.push((OpId(op as u32), cycle));
                }
            }
        }
        Counterexample {
            kind: CexKind::Linear,
            places,
            probe: (OpId(probe_op as u32), cycle),
            left_admits: left,
            right_admits: right,
        }
    }
}

/// Options under which the global pass, the costliest after the linear
/// one, stops at its first expansion.
fn cheap() -> CertifyOptions {
    CertifyOptions {
        global_budget: 0,
        ..CertifyOptions::default()
    }
}

/// `certify_pair` against the oracle on `left` and `right`: the same
/// linear-pass counts when the oracle passes, the same counterexample
/// when it finds one. Returns whether it found one.
fn check_pair(left: &MachineDescription, right: &MachineDescription, what: &str) -> bool {
    match (
        oracle::linear(left, right, &cheap()),
        certify_pair(left, right, &cheap()),
    ) {
        (Ok(want), Ok(got)) => {
            assert_eq!(
                (got.pairs, got.pair_product_states, got.max_pair_states),
                want,
                "{what}"
            );
            false
        }
        (Err(CertifyFailure::Mismatch(want)), Err(CertifyFailure::Mismatch(got))) => {
            assert_eq!(got, want, "{what}");
            true
        }
        (want, got) => panic!("{what}: oracle {want:?}, certify_pair {got:?}"),
    }
}

/// `machine` against its reduction under each certificate objective.
fn check_reductions(machine: &MachineDescription) {
    for (label, objective) in certificate_objectives(machine) {
        let red = rmd_core::try_reduce(machine, objective, &ReduceOptions::default())
            .unwrap_or_else(|e| panic!("{} {label}: {e}", machine.name()));
        let what = format!("{} {label}", machine.name());
        assert!(
            !check_pair(machine, &red.reduced, &what),
            "{what}: reduction refuted"
        );
    }
}

/// The nine shipped machines: the built-in `fig1` and every other
/// `machines/*.mdl` file.
fn shipped() -> Vec<MachineDescription> {
    let mut machines = vec![models::example_machine()];
    for file in [
        "alpha21064",
        "cydra5",
        "cydra5_subset",
        "mips_r3000",
        "vliw_dsp",
        "zoo_clustered",
        "zoo_deep_np",
        "zoo_wide_issue",
    ] {
        let path = format!("{}/../machines/{file}.mdl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (m, _) = mdl::parse_machine(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        machines.push(m);
    }
    machines
}

#[test]
fn shipped_machines_match_the_oracle() {
    for machine in shipped() {
        check_reductions(&machine);
    }
}

/// Small machines whose units stay busy for up to 100 cycles, so
/// conflict vectors set bits past the low 64 of their `u128`.
fn deep() -> GenConfig {
    GenConfig {
        max_depth: 100,
        ..GenConfig::small()
    }
}

/// Whether some conflict vector of `m` sets a bit past the low 64.
fn reaches_high_half(m: &MachineDescription) -> bool {
    let cv = ConflictVectors::compute(m).expect("spans fit");
    let n = cv.num_ops();
    (0..n * n).any(|i| cv.get(i / n, i % n) >> 64 != 0)
}

#[test]
fn generated_machines_match_the_oracle() {
    for seed in 0..24 {
        check_reductions(&generate(seed, &GenConfig::small()));
    }
    for seed in 0..4 {
        check_reductions(&generate(seed, &GenConfig::medium()));
    }
    let deep: Vec<_> = (0..16).map(|seed| generate(seed, &deep())).collect();
    assert!(deep.iter().any(reaches_high_half));
    for m in &deep {
        check_reductions(m);
    }
}

/// Every description mutant of the shipped and of generated machines:
/// an inequivalent one must be refuted with the oracle's
/// counterexample, an equivalent one certified with its counts.
#[test]
fn mutants_yield_the_oracle_counterexample() {
    let mut machines = shipped();
    machines.extend((0..8).map(|seed| generate(seed, &GenConfig::small())));
    machines.extend((0..10).map(|seed| generate(seed, &deep())));
    let mut refuted = 0;
    for machine in &machines {
        for op in ALL_OPERATORS {
            for seed in 0..3 {
                let Some(mu) = mutate(machine, op, seed) else {
                    continue;
                };
                let suspect = match mu.payload {
                    MutantPayload::Machine(m) | MutantPayload::ReducedMachine(m) => m,
                    MutantPayload::QueryWord { .. } => continue,
                };
                let what = format!("{} {op}:{seed} ({})", machine.name(), mu.what);
                refuted += usize::from(check_pair(machine, &suspect, &what));
            }
        }
    }
    assert!(refuted >= 200, "only {refuted} mutants refuted");
}

/// A per-pair state cap stops both at the same pair.
#[test]
fn state_budget_stops_at_the_oracle_pair() {
    let m = models::mips_r3000();
    for cap in [1, 10, 100] {
        let options = CertifyOptions {
            pair_state_cap: cap,
            ..cheap()
        };
        match (
            oracle::linear(&m, &m, &options),
            certify_pair(&m, &m, &options),
        ) {
            (Err(CertifyFailure::Error(want)), Err(CertifyFailure::Error(got))) => {
                assert_eq!(got, want, "cap {cap}");
            }
            (want, got) => panic!("cap {cap}: oracle {want:?}, certify_pair {got:?}"),
        }
    }
}
