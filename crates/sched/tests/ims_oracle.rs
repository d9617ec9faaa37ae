//! The iterative modulo scheduler against the one it replaced.
//!
//! `IterativeModuloScheduler` pops its ready queue from a bitset over
//! nodes ranked once per attempt, and its attempts are generic over the
//! query module. The oracle below is the scheduler before that change:
//! `schedule_inner`, `attempt` and `heights_into` kept verbatim, with a
//! max-heap ready queue, a `queued` flag per node and a
//! `&mut dyn ContentionQuery` module. Only what the crate keeps private
//! is restated here: the scratch fields, and the positive-circuit check
//! that runs before the first attempt.
//!
//! Every field of every result must be equal: times, chosen ops, II,
//! MII, decisions, both reversal counts, attempts, per-attempt ratios
//! and the work counters. The inputs are the paper's 1327-loop suite and
//! seeded random loops, on the original and the reduced cydra5 subset,
//! with the discrete and the widest bitvector representation, with and
//! without the cydra5 alternative groups.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmd_core::{reduce_with_fallback, Objective, ReduceOptions};
use rmd_loops::random::{random_loop, RandomLoopParams};
use rmd_loops::{Loop, OpSet};
use rmd_machine::alternatives::AltGroups;
use rmd_machine::{models, MachineDescription};
use rmd_query::{ModuloMaskCache, WordLayout};
use rmd_sched::{
    mii, DepGraph, ImsConfig, ImsError, ImsResult, IterativeModuloScheduler, Representation,
    SchedScratch,
};

/// The scheduler as it was before the rank-bitset ready queue.
mod oracle {
    use rmd_machine::alternatives::AltGroups;
    use rmd_machine::{MachineDescription, OpId};
    use rmd_query::{
        ContentionQuery, ModuloBitvecModule, ModuloDiscreteModule, ModuloMaskCache, OpInstance,
        WorkCounters,
    };
    use rmd_sched::{DepGraph, ImsConfig, ImsError, ImsResult, NodeId, Representation};
    use std::collections::BinaryHeap;

    /// The fields of the old `SchedScratch` the attempts use.
    #[derive(Default)]
    pub struct Scratch {
        height: Vec<i64>,
        time: Vec<Option<u32>>,
        prev_time: Vec<Option<u32>>,
        node_ops: Vec<OpId>,
        queued: Vec<bool>,
        queue: BinaryHeap<(i64, core::cmp::Reverse<u32>)>,
        evicted: Vec<OpInstance>,
        module: Option<ModuloBitvecModule>,
    }

    struct AttemptOutcome {
        times: Option<(Vec<u32>, Vec<OpId>)>,
        decisions: u64,
        reversed_by_resource: u64,
        reversed_by_dependence: u64,
    }

    #[allow(clippy::too_many_arguments)]
    pub fn schedule_inner(
        config: ImsConfig,
        g: &DepGraph,
        machine: &MachineDescription,
        repr: Representation,
        mii: u32,
        groups: Option<&AltGroups>,
        cache: Option<&mut ModuloMaskCache>,
        scratch: &mut Scratch,
    ) -> Result<ImsResult, ImsError> {
        // A positive circuit of distance-0 edges holds at no II, so no
        // attempt can succeed; worse, an attempt never checks self-edges
        // and would accept a positive distance-0 one.
        if has_unsatisfiable_circuit(g) {
            return Err(ImsError::NoFeasibleIi {
                max_ii: config.max_ii,
            });
        }
        let mut local_cache = None;
        let mut cache = match repr {
            Representation::Discrete => None,
            Representation::Bitvec(layout) => Some(match cache {
                Some(c) => c,
                None => local_cache.insert(ModuloMaskCache::new(machine, layout)),
            }),
        };
        let n = g.num_nodes();
        let budget_total = ((config.budget_ratio * n as f64).ceil() as u64).max(1);

        let mut counters = WorkCounters::new();
        let mut decisions_total = 0u64;
        let mut reversed_by_resource = 0u64;
        let mut reversed_by_dependence = 0u64;
        let mut per_attempt_ratio = Vec::new();
        let mut attempts = 0u32;

        // A caller-supplied MII of 0 is meaningless (an II is at least 1
        // cycle) and would underflow the slot-window arithmetic; clamp
        // rather than panic.
        let mut ii = mii.max(1);
        while ii <= config.max_ii {
            attempts += 1;
            let span = rmd_obs::span_with("sched", "attempt", "ii", u64::from(ii));
            // Per-attempt reservation table. The bitvector path refits
            // the module held in the scratch in place (no boxing, no
            // per-attempt construction); the discrete path builds a
            // fresh module.
            let outcome = match cache.as_deref_mut() {
                None => {
                    let mut module = ModuloDiscreteModule::new(machine, ii);
                    let o = attempt(g, ii, budget_total, &mut module, groups, scratch);
                    counters.merge(module.counters());
                    o
                }
                Some(c) => {
                    let mut slot = scratch.module.take();
                    let module = c.module_reusing(ii, &mut slot);
                    let o = attempt(g, ii, budget_total, module, groups, scratch);
                    counters.merge(module.counters());
                    scratch.module = slot;
                    o
                }
            };
            decisions_total += outcome.decisions;
            reversed_by_resource += outcome.reversed_by_resource;
            reversed_by_dependence += outcome.reversed_by_dependence;
            per_attempt_ratio.push(outcome.decisions as f64 / n as f64);
            drop(span);
            if outcome.reversed_by_resource > 0 {
                rmd_obs::instant_with("sched", "evictions", "count", outcome.reversed_by_resource);
            }
            if outcome.times.is_none() {
                rmd_obs::instant_with("sched", "budget_exhausted", "spent", outcome.decisions);
            }
            if let Some((times, chosen)) = outcome.times {
                return Ok(ImsResult {
                    times,
                    chosen,
                    ii,
                    mii,
                    decisions: decisions_total,
                    reversed_by_resource,
                    reversed_by_dependence,
                    attempts,
                    per_attempt_ratio,
                    counters,
                });
            }
            ii += 1;
        }
        Err(ImsError::NoFeasibleIi {
            max_ii: config.max_ii,
        })
    }

    fn attempt(
        g: &DepGraph,
        ii: u32,
        budget: u64,
        module: &mut dyn ContentionQuery,
        groups: Option<&AltGroups>,
        s: &mut Scratch,
    ) -> AttemptOutcome {
        let n = g.num_nodes();
        heights_into(g, ii, &mut s.height);
        s.time.clear();
        s.time.resize(n, None);
        s.prev_time.clear();
        s.prev_time.resize(n, None);
        s.node_ops.clear();
        s.node_ops.extend(g.nodes().map(|v| g.op(v)));
        // Max-heap on (height, reverse node id) for determinism: unique
        // keys make the pop order independent of insertion order, so
        // reusing the heap's buffer cannot change the schedule.
        s.queue.clear();
        {
            let height = &s.height;
            s.queue.extend(
                g.nodes()
                    .map(|v| (height[v.index()], core::cmp::Reverse(v.0))),
            );
        }
        s.queued.clear();
        s.queued.resize(n, true);

        let mut decisions = 0u64;
        let mut reversed_by_resource = 0u64;
        let mut reversed_by_dependence = 0u64;

        while let Some((_, core::cmp::Reverse(vid))) = s.queue.pop() {
            let v = NodeId(vid);
            if !s.queued[v.index()] {
                continue; // stale entry
            }
            if decisions >= budget {
                return AttemptOutcome {
                    times: None,
                    decisions,
                    reversed_by_resource,
                    reversed_by_dependence,
                };
            }
            s.queued[v.index()] = false;

            // Earliest start from *scheduled* predecessors.
            let mut estart = 0i64;
            for e in g.pred_edges(v) {
                if let Some(tu) = s.time[e.from.index()] {
                    let c =
                        i64::from(tu) + i64::from(e.delay) - i64::from(ii) * i64::from(e.distance);
                    estart = estart.max(c);
                }
            }
            let min_t = estart as u32;

            // Slot search over the one II window min_t..min_t + II,
            // stopping at the first free cycle; with alternatives, any
            // contention-free alternative of the base op wins the slot.
            let base = g.op(v);
            let search_span = rmd_obs::span_with("sched", "find_slot", "min_t", u64::from(min_t));
            let found: Option<(u32, OpId)> = match groups {
                None => module.first_free_in(base, min_t, ii).map(|t| (t, base)),
                Some(gr) => rmd_query::first_free_with_alt(module, gr, base, min_t, ii),
            };
            drop(search_span);
            // Forced placement when the window is full (Rau: estart if
            // never scheduled or estart > prev + 1; else prev + 1); the
            // base operation is forced, evicting whatever holds it.
            let (t, op) = found.unwrap_or_else(|| {
                let t = match s.prev_time[v.index()] {
                    Some(prev) if min_t <= prev + 1 => prev + 1,
                    _ => min_t,
                };
                (t, base)
            });
            s.node_ops[v.index()] = op;

            decisions += 1;
            module.assign_free_into(OpInstance(v.0), op, t, &mut s.evicted);
            s.time[v.index()] = Some(t);
            s.prev_time[v.index()] = Some(t);
            for i in 0..s.evicted.len() {
                let w = NodeId(s.evicted[i].0);
                s.time[w.index()] = None;
                reversed_by_resource += 1;
                if !s.queued[w.index()] {
                    s.queued[w.index()] = true;
                    s.queue.push((s.height[w.index()], core::cmp::Reverse(w.0)));
                }
            }

            // Unschedule successors whose dependence constraints the new
            // placement violates.
            for e in g.succ_edges(v) {
                let w = e.to;
                if w == v {
                    continue;
                }
                if let Some(tw) = s.time[w.index()] {
                    let lb =
                        i64::from(t) + i64::from(e.delay) - i64::from(ii) * i64::from(e.distance);
                    if i64::from(tw) < lb {
                        module.free(OpInstance(w.0), s.node_ops[w.index()], tw);
                        s.time[w.index()] = None;
                        reversed_by_dependence += 1;
                        if !s.queued[w.index()] {
                            s.queued[w.index()] = true;
                            s.queue.push((s.height[w.index()], core::cmp::Reverse(w.0)));
                        }
                    }
                }
            }
        }

        // Queue drained: every node should have a placement. If any is
        // missing the attempt is reported as failed (next II) rather than
        // panicking — an invariant breach must not take the process down.
        let mut times = Vec::new();
        let mut complete = true;
        for t in &s.time {
            match t {
                Some(v) => times.push(*v),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        debug_assert!(complete, "queue drained with unscheduled nodes");
        let times = if complete {
            Some((times, s.node_ops.clone()))
        } else {
            None
        };
        AttemptOutcome {
            times,
            decisions,
            reversed_by_resource,
            reversed_by_dependence,
        }
    }

    /// Height-based priority (Rau's HeightR): the longest dependence path
    /// from each node onward under `w(e) = delay − II · distance`, computed
    /// by relaxation (no positive circuit exists for II ≥ RecMII), written
    /// into a reusable buffer (cleared first).
    fn heights_into(g: &DepGraph, ii: u32, h: &mut Vec<i64>) {
        let n = g.num_nodes();
        h.clear();
        h.resize(n, 0);
        for _ in 0..=n {
            let mut changed = false;
            for e in g.edges() {
                let w = i64::from(e.delay) - i64::from(ii) * i64::from(e.distance);
                let cand = h[e.to.index()] + w;
                if cand > h[e.from.index()] {
                    h[e.from.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Whether some circuit of distance-0 edges has positive total delay.
    fn has_unsatisfiable_circuit(g: &DepGraph) -> bool {
        let sum = g
            .edges()
            .iter()
            .map(|e| i64::from(e.delay.max(0)))
            .sum::<i64>()
            .max(1);
        g.edges().iter().any(|e| e.distance == 0 && e.to <= e.from)
            && has_positive_cycle(g, sum + 1)
    }

    /// Longest-path relaxation: true iff some circuit has positive weight
    /// under `w(e) = delay − ii · distance`.
    fn has_positive_cycle(g: &DepGraph, ii: i64) -> bool {
        let n = g.num_nodes();
        let mut dist = vec![0i64; n];
        for round in 0..=n {
            let mut changed = false;
            for e in g.edges() {
                let w = i64::from(e.delay) - ii * i64::from(e.distance);
                let cand = dist[e.from.index()] + w;
                if cand > dist[e.to.index()] {
                    dist[e.to.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if round == n {
                return true;
            }
        }
        false
    }
}

/// The paper's suite, then seeded random bodies of 2 to 60 operations
/// (the larger ones run out of budget at some IIs).
fn loops(original: &MachineDescription) -> Vec<Loop> {
    let ops = OpSet::for_cydra_subset(original);
    let mut loops = rmd_loops::suite(&ops, 1327, 0xC5);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..12 {
            let params = RandomLoopParams {
                size: rng.gen_range(2..61),
            };
            loops.push(Loop {
                name: format!("seed {seed} loop {i}"),
                graph: random_loop(&ops, &mut rng, params),
            });
        }
    }
    loops
}

/// Asserts that two outcomes agree in every field.
fn assert_same(got: &Result<ImsResult, ImsError>, want: &Result<ImsResult, ImsError>, ctx: &str) {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.times, b.times, "times: {ctx}");
            assert_eq!(a.chosen, b.chosen, "chosen: {ctx}");
            assert_eq!(a.ii, b.ii, "ii: {ctx}");
            assert_eq!(a.mii, b.mii, "mii: {ctx}");
            assert_eq!(a.decisions, b.decisions, "decisions: {ctx}");
            assert_eq!(
                a.reversed_by_resource, b.reversed_by_resource,
                "reversed_by_resource: {ctx}"
            );
            assert_eq!(
                a.reversed_by_dependence, b.reversed_by_dependence,
                "reversed_by_dependence: {ctx}"
            );
            assert_eq!(a.attempts, b.attempts, "attempts: {ctx}");
            assert_eq!(a.per_attempt_ratio, b.per_attempt_ratio, "ratios: {ctx}");
            assert_eq!(a.counters, b.counters, "counters: {ctx}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "error: {ctx}"),
        _ => panic!("one side failed: {ctx}: {got:?} vs {want:?}"),
    }
}

/// Schedules every loop on `machine` in one representation, through the
/// entry point each configuration uses in the tree, and through the
/// oracle. Returns how many loops needed more than one attempt.
fn compare_on(
    machine: &MachineDescription,
    original: &MachineDescription,
    loops: &[Loop],
    repr: Representation,
    groups: Option<&AltGroups>,
    label: &str,
) -> usize {
    let config = ImsConfig::default();
    let ims = IterativeModuloScheduler::new(config);
    let layout = WordLayout::widest(64, machine.num_resources());
    // The steady-state path: one cache and one scratch for every loop,
    // on both sides.
    let mut cache = ModuloMaskCache::new(machine, layout);
    let mut scratch = SchedScratch::new();
    let mut oracle_cache = ModuloMaskCache::new(machine, layout);
    let mut oracle_scratch = oracle::Scratch::default();
    let mut retried = 0;
    for l in loops {
        let g: &DepGraph = &l.graph;
        let m = mii::mii(g, original);
        let (got, want) = match (repr, groups) {
            (_, Some(gr)) => (
                ims.schedule_with_alternatives(g, machine, gr, repr, m),
                oracle::schedule_inner(
                    config,
                    g,
                    machine,
                    repr,
                    m,
                    Some(gr),
                    None,
                    &mut oracle::Scratch::default(),
                ),
            ),
            (Representation::Discrete, None) => (
                ims.schedule_with_mii(g, machine, repr, m),
                oracle::schedule_inner(
                    config,
                    g,
                    machine,
                    repr,
                    m,
                    None,
                    None,
                    &mut oracle::Scratch::default(),
                ),
            ),
            (Representation::Bitvec(_), None) => (
                ims.schedule_with_mii_cached_scratch(g, machine, repr, m, &mut cache, &mut scratch),
                oracle::schedule_inner(
                    config,
                    g,
                    machine,
                    repr,
                    m,
                    None,
                    Some(&mut oracle_cache),
                    &mut oracle_scratch,
                ),
            ),
        };
        assert_same(&got, &want, &format!("{label}, {}", l.name));
        if matches!(&want, Ok(r) if r.attempts > 1) {
            retried += 1;
        }
        if let Ok(r) = got {
            scratch.recycle(r);
        }
    }
    retried
}

fn machines() -> (MachineDescription, MachineDescription) {
    let original = models::cydra5_subset();
    let k = WordLayout::widest(64, original.num_resources()).k;
    let reduced = reduce_with_fallback(
        &original,
        Objective::KCycleWord { k },
        &ReduceOptions::default(),
    )
    .machine;
    assert!(reduced.num_resources() < original.num_resources());
    (original, reduced)
}

#[test]
fn ims_matches_the_heap_scheduler_on_the_suite() {
    let (original, reduced) = machines();
    let loops = loops(&original);
    for (name, machine) in [("original", &original), ("reduced", &reduced)] {
        let widest = Representation::Bitvec(WordLayout::widest(64, machine.num_resources()));
        for repr in [Representation::Discrete, widest] {
            let label = format!("{name}, {repr:?}");
            let retried = compare_on(machine, &original, &loops, repr, None, &label);
            // Budget exhaustion and II escalation are exercised too.
            assert!(retried > 0, "{label}: no loop needed a second attempt");
        }
    }
}

#[test]
fn ims_matches_the_heap_scheduler_with_alternatives() {
    let (original, reduced) = machines();
    let loops = loops(&original);
    for (name, machine) in [("original", &original), ("reduced", &reduced)] {
        let groups = models::cydra5_alt_groups(machine);
        let widest = Representation::Bitvec(WordLayout::widest(64, machine.num_resources()));
        for repr in [Representation::Discrete, widest] {
            let label = format!("{name}, {repr:?}, alternatives");
            compare_on(machine, &original, &loops, repr, Some(&groups), &label);
        }
    }
}
