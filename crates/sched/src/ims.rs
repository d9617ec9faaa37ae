//! Rau's Iterative Modulo Scheduler (MICRO-27, 1994) — the paper's §8
//! evaluation harness.

use crate::graph::{DepGraph, Edge, NodeId};
use crate::mii;
use crate::scratch::SchedScratch;
use core::fmt;
use rmd_machine::alternatives::AltGroups;
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{
    ContentionQuery, ModuloDiscreteModule, ModuloMaskCache, OpInstance, WordLayout, WorkCounters,
};

/// Which internal representation the contention query module uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Representation {
    /// Discrete reserved table with owner fields.
    Discrete,
    /// Bitvector reserved table with the given word layout.
    Bitvec(WordLayout),
}

/// Scheduler configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ImsConfig {
    /// Budget of scheduling decisions per attempt, as a multiple of the
    /// number of operations (the paper uses 6N, and reports 2N for
    /// comparison).
    pub budget_ratio: f64,
    /// Give up if no schedule is found at II ≤ `max_ii`.
    pub max_ii: u32,
}

impl Default for ImsConfig {
    fn default() -> Self {
        ImsConfig {
            budget_ratio: 6.0,
            max_ii: 4096,
        }
    }
}

/// Why scheduling failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImsError {
    /// Budget exhausted at every II up to the configured maximum.
    NoFeasibleIi {
        /// The maximum II tried.
        max_ii: u32,
    },
}

impl fmt::Display for ImsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImsError::NoFeasibleIi { max_ii } => {
                write!(f, "no modulo schedule found for any II ≤ {max_ii}")
            }
        }
    }
}

impl std::error::Error for ImsError {}

/// A successful modulo schedule plus the statistics the paper reports
/// (Tables 5 and 6).
#[derive(Clone, Debug)]
pub struct ImsResult {
    /// Issue time per node (within the flat iteration timeline; reduce
    /// mod [`ii`](Self::ii) for the kernel slot).
    pub times: Vec<u32>,
    /// The operation actually placed per node — differs from the graph's
    /// base operation when alternatives were in play
    /// (see [`IterativeModuloScheduler::schedule_with_alternatives`]).
    pub chosen: Vec<OpId>,
    /// Achieved initiation interval.
    pub ii: u32,
    /// The lower bound `max(ResMII, RecMII)`.
    pub mii: u32,
    /// Total scheduling decisions (placements) over all attempts.
    pub decisions: u64,
    /// Scheduling decisions reversed because of resource contentions
    /// (evictions by `assign&free`).
    pub reversed_by_resource: u64,
    /// Scheduling decisions reversed because a dependence constraint was
    /// violated by a forced placement.
    pub reversed_by_dependence: u64,
    /// Number of scheduling attempts (II values tried). An II at which
    /// some node's base operation does not fit is skipped, not tried.
    pub attempts: u32,
    /// `decisions / N` for each attempt, including failed ones — the
    /// paper's Table 5 "sched. decisions / operation" statistic.
    pub per_attempt_ratio: Vec<f64>,
    /// Query-module work counters merged over all attempts.
    pub counters: WorkCounters,
}

impl ImsResult {
    /// `II / MII` — 1.0 means a provably optimal-throughput schedule.
    pub fn ii_ratio(&self) -> f64 {
        f64::from(self.ii) / f64::from(self.mii)
    }
}

/// The Iterative Modulo Scheduler: height-based priority, a slot search
/// over one II window, forced placement with `assign&free` eviction when
/// the window is full, and a bounded budget of decisions per II.
///
/// This is an *unrestricted* scheduler in the paper's sense: operations
/// are processed in priority (not cycle) order, and prior placements are
/// reversed both by resource eviction and by dependence violation.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterativeModuloScheduler {
    config: ImsConfig,
}

impl IterativeModuloScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: ImsConfig) -> Self {
        IterativeModuloScheduler { config }
    }

    /// Schedules `g` on `machine` (original or reduced — they produce
    /// identical schedules, which is the point of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ImsError::NoFeasibleIi`] if the budget is exhausted at
    /// every II up to `config.max_ii`. It is returned before any attempt
    /// if a circuit of distance-0 edges has positive total delay, or a
    /// path of them is longer than `u32::MAX` cycles, since no II
    /// satisfies the one or gives the other's last op a start time. An
    /// attempt that would place an op past `u32::MAX` fails like one
    /// whose budget ran out.
    pub fn schedule(
        &self,
        g: &DepGraph,
        machine: &MachineDescription,
        repr: Representation,
    ) -> Result<ImsResult, ImsError> {
        self.schedule_with_mii(g, machine, repr, mii::mii(g, machine))
    }

    /// Like [`schedule`](Self::schedule), but starting the II search at a
    /// caller-supplied MII. Used to compare machine descriptions: the
    /// MII computed from the *original* description keeps the search
    /// trajectory — and therefore the resulting schedule — identical when
    /// querying against a *reduced* description (the paper's "precisely
    /// the same schedules were produced regardless of the machine
    /// description" check).
    pub fn schedule_with_mii(
        &self,
        g: &DepGraph,
        machine: &MachineDescription,
        repr: Representation,
        mii: u32,
    ) -> Result<ImsResult, ImsError> {
        self.schedule_inner(g, machine, repr, mii, None, None, &mut SchedScratch::new())
    }

    /// The steady-state entry point of the suite runner and the serve
    /// daemon: [`schedule_with_mii`](Self::schedule_with_mii) drawing
    /// bitvector reservation tables from `cache` and working buffers
    /// (the reservation-table module included) from `scratch`. A suite
    /// run schedules many loops against one machine, and IIs repeat
    /// heavily across loops, so the cache turns per-attempt mask
    /// expansion into a lookup, and a warm scratch/cache pair schedules
    /// a previously seen loop shape with zero heap allocations.
    /// Schedules, statistics, and work counters are byte-identical to
    /// [`schedule_with_mii`](Self::schedule_with_mii) — the cache only
    /// changes *when* masks are built, never what they contain (mask
    /// expansion was never charged to [`WorkCounters`]).
    ///
    /// The cache must have been created for the same machine this call
    /// schedules against; with [`Representation::Discrete`] it is
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ImsError::NoFeasibleIi`] as for
    /// [`schedule`](Self::schedule).
    ///
    /// # Panics
    ///
    /// Panics if `repr` is a bitvector layout different from the
    /// cache's.
    pub fn schedule_with_mii_cached_scratch(
        &self,
        g: &DepGraph,
        machine: &MachineDescription,
        repr: Representation,
        mii: u32,
        cache: &mut ModuloMaskCache,
        scratch: &mut SchedScratch,
    ) -> Result<ImsResult, ImsError> {
        if let Representation::Bitvec(layout) = repr {
            assert_eq!(
                layout,
                cache.layout(),
                "mask cache was built for a different word layout"
            );
        }
        self.schedule_inner(g, machine, repr, mii, None, Some(cache), scratch)
    }

    /// Like [`schedule_with_mii`](Self::schedule_with_mii), additionally
    /// resolving each node's operation through its alternatives
    /// (paper §7's `check-with-alt`): the slot search tries the base
    /// operation first and falls through to any contention-free
    /// alternative, so e.g. generic loads spread across the Cydra's two
    /// memory ports automatically. The chosen alternatives are reported
    /// in [`ImsResult::chosen`].
    ///
    /// # Errors
    ///
    /// Returns [`ImsError::NoFeasibleIi`] as for
    /// [`schedule`](Self::schedule).
    pub fn schedule_with_alternatives(
        &self,
        g: &DepGraph,
        machine: &MachineDescription,
        groups: &AltGroups,
        repr: Representation,
        mii: u32,
    ) -> Result<ImsResult, ImsError> {
        let mut scratch = SchedScratch::new();
        self.schedule_inner(g, machine, repr, mii, Some(groups), None, &mut scratch)
    }

    /// The one II search behind every entry point. A bitvector call
    /// without a caller-owned `cache` builds one local to the call, so
    /// every bitvector attempt draws its module from
    /// [`ModuloMaskCache::module_reusing`].
    #[allow(clippy::too_many_arguments)]
    fn schedule_inner(
        &self,
        g: &DepGraph,
        machine: &MachineDescription,
        repr: Representation,
        mii: u32,
        groups: Option<&AltGroups>,
        cache: Option<&mut ModuloMaskCache>,
        scratch: &mut SchedScratch,
    ) -> Result<ImsResult, ImsError> {
        // A positive circuit of distance-0 edges holds at no II, so no
        // attempt can succeed; worse, an attempt never checks self-edges
        // and would accept a positive distance-0 one. A distance-0 path
        // longer than `u32::MAX` cycles fails every attempt as well.
        if mii::has_unsatisfiable_circuit(g) || mii::has_overlong_chain(g) {
            return Err(ImsError::NoFeasibleIi {
                max_ii: self.config.max_ii,
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
        let budget_total = ((self.config.budget_ratio * n as f64).ceil() as u64).max(1);

        let mut counters = WorkCounters::new();
        let mut decisions_total = 0u64;
        let mut reversed_by_resource = 0u64;
        let mut reversed_by_dependence = 0u64;
        scratch.ratios.clear();
        let mut attempts = 0u32;

        // A caller-supplied MII of 0 is meaningless (an II is at least 1
        // cycle) and would underflow the slot-window arithmetic; clamp
        // rather than panic.
        let mut ii = mii.max(1);
        while ii <= self.config.max_ii {
            // Per-attempt reservation table. The bitvector path refits
            // the module held in the scratch in place (no boxing, no
            // per-attempt construction); the discrete path builds a
            // fresh module. An II at which some node's base op does not
            // fit is skipped without an attempt: no slot is legal for
            // that op, and a forced placement would be invalid. Fit is
            // not monotone in II, so this happens above the MII too.
            let outcome = match cache.as_deref_mut() {
                None => {
                    let mut module = ModuloDiscreteModule::new(machine, ii);
                    let fits = g.nodes().all(|v| module.fits(g.op(v)));
                    let o = fits
                        .then(|| self.attempt(g, ii, budget_total, &mut module, groups, scratch));
                    counters.merge(module.counters());
                    o
                }
                Some(c) => {
                    let mut slot = scratch.module.take();
                    let module = c.module_reusing(ii, &mut slot);
                    let fits = g.nodes().all(|v| module.fits(g.op(v)));
                    let o =
                        fits.then(|| self.attempt(g, ii, budget_total, module, groups, scratch));
                    counters.merge(module.counters());
                    scratch.module = slot;
                    o
                }
            };
            let Some(outcome) = outcome else {
                ii += 1;
                continue;
            };
            attempts += 1;
            decisions_total += outcome.decisions;
            reversed_by_resource += outcome.reversed_by_resource;
            reversed_by_dependence += outcome.reversed_by_dependence;
            scratch.ratios.push(outcome.decisions as f64 / n as f64);
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
                    per_attempt_ratio: scratch.copy_ratios(),
                    counters,
                });
            }
            ii += 1;
        }
        Err(ImsError::NoFeasibleIi {
            max_ii: self.config.max_ii,
        })
    }

    fn attempt<Q: ContentionQuery + ?Sized>(
        &self,
        g: &DepGraph,
        ii: u32,
        budget: u64,
        module: &mut Q,
        groups: Option<&AltGroups>,
        s: &mut SchedScratch,
    ) -> AttemptOutcome {
        let _span = rmd_obs::span_with("sched", "attempt", "ii", u64::from(ii));
        let n = g.num_nodes();
        heights_into(g, ii, &mut s.height);
        s.time.clear();
        s.time.resize(n, None);
        s.prev_time.clear();
        s.prev_time.resize(n, None);
        s.node_ops.clear();
        s.node_ops.extend(g.nodes().map(|v| g.op(v)));
        s.ready.fill(&s.height);

        let mut out = AttemptOutcome {
            times: None,
            decisions: 0,
            reversed_by_resource: 0,
            reversed_by_dependence: 0,
        };
        while let Some(vid) = s.ready.pop() {
            let v = NodeId(vid);
            if out.decisions >= budget {
                return out;
            }

            // Earliest start from *scheduled* predecessors.
            let mut estart = 0i64;
            for e in g.pred_edges(v) {
                if let Some(tu) = s.time[e.from.index()] {
                    let c =
                        i64::from(tu) + i64::from(e.delay) - i64::from(ii) * i64::from(e.distance);
                    estart = estart.max(c);
                }
            }
            // A start past the last `u32` cycle fails the attempt
            // rather than wrap. Window cycles past it read as busy.
            let Ok(min_t) = u32::try_from(estart) else {
                return out;
            };

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
            let (t, op) = match found {
                Some(placed) => placed,
                None => {
                    let forced = match s.prev_time[v.index()] {
                        Some(prev) if min_t <= prev.saturating_add(1) => prev.checked_add(1),
                        _ => Some(min_t),
                    };
                    // Forcing past the last `u32` cycle fails it too.
                    let Some(t) = forced else {
                        return out;
                    };
                    (t, base)
                }
            };
            s.node_ops[v.index()] = op;

            out.decisions += 1;
            module.assign_free_into(OpInstance(v.0), op, t, &mut s.evicted);
            s.time[v.index()] = Some(t);
            s.prev_time[v.index()] = Some(t);
            for i in 0..s.evicted.len() {
                let w = s.evicted[i].0;
                s.time[w as usize] = None;
                out.reversed_by_resource += 1;
                s.ready.push(w);
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
                        out.reversed_by_dependence += 1;
                        s.ready.push(w.0);
                    }
                }
            }
        }

        // Queue drained: every node should have a placement. If any is
        // missing the attempt is reported as failed (next II) rather than
        // panicking — an invariant breach must not take the process down.
        let mut times = s.take_times();
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
        if complete {
            let mut ops = s.take_ops();
            ops.extend_from_slice(&s.node_ops);
            out.times = Some((times, ops));
        } else {
            s.pool_times.push(times);
        }
        out
    }
}

struct AttemptOutcome {
    times: Option<(Vec<u32>, Vec<OpId>)>,
    decisions: u64,
    reversed_by_resource: u64,
    reversed_by_dependence: u64,
}

/// Allocating form of [`heights_into`]. At II = 0 the weight is the
/// plain delay, which makes it the acyclic critical-path height the
/// list scheduler prioritizes by.
pub(crate) fn heights(g: &DepGraph, ii: u32) -> Vec<i64> {
    let mut h = Vec::new();
    heights_into(g, ii, &mut h);
    h
}

/// Height-based priority (Rau's HeightR): the longest dependence path
/// from each node onward under `w(e) = delay − II · distance`, computed
/// by relaxation (no positive circuit exists for II ≥ RecMII), written
/// into a reusable buffer (cleared first).
///
/// The sweeps visit the edges in reverse insertion order, which settles
/// a graph whose distance-0 edges were added in node order in about two
/// sweeps. A relaxation that settles reaches the longest paths in any
/// order. One that is still changing after n + 1 sweeps has met a
/// positive circuit, which only happens below RecMII; its capped result
/// depends on the order, so it is redone in insertion order.
fn heights_into(g: &DepGraph, ii: u32, h: &mut Vec<i64>) {
    h.clear();
    h.resize(g.num_nodes(), 0);
    if !relax_heights(g, ii, h, g.edges().iter().rev()) {
        h.fill(0);
        relax_heights(g, ii, h, g.edges().iter());
    }
}

/// Up to n + 1 sweeps of [`heights_into`]'s relaxation over the edges
/// in `order`; whether a sweep changed nothing.
fn relax_heights<'g>(
    g: &DepGraph,
    ii: u32,
    h: &mut [i64],
    order: impl Iterator<Item = &'g Edge> + Clone,
) -> bool {
    for _ in 0..=g.num_nodes() {
        let mut changed = false;
        for e in order.clone() {
            let w = i64::from(e.delay) - i64::from(ii) * i64::from(e.distance);
            let cand = h[e.to.index()] + w;
            if cand > h[e.from.index()] {
                h[e.from.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;
    use crate::validate::validate;
    use rmd_machine::models::cydra5_subset;

    fn chain(m: &MachineDescription, names: &[&str], delay: i32) -> DepGraph {
        let mut g = DepGraph::new();
        let nodes: Vec<_> = names
            .iter()
            .map(|n| g.add_node(m.op_by_name(n).expect("test setup")))
            .collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], delay, 0, DepKind::Flow);
        }
        g
    }

    #[test]
    fn schedules_simple_chain_at_mii() {
        let m = cydra5_subset();
        let g = chain(&m, &["load.w.0", "fadd", "store.w.0"], 8);
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        for repr in [
            Representation::Discrete,
            Representation::Bitvec(WordLayout::widest(64, m.num_resources())),
        ] {
            let r = ims.schedule(&g, &m, repr).expect("test setup");
            assert_eq!(r.ii, r.mii, "{repr:?}");
            validate(&g, &m, &r).expect("test setup");
        }
    }

    #[test]
    fn recurrence_bounds_ii() {
        let m = cydra5_subset();
        let fadd = m.op_by_name("fadd").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(fadd);
        let b = g.add_node(fadd);
        g.add_edge(a, b, 7, 0, DepKind::Flow);
        g.add_edge(b, a, 7, 1, DepKind::Flow); // delay 14, distance 1
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let r = ims
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert_eq!(r.mii, 14);
        assert_eq!(r.ii, 14);
        validate(&g, &m, &r).expect("test setup");
    }

    #[test]
    fn resource_pressure_forces_ii() {
        let m = cydra5_subset();
        // 4 independent fadds: fadd_in is used once per op -> ResMII 4.
        let fadd = m.op_by_name("fadd").expect("test setup");
        let mut g = DepGraph::new();
        for _ in 0..4 {
            g.add_node(fadd);
        }
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let r = ims
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert!(r.mii >= 4);
        assert_eq!(r.ii, r.mii);
        validate(&g, &m, &r).expect("test setup");
    }

    #[test]
    fn identical_schedules_across_representations() {
        // The paper verified "precisely the same schedules were produced
        // regardless of the machine description used" — representations
        // must agree too, given the same deterministic scheduler.
        let m = cydra5_subset();
        let g = chain(
            &m,
            &["load.w.0", "load.w.1", "fmul", "fadd", "store.w.1"],
            5,
        );
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let a = ims
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        let b = ims
            .schedule(
                &g,
                &m,
                Representation::Bitvec(WordLayout::widest(64, m.num_resources())),
            )
            .expect("test setup");
        assert_eq!(a.times, b.times);
        assert_eq!(a.ii, b.ii);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn cached_path_matches_uncached_exactly() {
        let m = cydra5_subset();
        let layout = WordLayout::widest(64, m.num_resources());
        let mut cache = ModuloMaskCache::new(&m, layout);
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        for names in [
            &["load.w.0", "fadd", "store.w.0"][..],
            &["load.w.0", "load.w.1", "fmul", "fadd", "store.w.1"][..],
            &["load.w.0", "fadd", "store.w.0"][..], // repeat: cache hit
        ] {
            let g = chain(&m, names, 5);
            let mii = crate::mii::mii(&g, &m);
            let repr = Representation::Bitvec(layout);
            let plain = ims
                .schedule_with_mii(&g, &m, repr, mii)
                .expect("test setup");
            let cached = ims
                .schedule_with_mii_cached_scratch(
                    &g,
                    &m,
                    repr,
                    mii,
                    &mut cache,
                    &mut SchedScratch::new(),
                )
                .expect("test setup");
            assert_eq!(plain.times, cached.times);
            assert_eq!(plain.chosen, cached.chosen);
            assert_eq!(plain.ii, cached.ii);
            assert_eq!(plain.decisions, cached.decisions);
            assert_eq!(plain.counters, cached.counters);
        }
        assert!(cache.hits() > 0, "repeated IIs must hit the cache");
    }

    #[test]
    fn lru_eviction_preserves_schedule_bytes() {
        // An entry cap of 1 makes every II change an eviction; the
        // schedules a daemon hands out must not depend on cache churn.
        let m = cydra5_subset();
        let layout = WordLayout::widest(64, m.num_resources());
        let mut cache = ModuloMaskCache::with_cap(&m, layout, 1);
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let repr = Representation::Bitvec(layout);
        // Alternate between graphs whose IIs differ so the cap-1 cache
        // keeps evicting, and repeat each so re-expansion is exercised.
        let fadd = m.op_by_name("fadd").expect("test setup");
        let recurrence = {
            let mut g = DepGraph::new();
            let a = g.add_node(fadd);
            let b = g.add_node(fadd);
            g.add_edge(a, b, 7, 0, DepKind::Flow);
            g.add_edge(b, a, 7, 1, DepKind::Flow); // RecMII 14
            g
        };
        let cases: Vec<DepGraph> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    chain(&m, &["load.w.0", "fadd", "store.w.0"], 5)
                } else {
                    recurrence.clone()
                }
            })
            .collect();
        for g in &cases {
            let mii = crate::mii::mii(g, &m);
            let plain = ims.schedule_with_mii(g, &m, repr, mii).expect("test setup");
            let cached = ims
                .schedule_with_mii_cached_scratch(
                    g,
                    &m,
                    repr,
                    mii,
                    &mut cache,
                    &mut SchedScratch::new(),
                )
                .expect("test setup");
            assert_eq!(plain.times, cached.times);
            assert_eq!(plain.chosen, cached.chosen);
            assert_eq!(plain.ii, cached.ii);
            assert_eq!(plain.decisions, cached.decisions);
            assert_eq!(plain.counters, cached.counters);
        }
        assert!(cache.evictions() > 0, "cap-1 cache must have evicted");
        assert_eq!(cache.num_cached(), 1);
    }

    #[test]
    #[should_panic(expected = "different word layout")]
    fn cached_path_rejects_layout_mismatch() {
        let m = cydra5_subset();
        let mut cache = ModuloMaskCache::new(&m, WordLayout::with_k(64, 1));
        let g = chain(&m, &["load.w.0", "fadd"], 5);
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let _ = ims.schedule_with_mii_cached_scratch(
            &g,
            &m,
            Representation::Bitvec(WordLayout::with_k(64, 2)),
            1,
            &mut cache,
            &mut SchedScratch::new(),
        );
    }

    #[test]
    fn tracing_emits_one_attempt_span_per_ii() {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        let m = cydra5_subset();
        let g = chain(&m, &["load.w.0", "fadd", "store.w.0"], 8);
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        rmd_obs::set_enabled(true);
        let _ = rmd_obs::drain_events();
        let r = ims
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        let events = rmd_obs::drain_events();
        rmd_obs::set_enabled(false);
        let attempts: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "sched" && e.name == "attempt")
            .collect();
        assert_eq!(attempts.len(), r.attempts as usize);
        assert_eq!(attempts.last().unwrap().arg, Some(("ii", u64::from(r.ii))));
    }

    /// Forwards only the required [`ContentionQuery`] methods, so the
    /// trait defaults answer everything else: `first_free_in` scans the
    /// window one `check` per cycle — the paper's literal slot search,
    /// kept as the oracle for the backends' batched overrides.
    struct PerCycle<'a>(&'a mut dyn ContentionQuery);

    impl ContentionQuery for PerCycle<'_> {
        fn check(&mut self, op: OpId, cycle: u32) -> bool {
            self.0.check(op, cycle)
        }
        fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
            self.0.assign(inst, op, cycle);
        }
        fn assign_free_into(
            &mut self,
            inst: OpInstance,
            op: OpId,
            cycle: u32,
            evicted: &mut Vec<OpInstance>,
        ) {
            self.0.assign_free_into(inst, op, cycle, evicted);
        }
        fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
            self.0.free(inst, op, cycle);
        }
        fn counters(&self) -> &WorkCounters {
            self.0.counters()
        }
        fn counters_mut(&mut self) -> &mut WorkCounters {
            self.0.counters_mut()
        }
        fn num_scheduled(&self) -> usize {
            self.0.num_scheduled()
        }
    }

    #[test]
    fn window_probe_is_byte_identical_to_per_cycle_oracle() {
        // Batched window queries must reproduce the per-cycle scan
        // exactly — same placements, same work accounting — with
        // `check_window` the only counter allowed to differ (it is work
        // metadata, not work).
        let m = cydra5_subset();
        let layout = WordLayout::widest(64, m.num_resources());
        let alt_groups = rmd_machine::models::cydra5_alt_groups(&m);
        let load0 = m.op_by_name("load.w.0").expect("test setup");
        let fadd = m.op_by_name("fadd").expect("test setup");
        // Resource pressure: forced placements and evictions exercise
        // the full-window (found = None) path too; port-0 loads give the
        // alternatives somewhere to go.
        let mut pressured = DepGraph::new();
        for _ in 0..6 {
            pressured.add_node(fadd);
        }
        let mut loads = DepGraph::new();
        for _ in 0..2 {
            let a = loads.add_node(fadd);
            for _ in 0..2 {
                let l = loads.add_node(load0);
                loads.add_edge(l, a, 21, 0, DepKind::Flow);
            }
        }
        let graphs = [
            chain(&m, &["load.w.0", "fadd", "store.w.0"], 8),
            chain(
                &m,
                &["load.w.0", "load.w.1", "fmul", "fadd", "store.w.1"],
                5,
            ),
            pressured,
            loads,
        ];

        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let mut cache = ModuloMaskCache::new(&m, layout);
        for (i, g) in graphs.iter().enumerate() {
            let budget = 6 * g.num_nodes() as u64;
            for repr in [Representation::Discrete, Representation::Bitvec(layout)] {
                for groups in [None, Some(&alt_groups)] {
                    let mut module = |ii| -> Box<dyn ContentionQuery> {
                        match repr {
                            Representation::Discrete => Box::new(ModuloDiscreteModule::new(&m, ii)),
                            Representation::Bitvec(_) => Box::new(cache.module(ii)),
                        }
                    };
                    // Walk the II search attempt by attempt until one
                    // succeeds, comparing every attempt on the way.
                    let mut ii = crate::mii::mii(g, &m);
                    loop {
                        let ctx =
                            format!("graph {i}, {repr:?}, alts {}, ii {ii}", groups.is_some());
                        let (mut window, mut scalar) = (module(ii), module(ii));
                        let a = ims.attempt(
                            g,
                            ii,
                            budget,
                            window.as_mut(),
                            groups,
                            &mut SchedScratch::new(),
                        );
                        let b = ims.attempt(
                            g,
                            ii,
                            budget,
                            &mut PerCycle(scalar.as_mut()),
                            groups,
                            &mut SchedScratch::new(),
                        );
                        assert_eq!(a.times, b.times, "{ctx}");
                        assert_eq!(a.decisions, b.decisions, "{ctx}");
                        assert_eq!(a.reversed_by_resource, b.reversed_by_resource, "{ctx}");
                        assert_eq!(a.reversed_by_dependence, b.reversed_by_dependence, "{ctx}");
                        let (mut wc, mut sc) = (*window.counters(), *scalar.counters());
                        wc.check_window = rmd_query::FnCounter::default();
                        sc.check_window = rmd_query::FnCounter::default();
                        assert_eq!(wc, sc, "{ctx}");
                        if a.times.is_some() {
                            break;
                        }
                        ii += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical() {
        // One scratch carried across loops of different shapes and
        // representations must reproduce the scratch-free path exactly:
        // schedules, statistics, and counters.
        let m = cydra5_subset();
        let layout = WordLayout::widest(64, m.num_resources());
        let mut cache = ModuloMaskCache::new(&m, layout);
        let mut scratch = SchedScratch::new();
        let ims = IterativeModuloScheduler::new(ImsConfig::default());

        let fadd = m.op_by_name("fadd").expect("test setup");
        let mut pressured = DepGraph::new();
        for _ in 0..6 {
            pressured.add_node(fadd); // evictions + forced placements
        }
        let mut recurrence = DepGraph::new();
        let a = recurrence.add_node(fadd);
        let b = recurrence.add_node(fadd);
        recurrence.add_edge(a, b, 7, 0, DepKind::Flow);
        recurrence.add_edge(b, a, 7, 1, DepKind::Flow);
        let graphs = [
            chain(&m, &["load.w.0", "fadd", "store.w.0"], 8),
            pressured,
            recurrence,
            chain(
                &m,
                &["load.w.0", "load.w.1", "fmul", "fadd", "store.w.1"],
                5,
            ),
            chain(&m, &["load.w.0", "fadd", "store.w.0"], 8), // repeat: warm
        ];
        for (i, g) in graphs.iter().enumerate() {
            let mii = crate::mii::mii(g, &m);
            for repr in [Representation::Discrete, Representation::Bitvec(layout)] {
                let ctx = format!("graph {i}, {repr:?}");
                let plain = ims.schedule_with_mii(g, &m, repr, mii).expect("test setup");
                let scratched = ims
                    .schedule_with_mii_cached_scratch(g, &m, repr, mii, &mut cache, &mut scratch)
                    .expect("test setup");
                assert_eq!(plain.times, scratched.times, "{ctx}");
                assert_eq!(plain.chosen, scratched.chosen, "{ctx}");
                assert_eq!(plain.ii, scratched.ii, "{ctx}");
                assert_eq!(plain.decisions, scratched.decisions, "{ctx}");
                assert_eq!(
                    plain.reversed_by_resource, scratched.reversed_by_resource,
                    "{ctx}"
                );
                assert_eq!(
                    plain.per_attempt_ratio, scratched.per_attempt_ratio,
                    "{ctx}"
                );
                assert_eq!(plain.counters, scratched.counters, "{ctx}");
                scratch.recycle(scratched);
            }
        }
    }

    #[test]
    fn budget_statistics_are_recorded() {
        let m = cydra5_subset();
        let g = chain(&m, &["load.w.0", "fadd", "store.w.0"], 8);
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let r = ims
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert!(r.decisions >= g.num_nodes() as u64);
        assert_eq!(r.per_attempt_ratio.len(), r.attempts as usize);
        assert!(r.counters.check.calls > 0);
        assert!(r.counters.assign_free.calls >= r.decisions);
        assert!((r.ii_ratio() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::graph::{DepGraph, DepKind};
    use rmd_machine::MachineBuilder;

    /// A machine where two op classes can never coexist in one II=1
    /// kernel, so tiny max_ii forces failure.
    fn contended() -> (MachineDescription, rmd_machine::OpId) {
        let mut b = MachineBuilder::new("tight");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        let m = b.build().expect("test setup");
        let x = m.op_by_name("x").expect("test setup");
        (m, x)
    }

    #[test]
    fn max_ii_limit_yields_error() {
        let (m, x) = contended();
        let mut g = DepGraph::new();
        for _ in 0..4 {
            g.add_node(x); // ResMII = 4
        }
        let ims = IterativeModuloScheduler::new(ImsConfig {
            budget_ratio: 6.0,
            max_ii: 2, // below ResMII: the II loop never runs
        });
        let e = ims.schedule(&g, &m, Representation::Discrete).unwrap_err();
        assert_eq!(e, ImsError::NoFeasibleIi { max_ii: 2 });
        assert_eq!(e.to_string(), "no modulo schedule found for any II ≤ 2");
    }

    #[test]
    fn single_node_loop_schedules_at_ii_one() {
        let (m, x) = contended();
        let mut g = DepGraph::new();
        g.add_node(x);
        let r = IterativeModuloScheduler::default()
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert_eq!(r.ii, 1);
        assert_eq!(r.times, vec![0]);
        assert_eq!(r.decisions, 1);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn self_edge_constrains_but_schedules() {
        let (m, x) = contended();
        let mut g = DepGraph::new();
        let n = g.add_node(x);
        g.add_edge(n, n, 5, 1, DepKind::Flow); // RecMII 5
        let r = IterativeModuloScheduler::default()
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert_eq!(r.mii, 5);
        assert_eq!(r.ii, 5);
        crate::validate(&g, &m, &r).expect("test setup");
    }

    #[test]
    fn positive_zero_distance_self_edge_is_refused() {
        let (m, x) = contended();
        let mut g = DepGraph::new();
        let n = g.add_node(x);
        g.add_edge(n, n, 1, 0, DepKind::Flow);
        let e = IterativeModuloScheduler::default()
            .schedule(&g, &m, Representation::Discrete)
            .unwrap_err();
        assert_eq!(e, ImsError::NoFeasibleIi { max_ii: 4096 });
    }

    #[test]
    fn positive_zero_distance_two_cycle_is_refused() {
        let (m, x) = contended();
        let mut g = DepGraph::new();
        let a = g.add_node(x);
        let b = g.add_node(x);
        g.add_edge(a, b, 3, 0, DepKind::Flow);
        g.add_edge(b, a, -2, 0, DepKind::Flow);
        let e = IterativeModuloScheduler::default()
            .schedule(&g, &m, Representation::Discrete)
            .unwrap_err();
        assert_eq!(e, ImsError::NoFeasibleIi { max_ii: 4096 });
    }

    /// `len` fadds on cydra5-subset, each `delay` cycles after the last
    /// at distance `distance`.
    fn fadd_chain(len: usize, delay: i32, distance: u32) -> (MachineDescription, DepGraph) {
        let m = rmd_machine::models::cydra5_subset();
        let fadd = m.op_by_name("fadd").expect("test setup");
        let mut g = DepGraph::new();
        let nodes: Vec<_> = (0..len).map(|_| g.add_node(fadd)).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], delay, distance, DepKind::Flow);
        }
        (m, g)
    }

    #[test]
    fn start_times_past_u32_are_refused() {
        let layout = |m: &MachineDescription| WordLayout::widest(64, m.num_resources());
        // The fourth fadd would start 3 · (2³¹ − 1) cycles in, past
        // `u32::MAX` at every II: refused before any attempt, where a
        // wrapped start time would give a schedule `validate` rejects.
        let (m, g) = fadd_chain(4, i32::MAX, 0);
        assert!(crate::mii::has_overlong_chain(&g));
        for repr in [Representation::Discrete, Representation::Bitvec(layout(&m))] {
            let e = IterativeModuloScheduler::default()
                .schedule(&g, &m, repr)
                .unwrap_err();
            assert_eq!(e, ImsError::NoFeasibleIi { max_ii: 4096 }, "{repr:?}");
        }
        // Three fadds end at u32::MAX − 1, the last start a `u32` can
        // hold but one: still scheduled, and valid.
        let (m, g) = fadd_chain(3, i32::MAX, 0);
        assert!(!crate::mii::has_overlong_chain(&g));
        for repr in [Representation::Discrete, Representation::Bitvec(layout(&m))] {
            let r = IterativeModuloScheduler::default()
                .schedule(&g, &m, repr)
                .expect("test setup");
            assert_eq!(r.times[2], u32::MAX - 1, "{repr:?}");
            crate::validate(&g, &m, &r).expect("test setup");
        }
        // Loop-carried edges pass the pre-check, since a large enough II
        // pulls each start back. Below that II every attempt fails where
        // the fourth fadd would start past `u32::MAX`.
        let (m, g) = fadd_chain(4, i32::MAX, 1);
        assert!(!crate::mii::has_overlong_chain(&g));
        let ims = IterativeModuloScheduler::new(ImsConfig {
            budget_ratio: 6.0,
            max_ii: 40,
        });
        for repr in [Representation::Discrete, Representation::Bitvec(layout(&m))] {
            let e = ims.schedule(&g, &m, repr).unwrap_err();
            assert_eq!(e, ImsError::NoFeasibleIi { max_ii: 40 }, "{repr:?}");
        }
    }

    #[test]
    fn zero_sum_zero_distance_cycle_still_schedules() {
        let (m, x) = contended();
        let mut g = DepGraph::new();
        let a = g.add_node(x);
        let b = g.add_node(x);
        g.add_edge(a, b, 3, 0, DepKind::Flow);
        g.add_edge(b, a, -3, 0, DepKind::Flow);
        let r = IterativeModuloScheduler::default()
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert_eq!(r.times[b.index()], r.times[a.index()] + 3);
        crate::validate(&g, &m, &r).expect("test setup");
    }

    #[test]
    fn heights_match_brute_force_longest_path() {
        // height(v) = max over paths from v of Σ(delay − II·distance),
        // computed here by exhaustive DFS on a small graph with a
        // recurrence (no positive circuit at feasible II).
        let (m, x) = contended();
        let _ = &m;
        let mut g = DepGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(x)).collect();
        g.add_edge(n[0], n[1], 3, 0, DepKind::Flow);
        g.add_edge(n[1], n[2], 2, 0, DepKind::Flow);
        g.add_edge(n[0], n[2], 4, 0, DepKind::Flow);
        g.add_edge(n[2], n[3], 1, 0, DepKind::Flow);
        g.add_edge(n[3], n[1], 2, 2, DepKind::Flow); // carried back edge
        let ii = 4; // RecMII of the circuit (2+1+2)/2 = ceil(2.5) = 3
        let h = heights(&g, ii);

        fn dfs(g: &DepGraph, v: NodeId, ii: i64, depth: usize) -> i64 {
            if depth > 16 {
                return i64::MIN / 2; // circuit guard; weights make loops unprofitable
            }
            let mut best = 0;
            for e in g.succ_edges(v) {
                let w = i64::from(e.delay) - ii * i64::from(e.distance);
                best = best.max(w + dfs(g, e.to, ii, depth + 1));
            }
            best
        }
        for v in g.nodes() {
            assert_eq!(h[v.index()], dfs(&g, v, i64::from(ii), 0), "{v:?}");
        }
    }

    #[test]
    fn iis_where_a_base_op_does_not_fit_are_skipped() {
        // `x` reserves `r` at cycles 0 and 3: it collides with its own
        // next iteration at II 1 and 3, fits II 2 and every II from 4.
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        let s = b.resource("s");
        b.operation("x").usage(r, 0).usage(r, 3).finish();
        b.operation("y").usage(s, 0).finish();
        let m = b.build().expect("test setup");
        let x = m.op_by_name("x").expect("test setup");
        let y = m.op_by_name("y").expect("test setup");
        let mut lone = DepGraph::new();
        lone.add_node(x);
        // x -> y -> x: RecMII 3, which x does not fit.
        let mut rec = DepGraph::new();
        let (a, c) = (rec.add_node(x), rec.add_node(y));
        rec.add_edge(a, c, 1, 0, DepKind::Flow);
        rec.add_edge(c, a, 2, 1, DepKind::Flow);
        assert_eq!(crate::mii::mii(&rec, &m), 3);

        let ims = IterativeModuloScheduler::default();
        let groups = AltGroups::from_groups(&m, Vec::new());
        let layout = WordLayout::widest(64, m.num_resources());
        for repr in [Representation::Discrete, Representation::Bitvec(layout)] {
            for (g, mii, want) in [(&lone, 1, 2), (&lone, 3, 4), (&rec, 3, 4)] {
                let mut cache = ModuloMaskCache::new(&m, layout);
                let mut scratch = SchedScratch::new();
                let runs = [
                    ims.schedule_with_mii(g, &m, repr, mii),
                    ims.schedule_with_alternatives(g, &m, &groups, repr, mii),
                    ims.schedule_with_mii_cached_scratch(
                        g,
                        &m,
                        repr,
                        mii,
                        &mut cache,
                        &mut scratch,
                    ),
                ];
                for (i, run) in runs.into_iter().enumerate() {
                    let ctx = format!("{repr:?}, {} nodes, mii {mii}, run {i}", g.num_nodes());
                    let r = run.expect("a larger II fits");
                    assert_eq!((r.ii, r.attempts), (want, 1), "{ctx}");
                    crate::validate(g, &m, &r).expect(&ctx);
                }
            }
        }
    }

    #[test]
    fn zero_delay_dependences_allow_same_cycle() {
        let mut b = MachineBuilder::new("two");
        let r0 = b.resource("a");
        let r1 = b.resource("b");
        b.operation("x").usage(r0, 0).finish();
        b.operation("y").usage(r1, 0).finish();
        let m = b.build().expect("test setup");
        let mut g = DepGraph::new();
        let x = g.add_node(m.op_by_name("x").expect("test setup"));
        let y = g.add_node(m.op_by_name("y").expect("test setup"));
        g.add_edge(x, y, 0, 0, DepKind::Anti);
        let r = IterativeModuloScheduler::default()
            .schedule(&g, &m, Representation::Discrete)
            .expect("test setup");
        assert_eq!(r.ii, 1);
        assert!(r.times[y.index()] >= r.times[x.index()]);
        crate::validate(&g, &m, &r).expect("test setup");
    }

    /// `heights_into` as it was before it swept in reverse: n + 1
    /// capped sweeps in insertion order, the reference for its heights.
    fn insertion_order_heights(g: &DepGraph, ii: u32) -> Vec<i64> {
        let n = g.num_nodes();
        let mut h = vec![0i64; n];
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
        h
    }

    #[test]
    fn heights_equal_the_insertion_order_relaxation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rmd_loops::random::{random_loop, RandomLoopParams};

        let m = rmd_machine::models::cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let mut rng = StdRng::seed_from_u64(0x4E16);
        // `rmd_loops` builds its own copy of this crate, so its graphs
        // are copied edge for edge.
        let mut graphs: Vec<DepGraph> = (0..160)
            .map(|_| {
                let size = rng.gen_range(2..48);
                let l = random_loop(&ops, &mut rng, RandomLoopParams { size });
                let mut g = DepGraph::new();
                for v in l.nodes() {
                    g.add_node(l.op(v));
                }
                for e in l.edges() {
                    let (from, to) = (NodeId(e.from.0), NodeId(e.to.0));
                    g.add_edge(from, to, e.delay, e.distance, DepKind::Flow);
                }
                g
            })
            .collect();
        // Hand-built, each `(from, to, delay, distance)` over four nodes:
        // carried back edges, parallel edges, negative delays, circuits
        // of weight zero (of distance-0 edges, and of a carried edge at
        // II 4), a positive distance-0 circuit, and edges added against
        // node order, so the reverse sweep is the slow order.
        let shapes: [&[(u32, u32, i32, u32)]; 6] = [
            &[
                (0, 1, 3, 0),
                (1, 2, 2, 0),
                (2, 3, 1, 0),
                (3, 1, 2, 2),
                (2, 0, 5, 1),
            ],
            &[
                (0, 1, 3, 0),
                (0, 1, 7, 0),
                (1, 0, 1, 1),
                (1, 0, 6, 1),
                (1, 1, 4, 1),
            ],
            &[
                (0, 1, -4, 0),
                (1, 2, 6, 0),
                (2, 0, -2, 1),
                (2, 3, -1, 0),
                (3, 3, -5, 2),
            ],
            &[
                (0, 1, 0, 0),
                (1, 0, 0, 0),
                (1, 2, 2, 0),
                (2, 1, 2, 1),
                (2, 3, 1, 0),
            ],
            &[
                (0, 1, 1, 0),
                (1, 2, 1, 0),
                (2, 0, 1, 0),
                (2, 3, 3, 0),
                (3, 0, 2, 1),
            ],
            &[
                (2, 3, 4, 0),
                (1, 2, 3, 0),
                (0, 1, 2, 0),
                (3, 0, 9, 2),
                (3, 1, 1, 1),
            ],
        ];
        let x = m.op_by_name("fadd").expect("test setup");
        for edges in shapes {
            let mut g = DepGraph::new();
            for _ in 0..4 {
                g.add_node(x);
            }
            for &(from, to, delay, distance) in edges {
                g.add_edge(NodeId(from), NodeId(to), delay, distance, DepKind::Flow);
            }
            graphs.push(g);
        }
        let mut below_rec_mii = 0;
        for (i, g) in graphs.iter().enumerate() {
            let rec = crate::mii::rec_mii(g);
            for ii in 1..=crate::mii::mii(g, &m) + 3 {
                assert_eq!(
                    heights(g, ii),
                    insertion_order_heights(g, ii),
                    "graph {i} at II {ii}"
                );
                below_rec_mii += usize::from(ii < rec);
            }
        }
        assert!(below_rec_mii > 0, "no II below RecMII reached the fallback");
    }
}
