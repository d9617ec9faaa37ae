//! Seeded, structure-aware machine description generator.
//!
//! Random reservation tables with uniformly sprinkled usages exercise
//! almost nothing of the reduction pipeline: they rarely produce
//! forbidden-latency *spans*, never produce alternatives, and their
//! resources have no sharing structure to compress. This generator
//! instead composes the structural features real machine descriptions
//! are made of — the same corners the hand-written zoo under
//! `machines/` pins individually:
//!
//! * **clustered resource groups** — each cluster owns an issue slot,
//!   a writeback bus, and its function units; multi-cluster machines
//!   add a shared inter-cluster bus some operations cross;
//! * **pipelined units** — a chain of stage resources reserved at
//!   ascending cycles (one forbidden latency per shared stage offset);
//! * **non-pipelined units** — one unit resource held for a multi-cycle
//!   span, yielding a contiguous forbidden-latency span;
//! * **multi-alternative operations** — sibling operations expanded
//!   from a common base across different clusters or units, named so
//!   [`mdl::print`](rmd_machine::mdl) re-collapses them into `alt`
//!   blocks and the rendering round-trips;
//! * **writeback contention** — result-bus usages at distinct
//!   latencies, the classic source of cross-operation forbidden
//!   latencies (paper Figure 1);
//! * **shared-usage alternative groups** — a per-operation decode port
//!   every alternative of a group reserves at issue time, so reduction
//!   sees usages common to the whole `alt` block rather than only
//!   per-alternative structure;
//! * **degenerate single-resource machines** — occasionally the whole
//!   topology collapses onto one port that every operation contends
//!   on, the maximal-conflict corner where every pairwise forbidden
//!   latency is live.
//!
//! Determinism is the contract: [`generate`] is a pure function of
//! `(seed, config)`, so a seed printed by a failing fuzz report
//! reproduces the identical machine anywhere.

use crate::rng::{mix_seed, SplitMix64};
use rmd_machine::{MachineBuilder, MachineDescription, ResourceId};

/// Size envelope for [`generate`]. All bounds are inclusive maxima;
/// the generator draws the actual shape uniformly at or below them.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum number of clusters (at least 1 is always generated).
    pub max_clusters: u32,
    /// Maximum function units per cluster (at least 1 per cluster).
    pub max_units: u32,
    /// Maximum pipeline depth of a pipelined unit / maximum occupancy
    /// span of a non-pipelined unit, in cycles (at least 1).
    pub max_depth: u32,
    /// Maximum number of base operations (at least 1).
    pub max_ops: u32,
    /// Maximum alternatives a base operation expands into (at least 1;
    /// 2+ produces `alt` blocks).
    pub max_alts: u32,
}

impl GenConfig {
    /// Small machines: fast to reduce, automata always tractable.
    /// The default envelope for high-count fuzz runs.
    pub fn small() -> Self {
        GenConfig {
            max_clusters: 2,
            max_units: 2,
            max_depth: 4,
            max_ops: 4,
            max_alts: 2,
        }
    }

    /// Mid-size machines: several clusters, deeper units, more
    /// alternatives — the shape of the paper's real-machine studies.
    pub fn medium() -> Self {
        GenConfig {
            max_clusters: 3,
            max_units: 3,
            max_depth: 8,
            max_ops: 8,
            max_alts: 3,
        }
    }

    /// Large machines: stresses reduction wall-time and automata size;
    /// the harness skips the automata baseline when it blows its state
    /// cap, so large runs still terminate.
    pub fn large() -> Self {
        GenConfig {
            max_clusters: 4,
            max_units: 4,
            max_depth: 12,
            max_ops: 14,
            max_alts: 4,
        }
    }

    /// The preset named `name` (`small`, `medium`, or `large`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            "large" => Some(Self::large()),
            _ => None,
        }
    }
}

/// One function unit inside a cluster.
enum Unit {
    /// Stage resources reserved at ascending cycles.
    Pipelined { stages: Vec<ResourceId> },
    /// One resource held for `span` consecutive cycles.
    NonPipelined { res: ResourceId, span: u32 },
}

/// A cluster: issue slot, writeback bus, function units.
struct Cluster {
    issue: ResourceId,
    bus: ResourceId,
    units: Vec<Unit>,
}

/// Generates a syntactically valid, structurally interesting machine
/// description from `seed` within the `cfg` size envelope. Equal
/// `(seed, cfg)` pairs yield byte-identical canonical MDL renderings.
pub fn generate(seed: u64, cfg: &GenConfig) -> MachineDescription {
    let mut rng = SplitMix64::new(mix_seed(seed, 0x0067_656e, 0)); // "gen"
    let mut b = MachineBuilder::new(format!("fuzz-{seed:016x}"));

    // --- degenerate single-resource machines -------------------------
    // Roughly one machine in twelve collapses the whole topology onto
    // a single port. Every operation contends on the same resource, so
    // every pairwise conflict is live and reduction must preserve the
    // maximal forbidden-latency sets (real analogue: a single-issue
    // scalar port). Drawn first so it is a stable prefix decision.
    if rng.below(12) == 0 {
        return generate_degenerate(&mut rng, b, cfg);
    }

    // --- resource topology -------------------------------------------
    let nclusters = 1 + rng.below(u64::from(cfg.max_clusters.max(1))) as usize;
    let mut clusters = Vec::with_capacity(nclusters);
    for c in 0..nclusters {
        let issue = b.resource(format!("c{c}_issue"));
        let bus = b.resource(format!("c{c}_wb"));
        let nunits = 1 + rng.below(u64::from(cfg.max_units.max(1))) as usize;
        let mut units = Vec::with_capacity(nunits);
        for u in 0..nunits {
            let depth = 1 + rng.below(u64::from(cfg.max_depth.max(1))) as u32;
            if rng.flip() {
                // Pipelined: one resource per stage. Adjacent stages may
                // share a physical resource (a structural hazard), which
                // is what produces interior forbidden latencies.
                let mut stages = Vec::with_capacity(depth as usize);
                for s in 0..depth {
                    if s > 0 && rng.below(4) == 0 {
                        stages.push(stages[s as usize - 1]);
                    } else {
                        stages.push(b.resource(format!("c{c}_u{u}_s{s}")));
                    }
                }
                units.push(Unit::Pipelined { stages });
            } else {
                units.push(Unit::NonPipelined {
                    res: b.resource(format!("c{c}_u{u}_np")),
                    span: depth,
                });
            }
        }
        clusters.push(Cluster { issue, bus, units });
    }
    // Inter-cluster result bus, present only on clustered machines.
    let xbus = (nclusters > 1).then(|| b.resource("xbus"));

    // --- operations --------------------------------------------------
    let nops = 1 + rng.below(u64::from(cfg.max_ops.max(1))) as usize;
    for o in 0..nops {
        let name = format!("op{o}");
        let nalts = 1 + rng.below(u64::from(cfg.max_alts.max(1))) as usize;
        // An alternative is a (cluster, unit) placement; distinct
        // placements only, so every alternative is selectable.
        let mut placements: Vec<(usize, usize)> = Vec::new();
        for _ in 0..nalts {
            let c = rng.index(clusters.len());
            let u = rng.index(clusters[c].units.len());
            if !placements.contains(&(c, u)) {
                placements.push((c, u));
            }
        }
        let crosses = xbus.is_some() && rng.below(3) == 0;
        let writeback = rng.flip();
        if placements.len() == 1 {
            let (c, u) = placements[0];
            let op = b.operation(&name);
            emit_alt(
                op,
                &clusters[c],
                u,
                crosses.then_some(xbus).flatten(),
                writeback,
                &mut rng,
            )
            .finish();
        } else {
            // Half the groups also reserve a shared per-operation
            // decode port at issue time: a usage common to *every*
            // alternative, the structure per-alternative reduction
            // must keep aligned across the whole `alt` block.
            let shared = rng.flip().then(|| b.resource(format!("op{o}_dec")));
            // Expanded-alternative naming (`name#k`, equal weights) so
            // the canonical rendering re-collapses into an `alt` block.
            for (k, &(c, u)) in placements.iter().enumerate() {
                let mut op = b.operation(format!("{name}#{k}")).base(&name);
                if let Some(dec) = shared {
                    op = op.usage(dec, 0);
                }
                emit_alt(
                    op,
                    &clusters[c],
                    u,
                    crosses.then_some(xbus).flatten(),
                    writeback,
                    &mut rng,
                )
                .finish();
            }
        }
    }

    b.build()
        .expect("generated description is structurally valid")
}

/// Emits a machine whose every operation contends on one port: either
/// a multi-cycle occupancy span starting at issue, or issue plus a
/// jittered second reservation (the two-usage shape that makes every
/// issue distance up to the jitter a forbidden latency).
fn generate_degenerate(
    rng: &mut SplitMix64,
    mut b: MachineBuilder,
    cfg: &GenConfig,
) -> MachineDescription {
    let port = b.resource("the_port");
    let depth = u64::from(cfg.max_depth.max(1));
    let nops = 1 + rng.below(u64::from(cfg.max_ops.max(1))) as usize;
    for o in 0..nops {
        let op = b.operation(format!("op{o}"));
        if rng.flip() {
            let span = 1 + rng.below(depth) as u32;
            op.span(port, 0, span).finish();
        } else {
            let again = 1 + rng.below(depth) as u32;
            op.usage(port, 0).usage(port, again).finish();
        }
    }
    b.build()
        .expect("degenerate description is structurally valid")
}

/// Emits the reservation-table body of one alternative: issue at cycle
/// 0, the unit's stage chain or occupancy span, an optional writeback
/// on the cluster bus, and an optional inter-cluster bus crossing.
fn emit_alt<'a>(
    mut op: rmd_machine::OperationBuilder<'a>,
    cluster: &Cluster,
    unit: usize,
    xbus: Option<ResourceId>,
    writeback: bool,
    rng: &mut SplitMix64,
) -> rmd_machine::OperationBuilder<'a> {
    op = op.usage(cluster.issue, 0);
    let result_cycle = match &cluster.units[unit] {
        Unit::Pipelined { stages } => {
            for (s, &res) in stages.iter().enumerate() {
                op = op.usage(res, s as u32 + 1);
            }
            stages.len() as u32 + 1
        }
        Unit::NonPipelined { res, span } => {
            op = op.span(*res, 1, 1 + span);
            span + 1
        }
    };
    if writeback {
        // A jittered writeback latency is the classic forbidden-latency
        // source: two ops whose bus cycles differ by d conflict at
        // issue distance d.
        let wb = result_cycle + rng.below(3) as u32;
        op = op.usage(cluster.bus, wb);
    }
    if let Some(x) = xbus {
        op = op.usage(x, result_cycle);
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::mdl;

    #[test]
    fn deterministic_by_seed() {
        let cfg = GenConfig::medium();
        let a = generate(42, &cfg);
        let b = generate(42, &cfg);
        assert_eq!(a, b);
        assert_eq!(mdl::print(&a), mdl::print(&b));
        assert_ne!(mdl::print(&a), mdl::print(&generate(43, &cfg)));
    }

    #[test]
    fn every_seed_renders_and_reparses() {
        let cfg = GenConfig::small();
        for seed in 0..200 {
            let m = generate(seed, &cfg);
            assert!(m.num_operations() >= 1, "seed {seed}");
            // Degenerate machines own exactly one resource; everything
            // else has at least an issue slot and a writeback bus.
            assert!(m.num_resources() >= 1, "seed {seed}");
            let src = mdl::print(&m);
            let (parsed, _) = mdl::parse_machine(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: rendering does not reparse: {e}"));
            assert_eq!(m, parsed, "seed {seed}: round trip changed the machine");
        }
    }

    #[test]
    fn structural_features_all_appear() {
        // Across a modest seed sweep the generator must actually emit
        // each advertised structure at least once.
        let cfg = GenConfig::medium();
        let (mut alts, mut spans, mut multi_cluster, mut xbus) = (false, false, false, false);
        let (mut shared_dec, mut degenerate) = (false, false);
        for seed in 0..100 {
            let m = generate(seed, &cfg);
            let src = mdl::print(&m);
            alts |= src.contains(" alt {");
            spans |= src.contains("..");
            multi_cluster |= src.contains("c1_issue");
            xbus |= src.contains("xbus");
            shared_dec |= src.contains("_dec");
            degenerate |= m.num_resources() == 1 && src.contains("the_port");
        }
        assert!(alts, "no seed produced an alt block");
        assert!(spans, "no seed produced a multi-cycle span");
        assert!(multi_cluster, "no seed produced a second cluster");
        assert!(xbus, "no seed produced an inter-cluster bus usage");
        assert!(shared_dec, "no seed produced a shared-usage alt group");
        assert!(degenerate, "no seed produced a single-resource machine");
    }

    #[test]
    fn shared_decode_usage_appears_in_every_alternative_of_its_group() {
        // Whenever a group owns an opN_dec port, every alternative of
        // that group must reserve it — a partial share would mean the
        // generator produced the structure it advertises only halfway.
        let cfg = GenConfig::medium();
        let mut checked_groups = 0;
        for seed in 0..100 {
            let m = generate(seed, &cfg);
            let src = mdl::print(&m);
            for o in 0..m.num_operations() {
                let dec = format!("op{o}_dec");
                if !src.contains(&dec) {
                    continue;
                }
                checked_groups += 1;
                let base = format!("op{o}");
                let alt_count = m
                    .operations()
                    .iter()
                    .filter(|op| op.base() == Some(base.as_str()))
                    .count();
                assert!(
                    alt_count >= 2,
                    "seed {seed}: {dec} exists but {base} is not a multi-alternative group"
                );
                // Every alternative reserves the port exactly once, so
                // the rendering mentions it alt_count times plus the
                // single resource declaration.
                let dec_mentions = src.matches(&dec).count();
                assert_eq!(
                    dec_mentions,
                    alt_count + 1,
                    "seed {seed}: {dec} reserved by {} of {alt_count} alternatives",
                    dec_mentions.saturating_sub(1),
                );
            }
        }
        assert!(
            checked_groups > 0,
            "sweep never produced a shared-usage group"
        );
    }

    #[test]
    fn presets_scale_and_resolve() {
        assert!(GenConfig::preset("nope").is_none());
        for name in ["small", "medium", "large"] {
            let cfg = GenConfig::preset(name).unwrap();
            let m = generate(7, &cfg);
            assert!(m.num_operations() <= (cfg.max_ops * cfg.max_alts) as usize);
        }
    }
}
