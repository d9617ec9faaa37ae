//! The description-lint catalog, `RMD-L001` … `RMD-L011`.
//!
//! | id       | name                  | default severity |
//! |----------|-----------------------|------------------|
//! | RMD-L001 | dead-resource         | warning          |
//! | RMD-L002 | duplicate-resource    | info             |
//! | RMD-L003 | dominated-resource    | info             |
//! | RMD-L004 | identical-tables      | info             |
//! | RMD-L005 | table-overrun         | error            |
//! | RMD-L006 | empty-table           | error            |
//! | RMD-L007 | matrix-invariant      | error            |
//! | RMD-L008 | dominated-alternative | warning / info   |
//! | RMD-L009 | redundancy            | info             |
//! | RMD-L010 | never-selectable      | warning          |
//! | RMD-L011 | ii-infeasible         | info             |
//!
//! Redundancy findings (`L002`, `L003`, `L009`) are *info*, not
//! warnings: redundant resources in real descriptions are the paper's
//! premise — the reduction exists to remove them (the MIPS R3010 model
//! really does use `if` and `rd` in lockstep) — so their presence is
//! headroom to report, not a defect to deny.

use crate::diag::{Diagnostic, Severity};
use crate::model::{LintSubject, OpGroup};
use rmd_core::{
    dominated_by, generating_set, prune_dominated, SynthResource, SynthUsage, MAX_TABLE_CYCLES,
};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_machine::mdl::Span;
use rmd_machine::{ReservationTable, ResourceId};
use std::collections::HashMap;

/// The catalog, in id order: each lint's id, its default severity and
/// its body. A body must not assume the subject expanded (matrix lints
/// return early when [`LintSubject::machine`] is `None`).
pub(crate) const CATALOG: &[(&str, Severity, Body)] = &[
    ("RMD-L001", Severity::Warning, dead_resource),
    ("RMD-L002", Severity::Info, duplicate_resource),
    ("RMD-L003", Severity::Info, dominated_resource),
    ("RMD-L004", Severity::Info, identical_tables),
    ("RMD-L005", Severity::Error, table_overrun),
    ("RMD-L006", Severity::Error, empty_table),
    ("RMD-L007", Severity::Error, matrix_invariant),
    ("RMD-L008", Severity::Warning, dominated_alternative),
    ("RMD-L009", Severity::Info, redundancy),
    ("RMD-L010", Severity::Warning, never_selectable),
    ("RMD-L011", Severity::Info, ii_infeasible),
];

type Body = fn(&LintSubject, &mut Findings<'_>);

/// Collects one lint's findings under its catalog id.
pub(crate) struct Findings<'a> {
    pub(crate) id: &'static str,
    pub(crate) severity: Severity,
    pub(crate) out: &'a mut Vec<Diagnostic>,
}

impl Findings<'_> {
    /// Reports a finding at the lint's default severity.
    fn push(&mut self, span: Option<Span>, message: String) {
        self.push_at(self.severity, span, message);
    }

    /// Reports a finding at `severity`.
    fn push_at(&mut self, severity: Severity, span: Option<Span>, message: String) {
        self.out.push(Diagnostic {
            id: self.id,
            severity,
            message,
            span,
        });
    }
}

/// Per-resource: is it reserved by any alternative of any operation?
fn used_resources(s: &LintSubject) -> Vec<bool> {
    let mut used = vec![false; s.resource_names().len()];
    for g in s.groups() {
        for t in &g.alternatives {
            for u in t.usages() {
                if let Some(slot) = used.get_mut(u.resource.index()) {
                    *slot = true;
                }
            }
        }
    }
    used
}

/// RMD-L001: a declared resource no operation ever reserves. It
/// constrains nothing and is either leftover or a typo.
fn dead_resource(s: &LintSubject, out: &mut Findings<'_>) {
    let used = used_resources(s);
    for (i, name) in s.resource_names().iter().enumerate() {
        if !used[i] {
            out.push(
                s.resource_spans()[i],
                format!("resource `{name}` is never used by any operation"),
            );
        }
    }
}

/// RMD-L002: two resources reserved at identical cycles by every
/// alternative of every operation. They impose the same constraints
/// twice; one is redundant by construction (lockstep pipeline stages
/// do this legitimately, hence info).
fn duplicate_resource(s: &LintSubject, out: &mut Findings<'_>) {
    let used = used_resources(s);
    // Signature: usage cycles in every alternative, in declaration
    // order — equal signatures ⇒ interchangeable resources.
    let mut first_with: HashMap<Vec<Vec<u32>>, usize> = HashMap::new();
    for (i, name) in s.resource_names().iter().enumerate() {
        if !used[i] {
            continue; // dead resources are RMD-L001's finding
        }
        let sig: Vec<Vec<u32>> = s
            .groups()
            .iter()
            .flat_map(|g| &g.alternatives)
            .map(|t| t.usage_set(ResourceId(i as u32)))
            .collect();
        match first_with.get(&sig) {
            Some(&j) => out.push(
                s.resource_spans()[i],
                format!(
                    "resource `{name}` is used identically to `{}`; one of them is redundant",
                    s.resource_names()[j]
                ),
            ),
            None => {
                first_with.insert(sig, i);
            }
        }
    }
}

/// RMD-L003: a resource whose every forbidden latency is already
/// forbidden by a single other resource — exactly the domination
/// relation `prune_dominated` removes during reduction.
fn dominated_resource(s: &LintSubject, out: &mut Findings<'_>) {
    let Some(m) = s.machine() else { return };
    // View each declared resource as a synthesized resource over the
    // expanded operations (one class per op), then reuse the
    // reduction's own domination scan.
    let mut ids = Vec::new();
    let mut synth = Vec::new();
    for r in 0..m.num_resources() {
        let rid = ResourceId(r as u32);
        let usages: Vec<SynthUsage> = m
            .ops()
            .flat_map(|(id, op)| {
                op.table()
                    .usage_set(rid)
                    .into_iter()
                    .map(move |c| SynthUsage::new(id.0, c))
            })
            .collect();
        if !usages.is_empty() {
            ids.push(r);
            synth.push(SynthResource::from_usages(usages));
        }
    }
    for (k, dom) in dominated_by(&synth).iter().enumerate() {
        if let Some(j) = dom {
            let name = &s.resource_names()[ids[k]];
            let by = &s.resource_names()[ids[*j]];
            out.push(
                s.resource_spans()[ids[k]],
                format!(
                    "resource `{name}` is dominated by `{by}`: every latency it \
                     forbids is already forbidden by `{by}` (reduction would prune it)"
                ),
            );
        }
    }
}

/// RMD-L004: two operations with identical alternative tables. They form
/// one latency equivalence class and could share a definition.
fn identical_tables(s: &LintSubject, out: &mut Findings<'_>) {
    let gs = s.groups();
    for (i, g) in gs.iter().enumerate() {
        if let Some(first) = gs[..i].iter().find(|o| o.alternatives == g.alternatives) {
            out.push(
                g.span,
                format!(
                    "operations `{}` and `{}` have identical reservation tables; \
                     they behave as one class and could be merged",
                    first.name, g.name
                ),
            );
        }
    }
}

/// RMD-L005: a reservation past the pipeline's maximum table length —
/// the input limit ([`MAX_TABLE_CYCLES`]) every pipeline entry point
/// enforces would reject the machine.
fn table_overrun(s: &LintSubject, out: &mut Findings<'_>) {
    for g in s.groups() {
        for (i, t) in g.alternatives.iter().enumerate() {
            if t.length() > MAX_TABLE_CYCLES {
                out.push(
                    g.span,
                    format!(
                        "operation `{}`{} reserves through cycle {}, past the \
                         pipeline's maximum table length of {MAX_TABLE_CYCLES} cycles",
                        g.name,
                        alt_label(g, i),
                        t.length() - 1
                    ),
                );
            }
        }
    }
}

/// RMD-L006: an operation (or one of its alternatives) reserving
/// nothing. It would contend with nothing — including itself.
fn empty_table(s: &LintSubject, out: &mut Findings<'_>) {
    for g in s.groups() {
        for (i, t) in g.alternatives.iter().enumerate() {
            if t.is_empty() {
                out.push(
                    g.span,
                    format!(
                        "operation `{}`{} has an empty reservation table",
                        g.name,
                        alt_label(g, i)
                    ),
                );
            }
        }
    }
}

/// RMD-L007: the forbidden-matrix invariants the whole pipeline rests
/// on — mirror symmetry `f ∈ F[X][Y] ⇔ −f ∈ F[Y][X]` and structural
/// self-contention `0 ∈ F[X][X]` (paper §3).
fn matrix_invariant(s: &LintSubject, out: &mut Findings<'_>) {
    // Self-contention is checkable without expansion: an alternative
    // reserving nothing can issue concurrently with itself, so
    // 0 ∈ F[X][X] cannot hold.
    for g in s.groups() {
        if g.alternatives.iter().any(ReservationTable::is_empty) {
            out.push(
                g.span,
                format!(
                    "self-contention invariant 0 ∈ F[X][X] cannot hold for \
                     `{}`: it reserves no resource",
                    g.name
                ),
            );
        }
    }
    let Some(m) = s.machine() else { return };
    let f = crate::lints::matrix_of(m);
    if let Err((x, y, lat)) = f.check_symmetry() {
        out.push(
            None,
            format!(
                "forbidden matrix violates mirror symmetry: {lat} ∈ F[`{}`][`{}`] \
                 but {} ∉ F[`{}`][`{}`]",
                m.operations()[x].name(),
                m.operations()[y].name(),
                -lat,
                m.operations()[y].name(),
                m.operations()[x].name()
            ),
        );
    }
    for (id, op) in m.ops() {
        if !op.table().is_empty() && !f.forbids(id, 0, id) {
            out.push(
                None,
                format!(
                    "self-contention invariant violated: 0 ∉ F[`{0}`][`{0}`]",
                    op.name()
                ),
            );
        }
    }
}

/// RMD-L008: an alternative that duplicates another in its group
/// (warning — pure redundancy that skews weights), or reserves a strict
/// superset of another's usages (info — any placement where it is free,
/// the subset alternative is free too, so it is never *required*).
fn dominated_alternative(s: &LintSubject, out: &mut Findings<'_>) {
    for g in s.groups() {
        let alts = &g.alternatives;
        for j in 0..alts.len() {
            if let Some(k) = (0..j).find(|&k| alts[k] == alts[j]) {
                out.push(
                    g.span,
                    format!("alternative {j} of `{}` duplicates alternative {k}", g.name),
                );
            } else if let Some(k) =
                (0..alts.len()).find(|&k| k != j && table_strict_subset(&alts[k], &alts[j]))
            {
                out.push_at(
                    Severity::Info,
                    g.span,
                    format!(
                        "alternative {j} of `{}` reserves a strict superset of \
                         alternative {k}; it is dominated and never required",
                        g.name
                    ),
                );
            }
        }
    }
}

/// RMD-L009: the redundancy report. Fingerprints the forbidden matrix
/// and estimates reduction headroom by running the paper's generating
/// set + pruning over the class machine.
fn redundancy(s: &LintSubject, out: &mut Findings<'_>) {
    let Some(m) = s.machine() else { return };
    let f = matrix_of(m);
    let fp = rmd_core::fingerprints::matrix_fingerprint(&f);
    let classes = ClassPartition::compute(m, &f);
    let Ok(cm) = classes.class_machine(m) else {
        return;
    };
    let cf = matrix_of(&cm);
    let pruned = prune_dominated(&generating_set(&cf));
    out.push(
        None,
        format!(
            "matrix fingerprint {fp:016x}: {} forbidden latencies (max {}) over {} \
             classes; {} resources / {} usages could reduce to {} maximal resources",
            f.total_nonneg(),
            f.max_latency(),
            classes.num_classes(),
            m.num_resources(),
            m.total_usages(),
            pruned.len()
        ),
    );
}

/// RMD-L010: an alternative that can never be *selected*.
/// `check-with-alt` probes a group's alternatives in declaration order
/// and returns the first contention-free one; when an **earlier**
/// alternative reserves a strict subset of a later one's cells, the
/// earlier is free whenever the later is, so first-fit selection never
/// reaches the later alternative — it is dead weight in every schedule.
/// (Equal tables are RMD-L008's duplicate finding; a subset declared
/// *after* its superset is still selectable and only draws L008's info.)
fn never_selectable(s: &LintSubject, out: &mut Findings<'_>) {
    for g in s.groups() {
        let alts = &g.alternatives;
        for j in 1..alts.len() {
            if let Some(k) = (0..j).find(|&k| table_strict_subset(&alts[k], &alts[j])) {
                out.push(
                    g.span,
                    format!(
                        "alternative {j} of `{}` is never selectable: alternative {k} \
                         reserves a strict subset of its cells and is probed first",
                        g.name
                    ),
                );
            }
        }
    }
}

/// RMD-L011: an operation that cannot sustain the initiation interval
/// its resource counts promise. An alternative's resource-minimum II
/// (ResMII) is the largest number of times it reserves any single
/// resource; when two same-resource reservations sit a multiple of that
/// ResMII apart, the operation conflicts with its own next initiation at
/// II = ResMII, so its true per-op minimum II is strictly larger than
/// the bound a scheduler would compute from usage counts.
fn ii_infeasible(s: &LintSubject, out: &mut Findings<'_>) {
    for g in s.groups() {
        for (i, table) in g.alternatives.iter().enumerate() {
            let mut cycles_by_res: Vec<(u32, Vec<u32>)> = Vec::new();
            for u in table.usages() {
                match cycles_by_res.iter_mut().find(|(r, _)| *r == u.resource.0) {
                    Some((_, cs)) => cs.push(u.cycle),
                    None => cycles_by_res.push((u.resource.0, vec![u.cycle])),
                }
            }
            let Some(resmii) = cycles_by_res.iter().map(|(_, cs)| cs.len()).max() else {
                continue; // empty table: RMD-L006's finding
            };
            let resmii = resmii as u32;
            if resmii < 2 {
                continue; // no resource reused; II=1 is trivially clean
            }
            let collision = cycles_by_res.iter().find_map(|&(r, ref cs)| {
                cs.iter()
                    .flat_map(|&c1| cs.iter().map(move |&c2| (c1, c2)))
                    .find(|&(c1, c2)| c1 < c2 && (c2 - c1) % resmii == 0)
                    .map(|(c1, c2)| (r, c1, c2))
            });
            if let Some((r, c1, c2)) = collision {
                let rname = s
                    .resource_names()
                    .get(r as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                out.push(
                    g.span,
                    format!(
                        "`{}`{}: cannot sustain II={resmii} (its ResMII): `{rname}`@{c1} \
                         and `{rname}`@{c2} are {} cycles apart, a multiple of {resmii}",
                        g.name,
                        alt_label(g, i),
                        c2 - c1
                    ),
                );
            }
        }
    }
}

fn alt_label(g: &OpGroup, i: usize) -> String {
    if g.alternatives.len() > 1 {
        format!(" (alternative {i})")
    } else {
        String::new()
    }
}

/// Whether `a`'s usages are a strict subset of `b`'s.
fn table_strict_subset(a: &ReservationTable, b: &ReservationTable) -> bool {
    a.num_usages() < b.num_usages() && a.usages().iter().all(|u| b.uses(u.resource, u.cycle))
}

pub(crate) fn matrix_of(m: &rmd_machine::MachineDescription) -> ForbiddenMatrix {
    ForbiddenMatrix::compute(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_subject;
    use rmd_latency::LatencySet;
    use rmd_machine::mdl;

    fn subject(src: &str) -> LintSubject {
        let (d, map) = mdl::parse_with_source_map(src).expect("fixture parses");
        LintSubject::from_alt(&d, Some(&map))
    }

    /// Runs the catalog lint `id` alone.
    fn run(id: &str, s: &LintSubject) -> Vec<Diagnostic> {
        let &(id, severity, body) = CATALOG.iter().find(|row| row.0 == id).expect("listed");
        let mut out = Vec::new();
        body(
            s,
            &mut Findings {
                id,
                severity,
                out: &mut out,
            },
        );
        out
    }

    fn ids(src: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = lint_subject(&subject(src))
            .diagnostics
            .iter()
            .map(|d| d.id)
            .collect();
        v.dedup();
        v
    }

    #[test]
    fn dead_resource_is_flagged_with_its_span() {
        let s = subject(r#"machine "m" { resources { alu; spare; } op x { use alu @ 0; } }"#);
        let out = run("RMD-L001", &s);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`spare`"), "{}", out[0].message);
        assert!(out[0].span.is_some());
    }

    #[test]
    fn duplicate_resources_point_at_the_redundant_one() {
        let s = subject(
            r#"machine "m" { resources { a; b; }
                op x { use a @ 0; use b @ 0; }
                op y { use a @ 2; use b @ 2; } }"#,
        );
        let out = run("RMD-L002", &s);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`b` is used identically to `a`"));
    }

    #[test]
    fn dominated_resource_names_its_dominator() {
        let s = subject(
            r#"machine "m" { resources { light; heavy; }
                op x { use light @ 0; use heavy @ 0..3; } }"#,
        );
        let out = run("RMD-L003", &s);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("`light` is dominated by `heavy`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn superset_alternative_is_dominated() {
        let s = subject(
            r#"machine "m" { resources { p; q; }
                op ld alt { { use p @ 0; } { use p @ 0; use q @ 1; } } }"#,
        );
        let out = run("RMD-L008", &s);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].severity, Severity::Info);
        assert!(out[0].message.contains("strict superset"));
    }

    #[test]
    fn symmetry_violation_is_reported_on_a_forged_matrix() {
        // Construction can never violate mirror symmetry, so forge a
        // matrix: 2 ∈ F[x][y] without −2 ∈ F[y][x].
        let mut sets = vec![LatencySet::new(); 4];
        sets[0].insert(0);
        sets[3].insert(0);
        sets[1].insert(2); // F[0][1] ∋ 2, mirror missing
        let f = ForbiddenMatrix::from_sets(2, sets);
        assert_eq!(f.check_symmetry(), Err((0, 1, 2)));
    }

    #[test]
    fn empty_alternative_flags_both_l006_and_l007() {
        let found = ids(r#"machine "m" { resources { r; } op nop { } op x { use r @ 0; } }"#);
        assert!(found.contains(&"RMD-L006"), "{found:?}");
        assert!(found.contains(&"RMD-L007"), "{found:?}");
        assert!(found.contains(&"RMD-L000"), "{found:?}");
    }

    #[test]
    fn redundancy_fingerprint_tracks_semantics() {
        let base = r#"machine "m" { resources { s0; s1; }
            op x { use s0 @ 0; use s1 @ 1; } op y { use s1 @ 0; } }"#;
        let shifted = r#"machine "m" { resources { s0; s1; }
            op x { use s0 @ 0; use s1 @ 2; } op y { use s1 @ 0; } }"#;
        let renamed = r#"machine "m" { resources { u0; u1; }
            op x { use u0 @ 0; use u1 @ 1; } op y { use u1 @ 0; } }"#;
        let report = |src| {
            lint_subject(&subject(src))
                .diagnostics
                .iter()
                .find(|d| d.id == "RMD-L009")
                .expect("L009 always fires on expandable machines")
                .message
                .clone()
        };
        assert_ne!(report(base), report(shifted), "matrix change must show");
        assert_eq!(report(base), report(renamed), "renames are not semantic");
    }

    #[test]
    fn never_selectable_is_order_sensitive() {
        // (source, expected L010 findings, message fragment)
        let cases: [(&str, usize, &str); 4] = [
            // Subset first: the superset alternative is unreachable.
            (
                r#"machine "m" { resources { p; q; }
                    op ld alt { { use p @ 0; } { use p @ 0; use q @ 1; } } }"#,
                1,
                "alternative 1 of `ld` is never selectable: alternative 0",
            ),
            // Superset first: the subset is still reached when p is busy.
            (
                r#"machine "m" { resources { p; q; }
                    op ld alt { { use p @ 0; use q @ 1; } { use p @ 0; } } }"#,
                0,
                "",
            ),
            // Disjoint alternatives: both selectable.
            (
                r#"machine "m" { resources { p; q; }
                    op ld alt { { use p @ 0; } { use q @ 0; } } }"#,
                0,
                "",
            ),
            // Equal tables are L008's duplicate, not L010's.
            (
                r#"machine "m" { resources { p; }
                    op ld alt { { use p @ 0; } { use p @ 0; } } }"#,
                0,
                "",
            ),
        ];
        for (src, expected, fragment) in cases {
            let s = subject(src);
            let out = run("RMD-L010", &s);
            assert_eq!(out.len(), expected, "{src}: {out:?}");
            if expected > 0 {
                assert_eq!(out[0].severity, Severity::Warning);
                assert!(out[0].message.contains(fragment), "{}", out[0].message);
            }
        }
    }

    #[test]
    fn ii_infeasible_flags_resmii_collisions() {
        // (source, expected L011 findings, message fragment)
        let cases: [(&str, usize, &str); 4] = [
            // r reused twice, 2 cycles apart: self-conflict at II = 2.
            (
                r#"machine "m" { resources { r; } op x { use r @ 0; use r @ 2; } }"#,
                1,
                "cannot sustain II=2 (its ResMII): `r`@0 and `r`@2",
            ),
            // 1 cycle apart: 1 is not a multiple of 2 — II = 2 works.
            (
                r#"machine "m" { resources { r; } op x { use r @ 0; use r @ 1; } }"#,
                0,
                "",
            ),
            // Collision on a non-bottleneck resource still counts:
            // ResMII = 3 (from r), but s@1 / s@4 collide mod 3.
            (
                r#"machine "m" { resources { r; s; }
                    op x { use r @ 0; use r @ 1; use r @ 2; use s @ 1; use s @ 4; } }"#,
                1,
                "`s`@1 and `s`@4",
            ),
            // No resource reused: nothing to report.
            (
                r#"machine "m" { resources { r; s; } op x { use r @ 0; use s @ 3; } }"#,
                0,
                "",
            ),
        ];
        for (src, expected, fragment) in cases {
            let s = subject(src);
            let out = run("RMD-L011", &s);
            assert_eq!(out.len(), expected, "{src}: {out:?}");
            if expected > 0 {
                assert_eq!(out[0].severity, Severity::Info);
                assert!(out[0].message.contains(fragment), "{}", out[0].message);
            }
        }
    }

    #[test]
    fn new_lints_raise_no_warnings_on_the_builtin_models() {
        // The CI machine-lint gate runs `--deny warnings` over every
        // built-in; RMD-L010 (a warning) must not fire on any of them,
        // and RMD-L011 stays informational wherever it fires.
        for m in rmd_machine::models::all_machines() {
            let s = LintSubject::from_machine(&m);
            assert_eq!(run("RMD-L010", &s), Vec::new(), "{}", m.name());
            let out = run("RMD-L011", &s);
            assert!(
                out.iter().all(|d| d.severity == Severity::Info),
                "{}: {out:?}",
                m.name()
            );
        }
    }
}
