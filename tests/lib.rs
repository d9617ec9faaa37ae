//! Shared strategies and helpers for the integration tests.

use proptest::prelude::*;
use rmd_latency::ForbiddenMatrix;
use rmd_machine::{mdl, MachineBuilder, MachineDescription};

/// A compact description of a random machine: per operation, a list of
/// `(resource, cycle)` usages.
pub type MachineSpec = Vec<Vec<(u32, u32)>>;

/// Proptest strategy for small random machines: up to `max_res`
/// resources, `max_ops` operations, each with 1..=`max_usages` usages in
/// cycles `0..max_cycle`.
pub fn arb_machine_spec(
    max_res: u32,
    max_ops: usize,
    max_usages: usize,
    max_cycle: u32,
) -> impl Strategy<Value = MachineSpec> {
    prop::collection::vec(
        prop::collection::vec((0..max_res, 0..max_cycle), 1..=max_usages),
        1..=max_ops,
    )
}

/// Builds the machine a spec describes. Resources are allocated densely
/// (`r0..`); duplicate usages collapse.
pub fn build_machine(spec: &MachineSpec) -> MachineDescription {
    let max_res = spec.iter().flatten().map(|&(r, _)| r).max().unwrap_or(0);
    let mut b = MachineBuilder::new("prop");
    let rs: Vec<_> = (0..=max_res).map(|i| b.resource(format!("r{i}"))).collect();
    for (i, usages) in spec.iter().enumerate() {
        let mut ob = b.operation(format!("op{i}"));
        for &(r, c) in usages {
            ob = ob.usage(rs[r as usize], c);
        }
        ob.finish();
    }
    b.build().expect("spec machines are valid")
}

/// Like [`build_machine`], but every operation also reserves a shared
/// issue stage in cycle 0 (a single-issue machine). Keeps automaton
/// state spaces small — without it, machines whose usages all sit at
/// late offsets can stack unboundedly many in-flight operations and the
/// unminimized automaton explodes (the paper's §2 size concern).
pub fn build_single_issue_machine(spec: &MachineSpec) -> MachineDescription {
    let max_res = spec.iter().flatten().map(|&(r, _)| r).max().unwrap_or(0);
    let mut b = MachineBuilder::new("prop-si");
    let issue = b.resource("issue");
    let rs: Vec<_> = (0..=max_res).map(|i| b.resource(format!("r{i}"))).collect();
    for (i, usages) in spec.iter().enumerate() {
        let mut ob = b.operation(format!("op{i}")).usage(issue, 0);
        for &(r, c) in usages {
            ob = ob.usage(rs[r as usize], c);
        }
        ob.finish();
    }
    b.build().expect("spec machines are valid")
}

/// Prints `m` as MDL and reparses the text, asserting that the result is
/// an equal machine with an identical forbidden matrix. `what` names the
/// machine in failure messages.
pub fn assert_mdl_round_trip(m: &MachineDescription, what: &str) {
    let printed = mdl::print(m);
    let (back, _) = mdl::parse_machine(&printed).unwrap_or_else(|e| panic!("{what} reprint: {e}"));
    assert_eq!(&back, m, "{what}: print/reparse equality");
    assert_eq!(
        ForbiddenMatrix::compute(&back),
        ForbiddenMatrix::compute(m),
        "{what}: forbidden-matrix round trip"
    );
}

/// Deterministic pseudo-random sequence generator for query scripts.
pub struct Lcg(pub u64);

impl Lcg {
    /// Next raw value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    /// Next value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}
