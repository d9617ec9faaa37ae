//! End-to-end schedule re-validation: pass 3 of a certificate.
//!
//! The product passes prove the two descriptions answer every
//! contention query identically; this pass closes the loop the way a
//! compiler would hit it: schedule small, deterministic dependence
//! graphs with IMS *on the reduced description*, then hand each result
//! to [`rmd_sched::validate`], which re-simulates it against the
//! **original** tables. The graphs are derived from the
//! machine's own operations (an acyclic chain, a loop-carried
//! recurrence, and a diamond), so every machine exercises its own
//! pipelines without any external loop suite.

use crate::{CertifyError, CertifyFailure};
use rmd_machine::{MachineDescription, OpId};
use rmd_sched::{validate, DepGraph, DepKind, ImsConfig, IterativeModuloScheduler, Representation};

/// Distinct sample operations spread across the op list: first, last,
/// and two interior ops.
fn sample_ops(m: &MachineDescription) -> Vec<OpId> {
    let n = m.num_operations();
    let mut picks = vec![0, n / 3, (2 * n) / 3, n.saturating_sub(1)];
    picks.sort_unstable();
    picks.dedup();
    picks.into_iter().map(|i| OpId(i as u32)).collect()
}

/// The deterministic per-machine graph suite.
fn sample_graphs(m: &MachineDescription) -> Vec<DepGraph> {
    let ops = sample_ops(m);
    let mut graphs = Vec::new();

    // 1. An acyclic chain over all sample ops.
    let mut chain = DepGraph::new();
    let nodes: Vec<_> = ops.iter().map(|&op| chain.add_node(op)).collect();
    for w in nodes.windows(2) {
        chain.add_edge(w[0], w[1], 1, 0, DepKind::Flow);
    }
    graphs.push(chain);

    // 2. The same chain with a loop-carried recurrence closing it.
    let mut rec = DepGraph::new();
    let nodes: Vec<_> = ops.iter().map(|&op| rec.add_node(op)).collect();
    for w in nodes.windows(2) {
        rec.add_edge(w[0], w[1], 1, 0, DepKind::Flow);
    }
    if let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) {
        rec.add_edge(last, first, 2, 1, DepKind::Flow);
    }
    graphs.push(rec);

    // 3. A diamond, when the machine offers enough distinct ops.
    if ops.len() >= 4 {
        let mut d = DepGraph::new();
        let a = d.add_node(ops[0]);
        let b = d.add_node(ops[1]);
        let c = d.add_node(ops[2]);
        let j = d.add_node(ops[3]);
        d.add_edge(a, b, 1, 0, DepKind::Flow);
        d.add_edge(a, c, 1, 0, DepKind::Flow);
        d.add_edge(b, j, 1, 0, DepKind::Flow);
        d.add_edge(c, j, 1, 0, DepKind::Anti);
        graphs.push(d);
    }
    graphs
}

/// Schedule the sample graphs on `reduced` and re-validate every result
/// against `original`. Returns the number of schedules checked.
pub(crate) fn check_schedules(
    original: &MachineDescription,
    reduced: &MachineDescription,
) -> Result<u64, CertifyFailure> {
    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    let mut checked = 0u64;
    for (sample, g) in sample_graphs(original).iter().enumerate() {
        let result = match ims.schedule(g, reduced, Representation::Discrete) {
            Ok(r) => r,
            // An infeasible sample graph is not an equivalence question;
            // skip it rather than fail the certificate.
            Err(_) => continue,
        };
        if let Err(error) = validate(g, original, &result) {
            return Err(CertifyFailure::Error(CertifyError::Schedule {
                sample,
                error,
                // Valid on the reduced tables too: the reduction, not
                // the scheduler, lost a constraint.
                valid_on_reduced: validate(g, reduced, &result).is_ok(),
            }));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_core::Objective;
    use rmd_machine::models;
    use rmd_sched::ScheduleError;

    #[test]
    fn reduced_schedules_validate_against_the_original() {
        for m in [models::example_machine(), models::cydra5_subset()] {
            let red = rmd_core::reduce(&m, Objective::ResUses);
            let checked = check_schedules(&m, &red.reduced).expect("reduction is honest");
            assert!(checked >= 2, "machine {}: {checked}", m.name());
        }
    }

    #[test]
    fn reduced_only_validity_is_pinned_on_the_reduction() {
        // A deliberately wrong "reduction" of fig1: one resource at
        // cycle 0, so IMS overlaps ops the original keeps apart.
        let m = models::example_machine();
        let bogus = crate::tests::broken(&m);
        match check_schedules(&m, &bogus) {
            Err(CertifyFailure::Error(CertifyError::Schedule {
                error: ScheduleError::ResourceConflict { .. },
                valid_on_reduced: true,
                ..
            })) => {}
            other => panic!("the original must reject the bogus schedule: {other:?}"),
        }
    }
}
