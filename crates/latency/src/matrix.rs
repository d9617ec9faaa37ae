//! The forbidden-latency matrix.

use crate::latency_set::LatencySet;
use core::fmt;
use rmd_machine::{MachineDescription, OpId};

/// The matrix of forbidden latency sets for all operation pairs
/// (paper §3, Equation 1).
///
/// `get(x, y)` is `F[X][Y] = { j | X may not issue j cycles after Y }`.
/// [`compute`](Self::compute) is the only public constructor (a class
/// partition restricts a matrix to its representatives, which keeps
/// both), and two invariants hold by construction (checked in tests):
///
/// * `0 ∈ F[X][X]` for every operation that uses any resource;
/// * `f ∈ F[X][Y] ⇔ −f ∈ F[Y][X]`.
///
/// The reduction's formal goal (paper §3) is to synthesize a machine whose
/// forbidden-latency matrix is **identical** to the original's; matrix
/// equality (`PartialEq`) is therefore the acceptance test for the entire
/// pipeline.
#[derive(Clone, PartialEq, Eq)]
pub struct ForbiddenMatrix {
    n: usize,
    /// Row-major: `sets[x * n + y] = F[X][Y]`.
    sets: Vec<LatencySet>,
}

impl ForbiddenMatrix {
    /// Computes the forbidden-latency matrix of `machine`.
    ///
    /// For each resource shared by a pair of operations the latency
    /// `y − x` is forbidden for every usage pair `(x, y)`; this runs in
    /// time linear in the number of colliding usage pairs.
    pub fn compute(machine: &MachineDescription) -> Self {
        let n = machine.num_operations();
        let mut sets = vec![LatencySet::new(); n * n];
        // Group usage cycles by resource for each op once.
        let nr = machine.num_resources();
        let mut by_resource: Vec<Vec<(usize, Vec<i64>)>> = vec![Vec::new(); nr];
        for (id, op) in machine.ops() {
            for r in op.table().resources() {
                let cycles = op.table().usage_set(r).into_iter().map(i64::from).collect();
                by_resource[r.index()].push((id.index(), cycles));
            }
        }
        for users in &by_resource {
            for (xi, xcycles) in users {
                for (yi, ycycles) in users {
                    let set = &mut sets[xi * n + yi];
                    for &x in xcycles {
                        for &y in ycycles {
                            let d = y - x;
                            set.insert(d as i32);
                        }
                    }
                }
            }
        }
        ForbiddenMatrix { n, sets }
    }

    /// The matrix of the operations `ops` (indices into this one), in
    /// that order.
    pub(crate) fn restrict(&self, ops: &[usize]) -> Self {
        let sets = ops
            .iter()
            .flat_map(|&x| ops.iter().map(move |&y| self.get_idx(x, y).clone()))
            .collect();
        ForbiddenMatrix { n: ops.len(), sets }
    }

    /// Number of operations the matrix covers.
    pub fn num_ops(&self) -> usize {
        self.n
    }

    /// The forbidden latency set `F[X][Y]`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn get(&self, x: OpId, y: OpId) -> &LatencySet {
        &self.sets[x.index() * self.n + y.index()]
    }

    /// Like [`get`](Self::get) but with raw indices, for inner loops.
    #[inline]
    pub fn get_idx(&self, x: usize, y: usize) -> &LatencySet {
        &self.sets[x * self.n + y]
    }

    /// Whether `X` may not issue `f` cycles after `Y`.
    #[inline]
    pub fn forbids(&self, x: OpId, f: i32, y: OpId) -> bool {
        self.get(x, y).contains(f)
    }

    /// Total number of nonnegative forbidden latencies over all pairs —
    /// the count the paper reports (e.g. 10223 for the Cydra 5).
    pub fn total_nonneg(&self) -> usize {
        self.sets.iter().map(LatencySet::len_nonneg).sum()
    }

    /// The largest forbidden latency anywhere in the matrix.
    pub fn max_latency(&self) -> i32 {
        self.sets
            .iter()
            .filter_map(LatencySet::max)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for ForbiddenMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ForbiddenMatrix ({} ops):", self.n)?;
        for x in 0..self.n {
            for y in 0..self.n {
                let s = self.get_idx(x, y);
                if !s.is_empty() {
                    writeln!(f, "  F[{x}][{y}] = {s}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::{all_machines, example_machine};

    /// The first `(x, y, f)` with `f ∈ F[X][Y]` but `−f ∉ F[Y][X]`.
    fn check_symmetry(f: &ForbiddenMatrix) -> Result<(), (usize, usize, i32)> {
        for x in 0..f.num_ops() {
            for y in 0..f.num_ops() {
                for lat in f.get_idx(x, y).iter() {
                    if !f.get_idx(y, x).contains(-lat) {
                        return Err((x, y, lat));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn example_machine_matches_figure_1b() {
        let m = example_machine();
        let f = ForbiddenMatrix::compute(&m);
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        assert_eq!(f.get(a, a).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(f.get(b, a).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(f.get(a, b).iter().collect::<Vec<_>>(), vec![-1]);
        assert_eq!(
            f.get(b, b).iter().collect::<Vec<_>>(),
            vec![-3, -2, -1, 0, 1, 2, 3]
        );
        // 0∈F[A][A], 1∈F[B][A], 0..3∈F[B][B]: six nonnegative latencies.
        assert_eq!(f.total_nonneg(), 6);
        assert_eq!(f.max_latency(), 3);
    }

    #[test]
    fn matrix_agrees_with_direct_collision_test() {
        for m in all_machines() {
            let f = ForbiddenMatrix::compute(&m);
            let bound = i64::from(m.max_table_length()) + 2;
            for (x, xop) in m.ops() {
                for (y, yop) in m.ops() {
                    for j in -bound..=bound {
                        let collide = yop.table().collides_at(xop.table(), j);
                        assert_eq!(
                            f.forbids(x, j as i32, y),
                            collide,
                            "{}: F[{}][{}] at {}",
                            m.name(),
                            xop.name(),
                            yop.name(),
                            j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn symmetry_holds_for_all_models() {
        for m in all_machines() {
            let f = ForbiddenMatrix::compute(&m);
            assert_eq!(check_symmetry(&f), Ok(()), "{}", m.name());
        }
    }

    #[test]
    fn self_contention_zero_always_present() {
        for m in all_machines() {
            let f = ForbiddenMatrix::compute(&m);
            for (x, _) in m.ops() {
                assert!(f.forbids(x, 0, x), "{}: 0∈F[X][X]", m.name());
            }
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use rmd_machine::MachineBuilder;

    #[test]
    fn debug_lists_nonempty_cells_only() {
        let mut b = MachineBuilder::new("m");
        let r0 = b.resource("a");
        let r1 = b.resource("b");
        b.operation("x").usage(r0, 0).finish();
        b.operation("y").usage(r1, 0).finish();
        let f = ForbiddenMatrix::compute(&b.build().unwrap());
        let s = format!("{f:?}");
        assert!(s.contains("F[0][0]"));
        assert!(!s.contains("F[0][1]"), "{s}");
    }

    #[test]
    fn total_nonneg_counts_only_one_orientation() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        b.operation("y").usage(r, 2).finish();
        let f = ForbiddenMatrix::compute(&b.build().unwrap());
        // Latencies: 0∈F[x][x], 0∈F[y][y], 2∈F[x][y], −2∈F[y][x].
        assert_eq!(f.total_nonneg(), 3);
        assert_eq!(f.max_latency(), 2);
    }

    #[test]
    fn get_idx_matches_get() {
        let m = rmd_machine::models::example_machine();
        let f = ForbiddenMatrix::compute(&m);
        for x in 0..f.num_ops() {
            for y in 0..f.num_ops() {
                assert_eq!(
                    f.get_idx(x, y),
                    f.get(rmd_machine::OpId(x as u32), rmd_machine::OpId(y as u32))
                );
            }
        }
    }
}
