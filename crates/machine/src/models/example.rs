//! The paper's Figure 1 running example.

use crate::MachineDescription;

/// The hypothetical two-operation machine of the paper's Figure 1, parsed
/// from `machines/example.mdl`.
pub fn example_machine() -> MachineDescription {
    super::builtin("fig1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbidden_latencies_match_paper() {
        let m = example_machine();
        let a = m.operation(m.op_by_name("A").unwrap()).table();
        let b = m.operation(m.op_by_name("B").unwrap()).table();

        // F[X][Y] contains j  <=>  X cannot issue j cycles after Y
        //                     <=>  Y.collides_at(X, j).
        // F[A][A] = {0}
        for j in -10..=10i64 {
            assert_eq!(a.collides_at(a, j), j == 0, "F[A][A] at {j}");
        }
        // F[B][A] = {1}: B cannot issue 1 cycle after A.
        for j in -10..=10i64 {
            assert_eq!(a.collides_at(b, j), j == 1, "F[B][A] at {j}");
        }
        // F[A][B] = {-1}.
        for j in -10..=10i64 {
            assert_eq!(b.collides_at(a, j), j == -1, "F[A][B] at {j}");
        }
        // F[B][B] = {0, ±1, ±2, ±3}.
        for j in -10..=10i64 {
            assert_eq!(b.collides_at(b, j), j.abs() <= 3, "F[B][B] at {j}");
        }
    }
}
