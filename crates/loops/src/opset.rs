//! The operation vocabulary the generators draw from.

use rmd_machine::{MachineDescription, OpId};

/// The operations (and their producer latencies) that loop bodies are
/// built from — the Cydra 5 benchmark-subset vocabulary.
#[derive(Clone, Debug)]
pub struct OpSet {
    /// Word loads, one per memory port.
    pub load: [OpId; 2],
    /// Word stores, one per memory port.
    pub store: [OpId; 2],
    /// Address adds, one per address unit.
    pub aadd: [OpId; 2],
    /// FP add (also subtract).
    pub fadd: OpId,
    /// FP multiply, single precision.
    pub fmul: OpId,
    /// FP multiply, double precision.
    pub fmuld: OpId,
    /// Integer ALU op.
    pub iadd: OpId,
    /// Reciprocal Newton step (the Cydra's divide building block).
    pub recip: OpId,
    /// The loop-control branch.
    pub brtop: OpId,
    latency: Vec<i32>,
}

impl OpSet {
    /// Resolves the vocabulary against the Cydra 5 benchmark subset
    /// (`rmd_machine::models::cydra5_subset`).
    ///
    /// # Panics
    ///
    /// Panics if `m` lacks any of the subset operations.
    pub fn for_cydra_subset(m: &MachineDescription) -> Self {
        Self::try_for_cydra_subset(m).unwrap_or_else(|n| panic!("machine lacks op `{n}`"))
    }

    /// Resolves the vocabulary against `m`, the fallible form of
    /// [`OpSet::for_cydra_subset`] for machines that may not carry it.
    ///
    /// # Errors
    ///
    /// Returns the name of the first subset operation `m` lacks, checked
    /// in the order loads, stores, address adds, `fadd`, `fmul`,
    /// `fmul.d`, `iadd`, `recip`, `brtop`.
    pub fn try_for_cydra_subset(m: &MachineDescription) -> Result<Self, &'static str> {
        let get = |n: &'static str| m.op_by_name(n).ok_or(n);
        let mut latency = vec![1i32; m.num_operations()];
        let mut set = |op: OpId, l: i32| latency[op.index()] = l;
        let load = [get("load.w.0")?, get("load.w.1")?];
        let store = [get("store.w.0")?, get("store.w.1")?];
        let aadd = [get("aadd.0")?, get("aadd.1")?];
        let fadd = get("fadd")?;
        let fmul = get("fmul")?;
        let fmuld = get("fmul.d")?;
        let iadd = get("iadd")?;
        let recip = get("recip")?;
        let brtop = get("brtop")?;
        // Producer latencies: one past the write-back cycle.
        set(load[0], 21);
        set(load[1], 21);
        set(aadd[0], 3);
        set(aadd[1], 3);
        set(fadd, 7);
        set(fmul, 6);
        set(fmuld, 8);
        set(iadd, 3);
        set(recip, 11);
        set(brtop, 1);
        Ok(OpSet {
            load,
            store,
            aadd,
            fadd,
            fmul,
            fmuld,
            iadd,
            recip,
            brtop,
            latency,
        })
    }

    /// Result latency of `op` (cycles until a consumer may issue).
    pub fn latency(&self, op: OpId) -> i32 {
        self.latency[op.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::cydra5_subset;

    #[test]
    fn resolves_against_subset_machine() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        assert_eq!(ops.latency(ops.load[0]), 21);
        assert_eq!(ops.latency(ops.fadd), 7);
        assert_ne!(ops.load[0], ops.load[1]);
        assert!(OpSet::try_for_cydra_subset(&m).is_ok());
    }

    #[test]
    #[should_panic(expected = "machine lacks op `load.w.0`")]
    fn panics_on_wrong_machine() {
        let m = rmd_machine::models::mips_r3000();
        assert_eq!(OpSet::try_for_cydra_subset(&m).err(), Some("load.w.0"));
        let _ = OpSet::for_cydra_subset(&m);
    }
}
