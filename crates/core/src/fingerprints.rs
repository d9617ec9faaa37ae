//! Stable fingerprints of reduction sub-results.
//!
//! The forbidden-latency matrix is the paper's equivalence condition:
//! two descriptions are interchangeable for scheduling exactly when
//! their matrices agree. [`matrix_fingerprint`] condenses a matrix into
//! a 64-bit FNV-1a hash over its `(x, y, latency)` triples in row-major
//! order, so a semantic change to a description visibly changes one
//! number. The same value appears in three places — the RMD-L009 lint
//! message, `rmd certify` certificates, and the rmd-fault audit — which
//! lets findings from all three tools be joined without re-deriving the
//! matrix.

use rmd_latency::ForbiddenMatrix;
use rmd_machine::fnv::Fnv64;

/// FNV-1a 64-bit hash over every `(x, y, latency)` triple of the
/// forbidden-latency matrix, in row-major order with latencies in the
/// [`rmd_latency::LatencySet`] iteration order.
///
/// Mixes whole `u64` values per [`Fnv64::mix_u64`] — the granularity
/// the golden certificates under `certs/` pin.
pub fn matrix_fingerprint(f: &ForbiddenMatrix) -> u64 {
    let mut h = Fnv64::new();
    for x in 0..f.num_ops() {
        for y in 0..f.num_ops() {
            for lat in f.get_idx(x, y).iter() {
                h.mix_u64(x as u64);
                h.mix_u64(y as u64);
                h.mix_u64(lat as u32 as u64);
            }
        }
    }
    h.finish()
}

/// [`matrix_fingerprint`] rendered as 16 lowercase hex digits — the
/// textual form used by certificates and the RMD-L009 lint message.
pub fn matrix_fingerprint_hex(f: &ForbiddenMatrix) -> String {
    format!("{:016x}", matrix_fingerprint(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models;

    #[test]
    fn equivalent_descriptions_share_a_fingerprint() {
        let m = models::example_machine();
        let f = ForbiddenMatrix::compute(&m);
        let r = crate::reduce(&m, crate::Objective::ResUses);
        let rf = ForbiddenMatrix::compute(&r.reduced);
        assert_eq!(matrix_fingerprint(&f), matrix_fingerprint(&rf));
    }

    #[test]
    fn different_machines_differ() {
        let a = ForbiddenMatrix::compute(&models::example_machine());
        let b = ForbiddenMatrix::compute(&models::cydra5_subset());
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&b));
        assert_eq!(matrix_fingerprint_hex(&a).len(), 16);
    }
}
