//! Versioned, machine-checkable equivalence certificates.
//!
//! A certificate records everything a downstream tool needs to *trust a
//! reduction without re-running it*: the content fingerprint binding it
//! to one exact machine description, the forbidden-matrix fingerprint of
//! the semantics both sides share, and per-objective proof statistics
//! (reachable product-state counts, the II bound of the modulo pass,
//! the status of the budget-gated global pass, and how many sample
//! schedules pass 3 re-validated with `rmd_sched::validate`). Rendering
//! is fully deterministic — fixed key order, no timestamps — so golden
//! `certs/*.json` files can be compared byte-for-byte in CI.

use rmd_obs::export::push_json_string;
use serde_json::Value;
use std::fmt::Write as _;

/// The certificate schema identifier this crate emits and accepts.
pub const CERT_SCHEMA: &str = "rmd-cert/1";

/// Proof statistics for one reduction objective of one machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectiveCert {
    /// Objective label (`res-uses` or `word-<k>`).
    pub objective: String,
    /// Content fingerprint of the reduced description.
    pub reduced_fingerprint: String,
    /// Resources in the reduced description.
    pub reduced_resources: usize,
    /// Total usages in the reduced description.
    pub reduced_usages: usize,
    /// Unordered operation pairs certified by the linear product pass.
    pub pairs: u64,
    /// Total reachable pair-product states across all pairs.
    pub pair_product_states: u64,
    /// Largest single pair's reachable product-state count.
    pub max_pair_states: u64,
    /// Largest initiation interval checked by the modulo pass.
    pub modulo_max_ii: u32,
    /// Folded modulo comparisons performed.
    pub modulo_comparisons: u64,
    /// Whether the global commitment-product pass ran to completion.
    pub global_completed: bool,
    /// Product states the global pass explored.
    pub global_states: u64,
    /// Sample schedules re-validated against the original description
    /// by `rmd_sched::validate`.
    pub schedules_checked: u64,
}

/// A complete equivalence certificate for one machine description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Machine name (built-in model name or file stem).
    pub machine: String,
    /// Content fingerprint of the original description (`rmd-` + hex),
    /// identical to the key `rmd serve` caches under.
    pub fingerprint: String,
    /// Forbidden-matrix fingerprint (16 hex digits) — the semantics
    /// every certified reduction preserves.
    pub matrix_fingerprint: String,
    /// Operation count of the description.
    pub operations: usize,
    /// Resource count of the description.
    pub resources: usize,
    /// One entry per certified reduction objective.
    pub objectives: Vec<ObjectiveCert>,
}

impl Certificate {
    /// Render the certificate as deterministic, pretty-printed JSON
    /// (fixed key order, two-space indent, trailing newline).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{CERT_SCHEMA}\",");
        let _ = writeln!(s, "  \"status\": \"equivalent\",");
        push_string_field(&mut s, "  ", "machine", &self.machine);
        push_string_field(&mut s, "  ", "fingerprint", &self.fingerprint);
        push_string_field(&mut s, "  ", "matrix_fingerprint", &self.matrix_fingerprint);
        let _ = writeln!(s, "  \"operations\": {},", self.operations);
        let _ = writeln!(s, "  \"resources\": {},", self.resources);
        s.push_str("  \"objectives\": [\n");
        for (i, o) in self.objectives.iter().enumerate() {
            s.push_str("    {\n");
            push_string_field(&mut s, "      ", "objective", &o.objective);
            push_string_field(
                &mut s,
                "      ",
                "reduced_fingerprint",
                &o.reduced_fingerprint,
            );
            let _ = writeln!(s, "      \"reduced_resources\": {},", o.reduced_resources);
            let _ = writeln!(s, "      \"reduced_usages\": {},", o.reduced_usages);
            let _ = writeln!(s, "      \"pairs\": {},", o.pairs);
            let _ = writeln!(
                s,
                "      \"pair_product_states\": {},",
                o.pair_product_states
            );
            let _ = writeln!(s, "      \"max_pair_states\": {},", o.max_pair_states);
            let _ = writeln!(s, "      \"modulo_max_ii\": {},", o.modulo_max_ii);
            let _ = writeln!(s, "      \"modulo_comparisons\": {},", o.modulo_comparisons);
            let _ = writeln!(s, "      \"global_completed\": {},", o.global_completed);
            let _ = writeln!(s, "      \"global_states\": {},", o.global_states);
            let _ = writeln!(s, "      \"schedules_checked\": {}", o.schedules_checked);
            s.push_str(if i + 1 == self.objectives.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a certificate back from JSON, validating the schema and
    /// status fields. Returns `None` for anything that is not a valid
    /// `rmd-cert/1` document with `status: "equivalent"`.
    pub fn parse(src: &str) -> Option<Certificate> {
        let v = serde_json::from_str(src).ok()?;
        if v.get("schema")?.as_str()? != CERT_SCHEMA {
            return None;
        }
        if v.get("status")?.as_str()? != "equivalent" {
            return None;
        }
        let objectives = v
            .get("objectives")?
            .as_array()?
            .iter()
            .map(parse_objective)
            .collect::<Option<Vec<_>>>()?;
        Some(Certificate {
            machine: v.get("machine")?.as_str()?.to_string(),
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            matrix_fingerprint: v.get("matrix_fingerprint")?.as_str()?.to_string(),
            operations: v.get("operations")?.as_u64()? as usize,
            resources: v.get("resources")?.as_u64()? as usize,
            objectives,
        })
    }

    /// Whether `src` is a valid certificate vouching for the machine
    /// with content fingerprint `fingerprint` — the check `rmd serve`
    /// performs before admitting a machine.
    pub fn vouches_for(src: &str, fingerprint: &str) -> bool {
        Certificate::parse(src).is_some_and(|c| c.fingerprint == fingerprint)
    }
}

/// Appends one `"key": "value",` line of a certificate.
fn push_string_field(s: &mut String, indent: &str, key: &str, value: &str) {
    let _ = write!(s, "{indent}\"{key}\": ");
    push_json_string(s, value);
    s.push_str(",\n");
}

fn parse_objective(v: &Value) -> Option<ObjectiveCert> {
    Some(ObjectiveCert {
        objective: v.get("objective")?.as_str()?.to_string(),
        reduced_fingerprint: v.get("reduced_fingerprint")?.as_str()?.to_string(),
        reduced_resources: v.get("reduced_resources")?.as_u64()? as usize,
        reduced_usages: v.get("reduced_usages")?.as_u64()? as usize,
        pairs: v.get("pairs")?.as_u64()?,
        pair_product_states: v.get("pair_product_states")?.as_u64()?,
        max_pair_states: v.get("max_pair_states")?.as_u64()?,
        modulo_max_ii: u32::try_from(v.get("modulo_max_ii")?.as_u64()?).ok()?,
        modulo_comparisons: v.get("modulo_comparisons")?.as_u64()?,
        global_completed: v.get("global_completed")?.as_bool()?,
        global_states: v.get("global_states")?.as_u64()?,
        schedules_checked: v.get("schedules_checked")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            machine: "fig1".into(),
            fingerprint: "rmd-0123456789abcdef".into(),
            matrix_fingerprint: "fedcba9876543210".into(),
            operations: 4,
            resources: 7,
            objectives: vec![ObjectiveCert {
                objective: "res-uses".into(),
                reduced_fingerprint: "rmd-1111111111111111".into(),
                reduced_resources: 3,
                reduced_usages: 5,
                pairs: 10,
                pair_product_states: 321,
                max_pair_states: 64,
                modulo_max_ii: 5,
                modulo_comparisons: 1234,
                global_completed: true,
                global_states: 116,
                schedules_checked: 3,
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let c = sample();
        let json = c.render_json();
        assert_eq!(Certificate::parse(&json), Some(c.clone()));
        // Deterministic rendering: same value, same bytes.
        assert_eq!(json, sample().render_json());
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn out_of_range_modulo_max_ii_is_rejected() {
        let json = sample().render_json();
        let wide = json.replace("\"modulo_max_ii\": 5,", "\"modulo_max_ii\": 4294967296,");
        assert_ne!(wide, json);
        assert_eq!(Certificate::parse(&wide), None);
        assert!(!Certificate::vouches_for(&wide, "rmd-0123456789abcdef"));
    }

    #[test]
    fn vouches_only_for_matching_fingerprint() {
        let json = sample().render_json();
        assert!(Certificate::vouches_for(&json, "rmd-0123456789abcdef"));
        assert!(!Certificate::vouches_for(&json, "rmd-ffffffffffffffff"));
        assert!(!Certificate::vouches_for(
            "not json",
            "rmd-0123456789abcdef"
        ));
        let wrong_schema = json.replace("rmd-cert/1", "rmd-cert/9");
        assert!(!Certificate::vouches_for(
            &wrong_schema,
            "rmd-0123456789abcdef"
        ));
    }
}
