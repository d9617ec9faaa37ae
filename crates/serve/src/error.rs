//! The daemon's typed error replies.
//!
//! Every failure a request can hit — protocol-level (malformed frame,
//! oversized line), the full [`RmdError`] taxonomy, resource exhaustion
//! (deadline, step budget), availability (overload, shutdown), and
//! isolation (a request that panicked) — maps onto one structured JSON
//! reply `{"ok":false,"error":{"code":…,"kind":…,"detail":…}}` with a
//! stable numeric code, so clients can branch without string-matching.

use rmd_core::RmdError;
use std::fmt::{self, Write};

/// A typed failure reply. Codes are stable API: protocol errors are
/// `10x`, the `RmdError` taxonomy is `11x`, resource exhaustion `12x`,
/// availability `13x`, and isolation `14x`.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The frame was not a single well-formed JSON object.
    Malformed {
        /// Parser message with byte offset.
        detail: String,
    },
    /// The frame exceeded the line-length limit.
    Oversized {
        /// Configured maximum frame length in bytes.
        limit: usize,
        /// Actual frame length in bytes.
        actual: usize,
    },
    /// The `type` member named no known request.
    UnknownType {
        /// The offending type string.
        got: String,
    },
    /// The frame was well-formed JSON but violated the request schema.
    BadRequest {
        /// What was missing or mistyped.
        detail: String,
    },
    /// The request referenced a machine fingerprint the daemon does not
    /// hold (never submitted, or evicted).
    UnknownFingerprint {
        /// The fingerprint the client sent.
        got: String,
    },
    /// The daemon requires certificates and none on disk vouches for
    /// this machine. Run `rmd certify <machine> --out <dir>` or start
    /// the daemon with `--uncertified`.
    Uncertified {
        /// The content fingerprint no certificate vouches for.
        fingerprint: String,
    },
    /// A core pipeline error, carrying the full [`RmdError`] taxonomy.
    Rmd(RmdError),
    /// The request missed its deadline.
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        deadline_ms: u64,
    },
    /// The admission queue was full; the request was shed, not queued.
    Overloaded {
        /// Hint: retry after this many milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining and admits no new work.
    ShuttingDown,
    /// The request panicked; it was isolated and any cached state it
    /// touched was quarantined.
    Panicked {
        /// The panic payload, if it was a string.
        detail: String,
    },
}

impl ServeError {
    /// The stable numeric code for this error.
    pub fn code(&self) -> u32 {
        match self {
            ServeError::Malformed { .. } => 100,
            ServeError::Oversized { .. } => 101,
            ServeError::UnknownType { .. } => 102,
            ServeError::BadRequest { .. } => 103,
            ServeError::UnknownFingerprint { .. } => 104,
            ServeError::Uncertified { .. } => 105,
            ServeError::Rmd(e) => match e {
                RmdError::Parse(_) => 110,
                RmdError::InvalidMachine(_) => 111,
                RmdError::LimitExceeded { .. } => 112,
                RmdError::VerificationFailed(_) => 114,
                RmdError::Io(_) => 115,
                RmdError::BudgetExhausted { .. } => 120,
                RmdError::Unschedulable { .. } => 121,
            },
            ServeError::Timeout { .. } => 130,
            ServeError::Overloaded { .. } => 131,
            ServeError::ShuttingDown => 132,
            ServeError::Panicked { .. } => 140,
        }
    }

    /// The machine-readable kind string for this error.
    pub fn kind(&self) -> &'static str {
        &self.counter_name()["serve.errors.".len()..]
    }

    /// The counter of this error's kind, `serve.errors.<kind>`: one
    /// static name per kind, so counting an error formats nothing.
    pub(crate) fn counter_name(&self) -> &'static str {
        match self {
            ServeError::Malformed { .. } => "serve.errors.malformed",
            ServeError::Oversized { .. } => "serve.errors.oversized",
            ServeError::UnknownType { .. } => "serve.errors.unknown_type",
            ServeError::BadRequest { .. } => "serve.errors.bad_request",
            ServeError::UnknownFingerprint { .. } => "serve.errors.unknown_fingerprint",
            ServeError::Uncertified { .. } => "serve.errors.uncertified",
            ServeError::Rmd(e) => match e {
                RmdError::Parse(_) => "serve.errors.parse",
                RmdError::InvalidMachine(_) => "serve.errors.invalid_machine",
                RmdError::LimitExceeded { .. } => "serve.errors.limit_exceeded",
                RmdError::VerificationFailed(_) => "serve.errors.verification_failed",
                RmdError::Io(_) => "serve.errors.io",
                RmdError::BudgetExhausted { .. } => "serve.errors.budget_exhausted",
                RmdError::Unschedulable { .. } => "serve.errors.unschedulable",
            },
            ServeError::Timeout { .. } => "serve.errors.timeout",
            ServeError::Overloaded { .. } => "serve.errors.overloaded",
            ServeError::ShuttingDown => "serve.errors.shutting_down",
            ServeError::Panicked { .. } => "serve.errors.panicked",
        }
    }

    /// The human-readable detail string for this error.
    pub fn detail(&self) -> String {
        match self {
            ServeError::Malformed { detail } => detail.clone(),
            ServeError::Oversized { limit, actual } => {
                format!("frame of {actual} bytes exceeds the {limit}-byte limit")
            }
            ServeError::UnknownType { got } => format!("unknown request type {got:?}"),
            ServeError::BadRequest { detail } => detail.clone(),
            ServeError::UnknownFingerprint { got } => {
                format!("no machine cached under fingerprint {got:?}")
            }
            ServeError::Uncertified { fingerprint } => format!(
                "no certificate vouches for machine {fingerprint:?}; \
                 run `rmd certify` first or serve with --uncertified"
            ),
            ServeError::Rmd(e) => e.to_string(),
            ServeError::Timeout { deadline_ms } => {
                format!("request missed its {deadline_ms}ms deadline")
            }
            ServeError::Overloaded { retry_after_ms } => {
                format!("admission queue full; retry after {retry_after_ms}ms")
            }
            ServeError::ShuttingDown => "daemon is draining; request rejected".to_string(),
            ServeError::Panicked { detail } => {
                format!("request panicked and was isolated: {detail}")
            }
        }
    }

    /// Renders the full error reply line (no trailing newline):
    /// `{"ok":false,"id":…,"error":{…}}` plus `retry_after_ms` for
    /// [`ServeError::Overloaded`].
    pub fn to_reply(&self, id: Option<&str>) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ok\":false,\"id\":");
        out.push_str(id.unwrap_or("null"));
        out.push_str(",\"error\":{\"code\":");
        let _ = write!(out, "{}", self.code());
        out.push_str(",\"kind\":");
        rmd_obs::export::push_json_string(&mut out, self.kind());
        out.push_str(",\"detail\":");
        rmd_obs::export::push_json_string(&mut out, &self.detail());
        out.push('}');
        if let ServeError::Overloaded { retry_after_ms } = self {
            out.push_str(",\"retry_after_ms\":");
            let _ = write!(out, "{retry_after_ms}");
        }
        out.push('}');
        out
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.kind(), self.code(), self.detail())
    }
}

impl std::error::Error for ServeError {}

impl From<RmdError> for ServeError {
    fn from(e: RmdError) -> Self {
        ServeError::Rmd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::MachineBuilder;

    fn all_rmd_variants() -> Vec<RmdError> {
        // One representative per RmdError variant, built through real
        // constructors where the inner types are not directly
        // constructible.
        let parse = rmd_machine::mdl::parse_machine("machine {").unwrap_err();
        let invalid = {
            let mut b = MachineBuilder::new("dup");
            b.resource("r");
            b.resource("r");
            b.build().unwrap_err()
        };
        let degenerate = rmd_core::try_reduce(
            &rmd_machine::models::example_machine(),
            rmd_core::Objective::ResUses,
            &rmd_core::ReduceOptions { max_steps: Some(0) },
        )
        .unwrap_err();
        let limited = {
            let mut b = MachineBuilder::new("wide");
            let rs: Vec<_> = (0..=rmd_core::MAX_RESOURCES)
                .map(|i| b.resource(format!("r{i}")))
                .collect();
            b.operation("x").usage(rs[0], 0).finish();
            rmd_core::validate_limits(&b.build().unwrap()).unwrap_err()
        };
        vec![
            RmdError::Parse(parse),
            RmdError::InvalidMachine(invalid),
            limited,
            degenerate,
            RmdError::Unschedulable { max_ii: 4096 },
            RmdError::Io("pipe closed".to_string()),
        ]
    }

    #[test]
    fn rmd_taxonomy_maps_to_distinct_codes() {
        let variants = all_rmd_variants();
        let mut seen = std::collections::BTreeSet::new();
        for e in variants {
            let s = ServeError::from(e);
            assert!(seen.insert((s.code(), s.kind())), "duplicate: {s}");
            assert!((110..130).contains(&s.code()), "{s}");
        }
        // BudgetExhausted is produced by try_reduce with max_steps 0 in
        // all_rmd_variants (as `degenerate` or budget depending on the
        // pipeline's first charge); pin its mapping explicitly too.
        let s = ServeError::from(RmdError::BudgetExhausted { steps: 7 });
        assert_eq!((s.code(), s.kind()), (120, "budget_exhausted"));
    }

    #[test]
    fn reply_shape_is_stable() {
        let e = ServeError::UnknownType {
            got: "frobnicate".to_string(),
        };
        assert_eq!(
            e.to_reply(Some("3")),
            "{\"ok\":false,\"id\":3,\"error\":{\"code\":102,\"kind\":\"unknown_type\",\
             \"detail\":\"unknown request type \\\"frobnicate\\\"\"}}"
        );
        let e = ServeError::Overloaded { retry_after_ms: 50 };
        let r = e.to_reply(None);
        assert!(r.contains("\"id\":null"), "{r}");
        assert!(r.ends_with(",\"retry_after_ms\":50}"), "{r}");
        let v = serde_json::from_str(&r).expect("reply must be valid JSON");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("overloaded")
        );
    }

    #[test]
    fn every_kind_renders_valid_json() {
        let errs = vec![
            ServeError::Malformed {
                detail: "bad \"quote\"".to_string(),
            },
            ServeError::Oversized {
                limit: 10,
                actual: 20,
            },
            ServeError::UnknownType {
                got: "x\ny".to_string(),
            },
            ServeError::BadRequest {
                detail: "missing nodes".to_string(),
            },
            ServeError::UnknownFingerprint {
                got: "rmd-0000".to_string(),
            },
            ServeError::Uncertified {
                fingerprint: "rmd-0000".to_string(),
            },
            ServeError::Timeout { deadline_ms: 5 },
            ServeError::Overloaded { retry_after_ms: 1 },
            ServeError::ShuttingDown,
            ServeError::Panicked {
                detail: "chaos".to_string(),
            },
        ];
        for e in errs {
            let r = e.to_reply(Some("\"req-1\""));
            let v = serde_json::from_str(&r).unwrap_or_else(|p| panic!("{r}: {p}"));
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_u64())
                .expect("code");
            assert_eq!(code, e.code() as u64);
        }
    }
}
