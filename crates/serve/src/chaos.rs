//! Deterministic fault injection for the daemon (`--chaos <seed>`).
//!
//! Draws from the workspace's seeded splitmix64 (the `rand` shim) so a
//! given seed yields the same action sequence on every run: the soak
//! test can replay the exact mix of corrupted frames, slow handlers, and
//! mid-request panics and assert every recovery path fired.

use rand::rngs::StdRng;
use rand::{mix_seed, SeedableRng};

/// What the chaos layer does to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Leave the request alone.
    None,
    /// Corrupt the frame before parsing (truncate mid-JSON), so the
    /// malformed-frame recovery path runs.
    CorruptFrame,
    /// Sleep this many milliseconds inside the handler, so deadline
    /// enforcement runs.
    SlowMs(u64),
    /// Panic inside the handler after state has been resolved, so
    /// panic isolation and cache quarantine run.
    Panic,
}

/// A seeded chaos plan: a pure function from request index to action.
#[derive(Clone, Copy, Debug)]
pub struct Chaos {
    seed: u64,
}

/// Domain-separation tag for chaos streams (`mix_seed` base).
const CHAOS_TAG: u64 = 0x5EF7_E0C4;

impl Chaos {
    /// A plan for `seed`.
    pub fn new(seed: u64) -> Self {
        Chaos { seed }
    }

    /// The injected action for the `index`-th admitted request.
    /// Roughly 1 in 10 requests is corrupted, 1 in 10 slowed, and
    /// 1 in 10 panics; the rest pass through untouched.
    pub fn action(&self, index: u64) -> ChaosAction {
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, CHAOS_TAG, index));
        match rng.below(10) {
            0 => ChaosAction::CorruptFrame,
            1 => ChaosAction::SlowMs(5 + rng.below(20)),
            2 => ChaosAction::Panic,
            _ => ChaosAction::None,
        }
    }

    /// Truncates a frame to its first half, yielding (for any frame of
    /// more than two bytes) JSON that no longer parses.
    pub fn corrupt(line: &str) -> String {
        let cut = line.len() / 2;
        let mut cut = cut.min(line.len());
        // Stay on a char boundary so the result is still a &str.
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line[..cut].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_mixed() {
        let c = Chaos::new(0xC5);
        let first: Vec<ChaosAction> = (0..200).map(|i| c.action(i)).collect();
        // The plan is pinned, not just repeatable: `.` passes, `c`
        // corrupts, `p` panics and a number is a slow-down in ms.
        let rendered: Vec<String> = first
            .iter()
            .map(|a| match a {
                ChaosAction::None => ".".to_string(),
                ChaosAction::CorruptFrame => "c".to_string(),
                ChaosAction::Panic => "p".to_string(),
                ChaosAction::SlowMs(ms) => ms.to_string(),
            })
            .collect();
        let pinned = concat!(
            ". 5 . . . . . 12 . . p . 10 . . . . p . p . . p . . . . 24 15 . . . . . . 8 . 17 . p ",
            ". p . . . . 12 . p . c . . 12 . . 21 p . . . p . . . 5 . . . . . . . . c . . . . . ",
            ". 23 . . . c . . . . . c . . c . . . . . . . . . . . . . 15 . . . c . . . 17 13 . . ",
            "p 20 . . . . . . . . . . 24 . 17 c . c . . p . . . . 18 . . 8 p . . . . . p p . . . ",
            ". c . p . 8 15 p . . . c . . . . p p p . . . 17 . . . . p . . 22 p c . . . c . . .",
        );
        assert_eq!(rendered.join(" "), pinned);
        let other: Vec<ChaosAction> = (0..200).map(|i| Chaos::new(0xC6).action(i)).collect();
        assert_ne!(first, other, "different seeds must differ");
    }

    #[test]
    fn corrupt_truncates_json() {
        let line = r#"{"type":"status","id":123456}"#;
        let bad = Chaos::corrupt(line);
        assert!(serde_json::from_str(&bad).is_err());
        assert!(Chaos::corrupt("ab").len() <= 1);
    }
}
