//! Differential test of [`push_json_string`] against the per-`char`
//! writer it replaced, kept below as `oracle`: every single character
//! from U+0000 to U+007F, the characters the escaper must leave alone
//! (DEL, 2-, 3- and 4-byte UTF-8, U+2028), the empty string, and seeded
//! random strings over an alphabet heavy in escapes must render to the
//! same bytes, appended to a buffer that already holds text.

use proptest::TestRng;
use rmd_obs::export::push_json_string;
use std::fmt::Write as _;

/// The writer before runs were copied whole: one `push` per `char`.
fn oracle(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn check(s: &str) {
    let (mut got, mut want) = (String::from("x:"), String::from("x:"));
    push_json_string(&mut got, s);
    oracle(&mut want, s);
    assert_eq!(got, want, "{s:?}");
}

#[test]
fn every_ascii_character_renders_as_before() {
    for c in (0u8..=0x7f).map(char::from) {
        check(&c.to_string());
        check(&format!("a{c}b{c}{c}"));
    }
    // Every ASCII character in one string, in order and reversed.
    let all: String = (0u8..=0x7f).map(char::from).collect();
    check(&all);
    check(&all.chars().rev().collect::<String>());
}

#[test]
fn characters_left_alone_render_as_before() {
    for s in [
        "",
        "\"",
        "\\",
        "\u{7f}",
        "é",
        "ü\u{7ff}",
        "€\u{800}\u{ffff}",
        "😀\u{10000}\u{10ffff}",
        "\u{2028}\u{2029}",
        "plain ascii with no escapes",
        "\"\\\"\\",
        "tail\n",
        "\u{1}lead",
        "é\"😀\\\u{2028}\n\u{1f}",
    ] {
        check(s);
    }
}

#[test]
fn seeded_random_strings_render_as_before() {
    let alphabet: Vec<char> =
        "aZ0 /\"\\\n\r\t\u{0}\u{8}\u{c}\u{1b}\u{1f}\u{7f}é\u{7ff}€\u{2028}\u{ffff}😀\u{10ffff}"
            .chars()
            .collect();
    let mut rng = TestRng::new(0x15_0e5c_a9e5);
    for _ in 0..20_000 {
        let len = rng.below(24) as usize;
        let s: String = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect();
        check(&s);
    }
}
