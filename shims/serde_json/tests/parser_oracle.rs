//! Differential test of the tape parser against the recursive-descent
//! parser it replaced, kept below verbatim (only its `from_str` is
//! renamed `oracle_from_str`). Every truncation of a fixed seed set,
//! and 500,000 seeded byte mutations of it, must give the same
//! [`Value`] (compared through `Debug`, so `-0` and `0` differ) or the
//! same [`ParseJsonError`] message and offset from both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{from_str, ParseJsonError, Value};

/// Documents the mutations start from: escapes, surrogate pairs,
/// duplicate keys, exponents, `-0`, integers past 2^53 and past
/// `u64`, literals, whitespace, and nesting at the depth bound.
fn seeds() -> Vec<String> {
    let mut seeds: Vec<String> = [
        r#"{"type":"schedule","id":"a\"b\\c\/\b\f\n\r\té","nodes":["A","B"]}"#,
        r#"{"s":"😀 𝄞 é 😀","lone":"x"}"#,
        r#"{"k":1,"k":2,"k":{"k":[3]},"":null}"#,
        r#"[1e2,1E+2,-1e-2,0.5,-0,-0.0,0,1e308,1e999,-1e999,2.5e-324]"#,
        r#"[9007199254740991,9007199254740993,-9007199254740993,12345678901234567890,999999999999999,1000000000000000]"#,
        " \t\r\n[ true , false , null , { } , [ ] , \"\" ] \n",
        r#"{"edges":[[0,1,7,0],[1,0,1,1,"anti"]],"budget_ratio":1.5,"max_ii":64}"#,
        r#""\u0000\u001f\u007fAÿ￿""#,
        r#"{"a":{"b":{"c":{"d":[[[["deep"]]]]}}}}"#,
        "-12.75e+03",
        "\"plain\"",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for depth in [127, 128, 129] {
        seeds.push("[".repeat(depth) + &"]".repeat(depth));
    }
    seeds.push(format!(
        r#"{{"pad":{}{}}}"#,
        "[".repeat(127),
        "]".repeat(127)
    ));
    seeds
}

/// Bytes a mutation writes: JSON punctuation, escape letters, digits,
/// hex, number signs, whitespace, control bytes, and UTF-8 lead and
/// continuation bytes (most multi-byte results are then invalid UTF-8
/// and skipped, some are not).
const ALPHABET: &[u8] = b"{}[]\":,\\/ubnrtfl0123456789aAcdeEF-+. \t\n\r\x00\x01\x1f\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";

/// Fragments a mutation splices in.
const SNIPPETS: &[&str] = &[
    r#"😀"#,
    r#"\ud83d"#,
    r#"\udc00"#,
    r#"\ud83dA"#,
    r#"é"#,
    r#"\""#,
    r#"\x"#,
    "1e308",
    "1e999",
    "-0",
    "-0.0",
    "0.5e-3",
    "12345678901234567890",
    "9007199254740993",
    r#""k":1,"k":2,"#,
    "null",
    "true",
    "false",
    "[[[[",
    "]]]]",
    r#"{"a":{"b":"#,
    "é😀",
];

/// One to four random edits of `seed`.
fn mutate(rng: &mut StdRng, seed: &str) -> Vec<u8> {
    let mut b = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.gen_range(0..4) {
        let at = rng.gen_range(0..b.len() + 1);
        match rng.gen_range(0..6) {
            0 if at < b.len() => b[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
            1 => b.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
            2 if at < b.len() => {
                b.remove(at);
            }
            3 => {
                let s = SNIPPETS[rng.gen_range(0..SNIPPETS.len())].as_bytes();
                b.splice(at..at, s.iter().copied());
            }
            4 if at < b.len() => {
                let end = at + rng.gen_range(0..(b.len() - at).min(16)) + 1;
                let copy = b[at..end].to_vec();
                b.splice(at..at, copy);
            }
            _ => b.truncate(at),
        }
    }
    b
}

fn check(src: &str) {
    let want = format!("{:?}", oracle_from_str(src));
    let got = format!("{:?}", from_str(src));
    assert_eq!(got, want, "input {src:?}");
}

#[test]
fn every_truncation_agrees_with_the_old_parser() {
    for seed in seeds() {
        for end in (0..=seed.len()).filter(|&e| seed.is_char_boundary(e)) {
            check(&seed[..end]);
        }
    }
}

#[test]
fn seeded_mutations_agree_with_the_old_parser() {
    let seeds = seeds();
    // Seeded: the campaign is the same on every run.
    let mut rng = StdRng::seed_from_u64(0x5EED_0021);
    let mut parsed = 0;
    for i in 0..500_000 {
        let bytes = mutate(&mut rng, &seeds[i % seeds.len()]);
        if let Ok(src) = String::from_utf8(bytes) {
            check(&src);
            parsed += 1;
        }
    }
    // Most mutations stay valid UTF-8, so the campaign is not vacuous.
    assert!(parsed > 300_000, "only {parsed} mutations were valid UTF-8");
}

// ---- The replaced parser, verbatim. ----

/// Parse `src` as a single JSON value; trailing non-whitespace (for
/// example a second value on the same line) is an error.
fn oracle_from_str(src: &str) -> Result<Value, ParseJsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

/// Nesting depth bound: protocol frames are shallow, and a bound keeps
/// adversarial input from overflowing the parser's recursion.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseJsonError {
        ParseJsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseJsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseJsonError> {
        self.eat(b'[', "expected '['")?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseJsonError> {
        self.eat(b'{', "expected '{'")?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped, non-quote) bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any byte run that stops on an
            // ASCII delimiter is valid UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8 input"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one leading zero, or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("number out of range"))
    }
}
