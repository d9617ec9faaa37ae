//! In-tree stand-in for the subset of `serde_json` used by this
//! workspace: serializing benchmark records with `to_string` /
//! `to_string_pretty` over the in-tree `serde` shim, plus a small
//! recursive-descent parser for the `rmd serve` line-delimited request
//! protocol. The parser writes a flat token [`Tape`] that borrows the
//! source text; [`from_str`] builds an owned [`Value`] from it, and a
//! caller that reads many documents can keep one `Tape` and read each
//! document through [`ValueRef`] handles instead. The `Tape` API is
//! this shim's own: the real crate has no such type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;

/// Serialization error. The shim's writers are infallible, so this
/// exists only to keep `serde_json`-shaped signatures.
#[derive(Debug)]
pub struct Error(());

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JSON serialization error")
    }
}

impl std::error::Error for Error {}

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize `value` to an indented JSON string (2-space indent, like
/// the real crate's default pretty printer).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(prettify(&to_string(value)?))
}

/// Re-indent compact JSON. Tracks string literals (with escapes) so
/// structural characters inside strings are left alone.
fn prettify(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();

    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                // Keep empty containers on one line.
                if let Some(&close) = chars.peek() {
                    if (c == '{' && close == '}') || (c == '[' && close == ']') {
                        out.push(close);
                        chars.next();
                        continue;
                    }
                }
                indent += 1;
                push_newline(&mut out, indent);
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                push_newline(&mut out, indent);
                out.push(c);
            }
            ',' => {
                out.push(c);
                push_newline(&mut out, indent);
            }
            ':' => {
                out.push_str(": ");
            }
            c => out.push(c),
        }
    }
    out
}

fn push_newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// A parsed JSON document.
///
/// Numbers are held as `f64` (every protocol field fits without loss;
/// [`Value::as_u64`] / [`Value::as_i64`] reject values that do not
/// round-trip exactly). Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number.
    Number(f64),
    /// A JSON string (escapes decoded).
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object in source order. Duplicate keys are kept;
    /// [`Value::get`] returns the first.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, or `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is one exactly (no fraction, no
    /// negative sign, no precision loss).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9007199254740991.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The number as an `i64`, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (-9007199254740991.0..=9007199254740991.0).contains(&n) {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseJsonError {}

/// Parse `src` as a single JSON value; trailing non-whitespace (for
/// example a second value on the same line) is an error.
pub fn from_str(src: &str) -> Result<Value, ParseJsonError> {
    Ok(Tape::new().parse(src)?.to_value())
}

/// A parsed JSON document as a flat token list over its source text:
/// the decoding buffer behind [`from_str`], and a reusable one for
/// callers that read many documents (the serve protocol keeps one per
/// daemon). Strings and numbers are source spans, read only on
/// request; each container records where its tokens end, so skipping a
/// value is one step. Parsing again reuses the buffer's capacity.
#[derive(Debug, Default)]
pub struct Tape {
    tokens: Vec<Token>,
}

/// One tape entry. Offsets are byte positions in the source.
#[derive(Clone, Copy, Debug)]
enum Token {
    Null,
    Bool(bool),
    /// The number's source text `start..end`, read on request.
    Number {
        start: usize,
        end: usize,
    },
    /// The literal `start..end`, quotes included; `escaped` when it
    /// holds a backslash escape.
    String {
        start: usize,
        end: usize,
        escaped: bool,
    },
    /// `len` elements; `next` is the index of the token after them.
    Array {
        len: usize,
        next: usize,
    },
    /// `len` members, each a string key token and then its value;
    /// `next` is the index of the token after them.
    Object {
        len: usize,
        next: usize,
    },
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses `src` as a single JSON value into this tape, replacing
    /// what it held, and returns the root. Grammar, error messages and
    /// byte offsets are those of [`from_str`].
    pub fn parse<'src, 't>(
        &'t mut self,
        src: &'src str,
    ) -> Result<ValueRef<'src, 't>, ParseJsonError> {
        self.tokens.clear();
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p.value(&mut self.tokens)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(ValueRef {
            src,
            tokens: &self.tokens,
            at: 0,
        })
    }

    /// Frees the capacity past `min_capacity` tokens (as
    /// `Vec::shrink_to`), so a long-lived tape does not keep the buffer
    /// of the largest document it ever read. The last document is
    /// unreachable once its root's borrow ends, so nothing is lost.
    pub fn shrink_to(&mut self, min_capacity: usize) {
        self.tokens.clear();
        self.tokens.shrink_to(min_capacity);
    }
}

/// A borrowed value on a [`Tape`], with [`Value`]'s accessors. Strings
/// borrow from the source text `'src` unless they hold an escape.
#[derive(Clone, Copy, Debug)]
pub struct ValueRef<'src, 't> {
    src: &'src str,
    tokens: &'t [Token],
    at: usize,
}

impl<'src, 't> ValueRef<'src, 't> {
    fn token(&self) -> Token {
        self.tokens[self.at]
    }

    /// The `count` values that follow this token, each skipped whole.
    fn children(&self, count: usize) -> Elements<'src, 't> {
        Elements {
            next: ValueRef {
                at: self.at + 1,
                ..*self
            },
            left: count,
        }
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self.token(), Token::Object { .. })
    }

    /// The first member `key` of an object, or `None` for other values
    /// (as [`Value::get`]).
    pub fn get(&self, key: &str) -> Option<ValueRef<'src, 't>> {
        let Token::Object { len, .. } = self.token() else {
            return None;
        };
        let mut items = self.children(2 * len);
        while let (Some(k), Some(v)) = (items.next(), items.next()) {
            if k.is_key(key) {
                return Some(v);
            }
        }
        None
    }

    /// Whether this member key reads `key`. An unescaped key is
    /// compared as raw bytes; only an escaped one is decoded.
    fn is_key(&self, key: &str) -> bool {
        match self.token() {
            Token::String {
                start,
                end,
                escaped: false,
            } => self.src.as_bytes()[start + 1..end - 1] == *key.as_bytes(),
            _ => self.as_str().as_deref() == Some(key),
        }
    }

    /// The string payload, if this is a string: borrowed from the
    /// source unless it holds an escape.
    pub fn as_str(&self) -> Option<Cow<'src, str>> {
        let Token::String {
            start,
            end,
            escaped,
        } = self.token()
        else {
            return None;
        };
        if !escaped {
            return Some(Cow::Borrowed(&self.src[start + 1..end - 1]));
        }
        let mut p = Parser {
            bytes: self.src.as_bytes(),
            pos: start,
            depth: 0,
        };
        let mut out = String::with_capacity(end - start);
        p.string(Some(&mut out))
            .expect("the tape holds a parsed string");
        Some(Cow::Owned(out))
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self.token() {
            Token::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number: its source text read
    /// by `str::parse`, so a magnitude past `f64::MAX` is infinite.
    pub fn as_f64(&self) -> Option<f64> {
        let text = self.number_text()?;
        Some(text.parse().expect("JSON numbers are valid f64 literals"))
    }

    /// The number as a `u64`, if it is one exactly (as
    /// [`Value::as_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self.small_integer() {
            Some((false, n)) => Some(n),
            _ => Value::Number(self.as_f64()?).as_u64(),
        }
    }

    /// The number as an `i64`, if it is one exactly (as
    /// [`Value::as_i64`]).
    pub fn as_i64(&self) -> Option<i64> {
        match self.small_integer() {
            Some((negative, n)) => Some(if negative { -(n as i64) } else { n as i64 }),
            None => Value::Number(self.as_f64()?).as_i64(),
        }
    }

    /// A plain integer literal of at most 15 digits, read straight from
    /// its digits in one pass as (negative, magnitude). Below 10^15 the
    /// `f64` route is exact too, so both give the same number; any
    /// other literal (fraction, exponent, 16 or more digits) is `None`.
    fn small_integer(&self) -> Option<(bool, u64)> {
        let text = self.number_text()?.as_bytes();
        let (negative, digits) = match text {
            [b'-', digits @ ..] => (true, digits),
            digits => (false, digits),
        };
        if digits.len() > 15 {
            return None;
        }
        let mut n = 0;
        for &b in digits {
            if !b.is_ascii_digit() {
                return None;
            }
            n = n * 10 + u64::from(b - b'0');
        }
        Some((negative, n))
    }

    /// The number's source text, if this is a number.
    pub fn number_text(&self) -> Option<&'src str> {
        match self.token() {
            Token::Number { start, end } => Some(&self.src[start..end]),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<Elements<'src, 't>> {
        match self.token() {
            Token::Array { len, .. } => Some(self.children(len)),
            _ => None,
        }
    }

    /// An owned copy of this value.
    fn to_value(self) -> Value {
        match self.token() {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Number { .. } => Value::Number(self.as_f64().unwrap_or_default()),
            Token::String { .. } => Value::String(self.as_str().unwrap_or_default().into_owned()),
            Token::Array { len, .. } => {
                Value::Array(self.children(len).map(Self::to_value).collect())
            }
            Token::Object { len, .. } => {
                let mut items = self.children(2 * len);
                let mut members = Vec::with_capacity(len);
                while let (Some(k), Some(v)) = (items.next(), items.next()) {
                    let key = k.as_str().unwrap_or_default().into_owned();
                    members.push((key, v.to_value()));
                }
                Value::Object(members)
            }
        }
    }
}

/// The elements of an array on a [`Tape`], in order.
#[derive(Clone, Debug)]
pub struct Elements<'src, 't> {
    next: ValueRef<'src, 't>,
    left: usize,
}

impl<'src, 't> Iterator for Elements<'src, 't> {
    type Item = ValueRef<'src, 't>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let v = self.next;
        self.next.at = match v.token() {
            Token::Array { next, .. } | Token::Object { next, .. } => next,
            _ => v.at + 1,
        };
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_, '_> {}

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

    fn literal(&mut self, word: &str, v: Token) -> Result<Token, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Appends the value at the cursor, and everything inside it, to
    /// `tape`.
    fn value(&mut self, tape: &mut Vec<Token>) -> Result<(), ParseJsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let start = self.pos;
        let token = match self.peek() {
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'"') => {
                let escaped = self.string(None)?;
                Token::String {
                    start,
                    end: self.pos,
                    escaped,
                }
            }
            Some(b'[') => return self.array(tape),
            Some(b'{') => return self.object(tape),
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
                Token::Number {
                    start,
                    end: self.pos,
                }
            }
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        tape.push(token);
        Ok(())
    }

    fn array(&mut self, tape: &mut Vec<Token>) -> Result<(), ParseJsonError> {
        self.eat(b'[', "expected '['")?;
        self.depth += 1;
        let at = tape.len();
        tape.push(Token::Array { len: 0, next: 0 });
        let mut len = 0;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                self.value(tape)?;
                len += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        tape[at] = Token::Array {
            len,
            next: tape.len(),
        };
        Ok(())
    }

    fn object(&mut self, tape: &mut Vec<Token>) -> Result<(), ParseJsonError> {
        self.eat(b'{', "expected '{'")?;
        self.depth += 1;
        let at = tape.len();
        tape.push(Token::Object { len: 0, next: 0 });
        let mut len = 0;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let start = self.pos;
                let escaped = self.string(None)?;
                tape.push(Token::String {
                    start,
                    end: self.pos,
                    escaped,
                });
                self.skip_ws();
                self.eat(b':', "expected ':' after object key")?;
                self.skip_ws();
                self.value(tape)?;
                len += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        tape[at] = Token::Object {
            len,
            next: tape.len(),
        };
        Ok(())
    }

    /// Reads a string literal, appending its decoded text to `out` when
    /// one is given; returns whether it held an escape.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<bool, ParseJsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut escaped = false;
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped, non-quote) bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                // The input is a &str, so any byte run that stops on an
                // ASCII delimiter is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8 input"),
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(escaped);
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
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
                            c.ok_or_else(|| self.err("invalid \\u escape"))?
                        }
                        _ => return Err(self.err("invalid escape character")),
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
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

    /// Reads a number literal; its value is parsed from the span on
    /// request ([`ValueRef::as_f64`]).
    fn number(&mut self) -> Result<(), ParseJsonError> {
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty() {
        let v = vec![("a{b".to_string(), 1usize), ("c".to_string(), 2)];
        let compact = to_string(&v).unwrap();
        assert_eq!(compact, "[[\"a{b\",1],[\"c\",2]]");
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "[\n  [\n    \"a{b\",\n    1\n  ],\n  [\n    \"c\",\n    2\n  ]\n]"
        );
    }

    #[test]
    fn empty_containers_stay_inline() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(to_string_pretty(&empty).unwrap(), "[]");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str(" true ").unwrap(), Value::Bool(true));
        assert_eq!(from_str("false").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::Number(42.0));
        assert_eq!(from_str("-0.5e2").unwrap(), Value::Number(-50.0));
        assert_eq!(
            from_str("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".to_string())
        );
    }

    #[test]
    fn parse_structures_and_accessors() {
        let v = from_str(r#"{"type":"schedule","edges":[[0,1,7,0]],"strict":true}"#).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("schedule"));
        assert_eq!(v.get("strict").and_then(Value::as_bool), Some(true));
        let edges = v.get("edges").and_then(Value::as_array).unwrap();
        let e0 = edges[0].as_array().unwrap();
        assert_eq!(e0[2].as_u64(), Some(7));
        assert_eq!(e0[2].as_i64(), Some(7));
        assert_eq!(from_str("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(from_str("-3").unwrap().as_u64(), None);
        assert_eq!(from_str("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn integer_accessors_agree_with_the_f64_route() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut texts: Vec<String> = [
            "0",
            "-0",
            "7",
            "-7",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "-1000000000000000",
            "9007199254740991",
            "-9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "18446744073709551615",
            "-9223372036854775808",
            "1.0",
            "1e2",
            "-1e-2",
            "1.5",
            "-0.0",
            "1E400",
        ]
        .map(String::from)
        .to_vec();
        let mut rng = StdRng::seed_from_u64(0x1D16);
        for digits in 1..=20 {
            for _ in 0..50 {
                let mut text = String::from(if rng.gen_bool(0.5) { "-" } else { "" });
                text.push(char::from(b'1' + rng.gen_range(0..9u8)));
                for _ in 1..digits {
                    text.push(char::from(b'0' + rng.gen_range(0..10u8)));
                }
                texts.push(text);
            }
        }
        let mut tape = Tape::new();
        for text in &texts {
            let want = Value::Number(text.parse().expect("a JSON number"));
            let got = tape.parse(text).expect("a JSON number");
            assert_eq!(got.as_u64(), want.as_u64(), "as_u64({text})");
            assert_eq!(got.as_i64(), want.as_i64(), "as_i64({text})");
        }
    }

    #[test]
    fn parse_surrogate_pairs_and_escapes() {
        assert_eq!(
            from_str("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".to_string())
        );
        assert!(from_str("\"\\ud83d\"").is_err());
        assert!(from_str("\"\\x\"").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "nul",
            "01",
            "1.",
            "\"unterminated",
            "{\"a\":1} {\"b\":2}", // interleaved frames on one line
            "{\"a\":1}x",
            "\u{1}",
        ] {
            let e = from_str(bad);
            assert!(e.is_err(), "accepted {bad:?}");
        }
        let err = from_str("{\"a\":1} {\"b\":2}").unwrap_err();
        assert_eq!(err.message, "trailing data after JSON value");
        assert_eq!(err.offset, 8);
    }

    #[test]
    fn parse_depth_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let e = from_str(&deep).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn tape_handles_borrow_and_skip() {
        let src =
            r#"{"nodes":["a",{"x":[1,[2]]},"b\u0041"],"id":-0,"id":7,"big":12345678901234567890}"#;
        let mut tape = Tape::new();
        let root = tape.parse(src).unwrap();
        assert!(root.is_object());
        let nodes: Vec<_> = root
            .get("nodes")
            .and_then(|n| n.as_array())
            .unwrap()
            .collect();
        assert_eq!(nodes.len(), 3);
        assert!(matches!(nodes[0].as_str(), Some(Cow::Borrowed("a"))));
        assert!(matches!(nodes[2].as_str(), Some(Cow::Owned(s)) if s == "bA"));
        assert_eq!(
            nodes[1]
                .get("x")
                .and_then(|x| x.as_array())
                .map(|a| a.len()),
            Some(2)
        );
        // The first of duplicate keys wins, as in `Value::get`.
        let id = root.get("id").unwrap();
        assert_eq!(id.number_text(), Some("-0"));
        assert_eq!(id.as_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(id.as_u64(), Some(0));
        let big = root.get("big").unwrap();
        assert_eq!(big.number_text(), Some("12345678901234567890"));
        assert_eq!(big.as_u64(), None);
        assert_eq!(root.get("missing").map(|v| v.as_bool()), None);
        assert!(root.as_str().is_none() && root.as_array().is_none());
    }

    #[test]
    fn escaped_member_keys_resolve_by_their_decoded_text() {
        let mut tape = Tape::new();
        let root = tape.parse(r#"{"\u0074ype":"status"}"#).unwrap();
        let ty = root.get("type").and_then(|t| t.as_str());
        assert_eq!(ty.as_deref(), Some("status"));
        assert!(root.get("\\u0074ype").is_none());
        // Raw-byte keys match whole keys only, and the first of an
        // escaped and an unescaped spelling wins.
        let src = r#"{"typ":1,"types":2,"t\"ype":3,"\u0069d":4,"id":5,"":6}"#;
        let root = tape.parse(src).unwrap();
        let num = |k: &str| root.get(k).and_then(|v| v.as_u64());
        assert_eq!(num("type"), None);
        assert_eq!(num("typ"), Some(1));
        assert_eq!(num("t\"ype"), Some(3));
        assert_eq!(num("id"), Some(4));
        assert_eq!(num(""), Some(6));
    }

    #[test]
    fn shrink_to_frees_a_large_documents_capacity() {
        let mut tape = Tape::new();
        let big = format!("[{}0]", "0,".repeat(10_000));
        let len = tape.parse(&big).unwrap().as_array().map(|a| a.len());
        assert_eq!(len, Some(10_001));
        assert!(tape.tokens.capacity() > 10_000);
        tape.shrink_to(64);
        assert!(tape.tokens.capacity() < 10_000);
        assert_eq!(
            tape.parse("[7]").unwrap().to_value(),
            from_str("[7]").unwrap()
        );
    }

    #[test]
    fn tape_is_reused_and_matches_from_str() {
        let mut tape = Tape::new();
        for src in ["[1,2,3]", "\"x\"", "{\"k\":null}", " true "] {
            let v = tape.parse(src).unwrap().to_value();
            assert_eq!(v, from_str(src).unwrap(), "{src}");
        }
        let e = tape.parse("[1,").unwrap_err();
        assert_eq!(e, from_str("[1,").unwrap_err());
        assert_eq!(tape.parse("5").unwrap().as_i64(), Some(5));
    }

    #[test]
    fn parse_roundtrips_serialized_records() {
        let v = vec![("key \"q\"".to_string(), 7u64)];
        let s = to_string(&v).unwrap();
        let parsed = from_str(&s).unwrap();
        let outer = parsed.as_array().unwrap();
        let pair = outer[0].as_array().unwrap();
        assert_eq!(pair[0].as_str(), Some("key \"q\""));
        assert_eq!(pair[1].as_u64(), Some(7));
    }
}
