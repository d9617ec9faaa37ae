//! Diagnostics for the MDL parser.

use core::fmt;

/// A half-open byte range into the source text, with 1-based line/column of
/// its start for human-readable messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub column: u32,
}

impl Span {
    pub(crate) fn new(start: usize, end: usize, line: u32, column: u32) -> Self {
        Span {
            start,
            end,
            line,
            column,
        }
    }

    /// True when the span names no source location (zero-length byte range
    /// or a zeroed line number). Diagnostics produced by the parser always
    /// carry non-empty spans; the default span is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start || self.line == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// What went wrong while parsing MDL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseErrorKind {
    /// A character that can't start any token.
    UnexpectedChar(char),
    /// A string literal without a closing quote.
    UnterminatedString,
    /// A `/* ... */` comment without a closing `*/`.
    UnterminatedComment,
    /// A number too large to represent.
    NumberOverflow,
    /// The parser expected one thing and found another.
    Expected {
        /// Description of what was expected (e.g. "`;`", "identifier").
        expected: String,
        /// Description of what was found.
        found: String,
    },
    /// A `use` referenced an undeclared resource.
    UnknownResource(String),
    /// An empty cycle range such as `4..4`.
    EmptyRange,
    /// A constraint violated after parsing (duplicate names, empty ops...).
    Semantic(String),
}

/// An MDL parse error with its source location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    kind: ParseErrorKind,
    span: Span,
}

impl ParseError {
    pub(crate) fn new(kind: ParseErrorKind, span: Span) -> Self {
        ParseError { kind, span }
    }

    pub(crate) fn semantic(msg: String, span: Span) -> Self {
        ParseError {
            kind: ParseErrorKind::Semantic(msg),
            span,
        }
    }

    /// The kind of error.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// Where in the source the error occurred.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedChar(c) => {
                write!(f, "{}: unexpected character `{c}`", self.span)
            }
            ParseErrorKind::UnterminatedString => {
                write!(f, "{}: unterminated string literal", self.span)
            }
            ParseErrorKind::UnterminatedComment => {
                write!(f, "{}: unterminated block comment", self.span)
            }
            ParseErrorKind::NumberOverflow => {
                write!(f, "{}: number out of range", self.span)
            }
            ParseErrorKind::Expected { expected, found } => {
                write!(f, "{}: expected {expected}, found {found}", self.span)
            }
            ParseErrorKind::UnknownResource(name) => {
                write!(f, "{}: unknown resource `{name}`", self.span)
            }
            ParseErrorKind::EmptyRange => {
                write!(f, "{}: empty cycle range", self.span)
            }
            ParseErrorKind::Semantic(msg) if self.span.is_empty() => {
                write!(f, "invalid machine: {msg}")
            }
            ParseErrorKind::Semantic(msg) => {
                write!(f, "{}: invalid machine: {msg}", self.span)
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = ParseError::new(ParseErrorKind::UnexpectedChar('%'), Span::new(10, 11, 3, 7));
        assert_eq!(e.to_string(), "3:7: unexpected character `%`");
    }

    #[test]
    fn expected_message_reads_naturally() {
        let e = ParseError::new(
            ParseErrorKind::Expected {
                expected: "`;`".into(),
                found: "`}`".into(),
            },
            Span::new(0, 1, 1, 1),
        );
        assert_eq!(e.to_string(), "1:1: expected `;`, found `}`");
    }
}
