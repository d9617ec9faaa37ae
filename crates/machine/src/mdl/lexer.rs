//! Hand-written lexer for MDL.

use super::error::{ParseError, ParseErrorKind, Span};
use core::fmt;

/// One lexical token.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum Tok {
    Ident(String),
    Str(String),
    Int(u32),
    Float(f64),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    At,
    DotDot,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Str(s) => write!(f, "string \"{s}\""),
            Tok::Int(n) => write!(f, "integer `{n}`"),
            Tok::Float(x) => write!(f, "number `{x}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::At => write!(f, "`@`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus its source span.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct SpannedTok {
    pub tok: Tok,
    pub span: Span,
}

/// Lexes the whole input eagerly; errors carry spans.
pub(crate) fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! span1 {
        ($start:expr, $len:expr, $l:expr, $c:expr) => {
            Span::new($start, $start + $len, $l, $c)
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let (tline, tcol, tstart) = (line, col, i);
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                col += 2;
                let mut closed = false;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        closed = true;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                if !closed {
                    return Err(ParseError::new(
                        ParseErrorKind::UnterminatedComment,
                        span1!(tstart, 2, tline, tcol),
                    ));
                }
            }
            '{' | '}' | '[' | ']' | ';' | ',' | '@' => {
                let tok = match c {
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    ';' => Tok::Semi,
                    ',' => Tok::Comma,
                    _ => Tok::At,
                };
                out.push(SpannedTok {
                    tok,
                    span: span1!(tstart, 1, tline, tcol),
                });
                i += 1;
                col += 1;
            }
            '.' if bytes.get(i + 1) == Some(&b'.') => {
                out.push(SpannedTok {
                    tok: Tok::DotDot,
                    span: span1!(tstart, 2, tline, tcol),
                });
                i += 2;
                col += 2;
            }
            '"' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' && bytes[j] != b'\n' {
                    j += 1;
                }
                if j >= bytes.len() || bytes[j] != b'"' {
                    return Err(ParseError::new(
                        ParseErrorKind::UnterminatedString,
                        span1!(tstart, 1, tline, tcol),
                    ));
                }
                let s = src[i + 1..j].to_owned();
                let len = j + 1 - i;
                out.push(SpannedTok {
                    tok: Tok::Str(s),
                    span: span1!(tstart, len, tline, tcol),
                });
                col += len as u32;
                i = j + 1;
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                // A `.` followed by a digit makes it a float; `..` is a
                // range and must not be consumed.
                let is_float = bytes.get(j) == Some(&b'.')
                    && bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit());
                if is_float {
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                    let text = &src[i..j];
                    let x: f64 = text.parse().map_err(|_| {
                        ParseError::new(
                            ParseErrorKind::NumberOverflow,
                            span1!(tstart, j - i, tline, tcol),
                        )
                    })?;
                    out.push(SpannedTok {
                        tok: Tok::Float(x),
                        span: span1!(tstart, j - i, tline, tcol),
                    });
                } else {
                    let text = &src[i..j];
                    // Digit runs too large for a u32 still lex — as floats —
                    // so huge weights printed by the pretty-printer round-trip;
                    // contexts that require an integer (cycle numbers, bank
                    // sizes) then report a spanned "expected integer" instead.
                    match text.parse::<u32>() {
                        Ok(n) => out.push(SpannedTok {
                            tok: Tok::Int(n),
                            span: span1!(tstart, j - i, tline, tcol),
                        }),
                        Err(_) => {
                            let x: f64 = text.parse().map_err(|_| {
                                ParseError::new(
                                    ParseErrorKind::NumberOverflow,
                                    span1!(tstart, j - i, tline, tcol),
                                )
                            })?;
                            out.push(SpannedTok {
                                tok: Tok::Float(x),
                                span: span1!(tstart, j - i, tline, tcol),
                            });
                        }
                    }
                }
                col += (j - i) as u32;
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'#'
                        || bytes[j] == b'-'
                        || bytes[j] == b'.' && bytes.get(j + 1) != Some(&b'.'))
                {
                    // Allow `.` inside identifiers (e.g. `mul.d`) but not
                    // when it starts a `..` range token.
                    if bytes[j] == b'.' && bytes.get(j + 1).map_or(true, |b| *b == b'.') {
                        break;
                    }
                    j += 1;
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(src[i..j].to_owned()),
                    span: span1!(tstart, j - i, tline, tcol),
                });
                col += (j - i) as u32;
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedChar(other),
                    span1!(tstart, other.len_utf8(), tline, tcol),
                ));
            }
        }
    }
    // The end-of-input span covers one (virtual) byte past the source so
    // diagnostics at Eof still carry a non-empty span; clamp to the source
    // length before slicing with it.
    out.push(SpannedTok {
        tok: Tok::Eof,
        span: Span::new(src.len(), src.len() + 1, line, col),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_punctuation_and_idents() {
        assert_eq!(
            toks("op x { use r @ 0..4; }"),
            vec![
                Tok::Ident("op".into()),
                Tok::Ident("x".into()),
                Tok::LBrace,
                Tok::Ident("use".into()),
                Tok::Ident("r".into()),
                Tok::At,
                Tok::Int(0),
                Tok::DotDot,
                Tok::Int(4),
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_floats_vs_ranges() {
        assert_eq!(toks("2.5"), vec![Tok::Float(2.5), Tok::Eof]);
        assert_eq!(
            toks("2..5"),
            vec![Tok::Int(2), Tok::DotDot, Tok::Int(5), Tok::Eof]
        );
    }

    #[test]
    fn lexes_dotted_identifiers() {
        assert_eq!(toks("mul.d"), vec![Tok::Ident("mul.d".into()), Tok::Eof]);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            toks("a // c\n b /* x\n y */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn tracks_line_and_column() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].span.line, 1);
        assert_eq!(ts[0].span.column, 1);
        assert_eq!(ts[1].span.line, 2);
        assert_eq!(ts[1].span.column, 3);
    }

    #[test]
    fn reports_unterminated_string() {
        let e = lex("\"abc").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::UnterminatedString));
    }

    #[test]
    fn reports_unterminated_comment() {
        let e = lex("/* abc").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::UnterminatedComment));
    }

    #[test]
    fn reports_unexpected_char() {
        let e = lex("op %").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::UnexpectedChar('%')));
        assert_eq!(e.span().line, 1);
        assert_eq!(e.span().column, 4);
    }

    #[test]
    fn big_integers_lex_as_floats() {
        // 10^20 does not fit a u32; it must still lex (as a float) so
        // printed weights of any magnitude round-trip through the parser.
        assert_eq!(
            toks("100000000000000000000"),
            vec![Tok::Float(1e20), Tok::Eof]
        );
    }

    #[test]
    fn eof_span_is_nonempty() {
        let ts = lex("ab").unwrap();
        let eof = &ts[1];
        assert_eq!(eof.tok, Tok::Eof);
        assert!(eof.span.end > eof.span.start);
        assert_eq!(eof.span.line, 1);
    }
}
