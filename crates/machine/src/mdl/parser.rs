//! Recursive-descent parser for MDL.

use super::error::{ParseError, ParseErrorKind, Span};
use super::lexer::{lex, SpannedTok, Tok};
use crate::alternatives::AltDescription;
use crate::ids::ResourceId;
use crate::table::ReservationTable;
use std::collections::HashMap;

/// Source locations for the declarations of a parsed description, parallel
/// to the [`AltDescription`] produced alongside it: `resources[i]` is the
/// declaration span of resource id `i` (bank members share the bank's
/// span), `ops[i]` covers the name of operation `i`, and
/// `alternatives[i]` holds the span of each candidate body's opening
/// brace. Lint tooling uses this to point findings at `.mdl` source lines.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SourceMap {
    /// Span of the machine-name string literal.
    pub machine_name: Span,
    /// Declaration span per resource id.
    pub resources: Vec<Span>,
    /// Name span per operation.
    pub ops: Vec<Span>,
    /// Opening-brace span per alternative body, per operation.
    pub alternatives: Vec<Vec<Span>>,
}

impl SourceMap {
    /// Span of the last declaration of resource `name`, if recorded.
    /// "Last" matters for duplicate-declaration diagnostics, which should
    /// point at the redeclaration rather than the original.
    pub fn resource_span(&self, names: &[String], name: &str) -> Option<Span> {
        names
            .iter()
            .zip(&self.resources)
            .rev()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, &s)| s)
    }

    /// Span of the last operation named `name`. Accepts expanded
    /// alternative names (`load#1` maps back to `load`).
    pub fn op_span(&self, names: &[&str], name: &str) -> Option<Span> {
        let base = name.split('#').next().unwrap_or(name);
        names
            .iter()
            .zip(&self.ops)
            .rev()
            .find(|(n, _)| **n == name || **n == base)
            .map(|(_, &s)| s)
    }
}

pub(crate) struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    map: SourceMap,
}

impl Parser {
    pub(crate) fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            map: SourceMap::default(),
        })
    }

    /// The source map recorded by a successful `parse_file`.
    pub(crate) fn take_map(&mut self) -> SourceMap {
        std::mem::take(&mut self.map)
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expected(&self, what: &str) -> ParseError {
        ParseError::new(
            ParseErrorKind::Expected {
                expected: what.to_owned(),
                found: self.peek().to_string(),
            },
            self.span(),
        )
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(_) => match self.bump() {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            _ => Err(self.expected("identifier")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            _ => Err(self.expected(&format!("`{kw}`"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    fn expect_int(&mut self) -> Result<u32, ParseError> {
        match self.peek() {
            Tok::Int(_) => match self.bump() {
                Tok::Int(n) => Ok(n),
                _ => unreachable!(),
            },
            _ => Err(self.expected("integer")),
        }
    }

    /// `file := "machine" STRING "{" resources op* "}"`
    pub(crate) fn parse_file(&mut self) -> Result<AltDescription, ParseError> {
        self.expect_keyword("machine")?;
        let name_span = self.span();
        let name = match self.peek() {
            Tok::Str(_) => match self.bump() {
                Tok::Str(s) => s,
                _ => unreachable!(),
            },
            _ => return Err(self.expected("machine name string")),
        };
        self.map.machine_name = name_span;
        self.expect_tok(Tok::LBrace, "`{`")?;
        let mut desc = AltDescription::new(name);
        let mut res_index: HashMap<String, ResourceId> = HashMap::new();
        self.parse_resources(&mut desc, &mut res_index)?;
        while !matches!(self.peek(), Tok::RBrace) {
            self.parse_op(&mut desc, &res_index)?;
        }
        self.expect_tok(Tok::RBrace, "`}`")?;
        match self.peek() {
            Tok::Eof => Ok(desc),
            _ => Err(self.expected("end of input")),
        }
    }

    /// `resources := "resources" "{" (resdecl ";")* "}"`,
    /// `resdecl := IDENT ("[" INT "]")?`
    fn parse_resources(
        &mut self,
        desc: &mut AltDescription,
        index: &mut HashMap<String, ResourceId>,
    ) -> Result<(), ParseError> {
        self.expect_keyword("resources")?;
        self.expect_tok(Tok::LBrace, "`{`")?;
        while !matches!(self.peek(), Tok::RBrace) {
            let decl_span = self.span();
            let name = self.expect_ident()?;
            if matches!(self.peek(), Tok::LBracket) {
                self.bump();
                let n = self.expect_int()?;
                self.expect_tok(Tok::RBracket, "`]`")?;
                for i in 0..n {
                    let full = format!("{name}{i}");
                    let id = desc.resource(full.clone());
                    index.insert(full, id);
                    self.map.resources.push(decl_span);
                }
            } else {
                let id = desc.resource(name.clone());
                index.insert(name, id);
                self.map.resources.push(decl_span);
            }
            self.expect_tok(Tok::Semi, "`;`")?;
        }
        self.expect_tok(Tok::RBrace, "`}`")?;
        Ok(())
    }

    /// `op := "op" IDENT ("weight" NUM)? (body | "alt" "{" body+ "}")`
    fn parse_op(
        &mut self,
        desc: &mut AltDescription,
        index: &HashMap<String, ResourceId>,
    ) -> Result<(), ParseError> {
        self.expect_keyword("op")?;
        let name_span = self.span();
        let name = self.expect_ident()?;
        let mut weight = 1.0f64;
        if self.eat_keyword("weight") {
            weight = match self.peek() {
                Tok::Float(_) => match self.bump() {
                    Tok::Float(x) => x,
                    _ => unreachable!(),
                },
                Tok::Int(_) => match self.bump() {
                    Tok::Int(n) => f64::from(n),
                    _ => unreachable!(),
                },
                _ => return Err(self.expected("number after `weight`")),
            };
        }
        let mut tables = Vec::new();
        let mut body_spans = Vec::new();
        if self.eat_keyword("alt") {
            self.expect_tok(Tok::LBrace, "`{`")?;
            while !matches!(self.peek(), Tok::RBrace) {
                body_spans.push(self.span());
                tables.push(self.parse_body(index)?);
            }
            self.expect_tok(Tok::RBrace, "`}`")?;
            if tables.is_empty() {
                return Err(self.expected("at least one alternative body"));
            }
        } else {
            body_spans.push(self.span());
            tables.push(self.parse_body(index)?);
        }
        self.map.ops.push(name_span);
        self.map.alternatives.push(body_spans);
        let mut ob = desc.operation(name).weight(weight);
        for t in tables {
            ob = ob.alternative(t);
        }
        ob.finish();
        Ok(())
    }

    /// `body := "{" (usedecl ";")* "}"`,
    /// `usedecl := "use" IDENT "@" cyclespec ("," cyclespec)*`,
    /// `cyclespec := INT | INT ".." INT`
    fn parse_body(
        &mut self,
        index: &HashMap<String, ResourceId>,
    ) -> Result<ReservationTable, ParseError> {
        self.expect_tok(Tok::LBrace, "`{`")?;
        let mut table = ReservationTable::new();
        while !matches!(self.peek(), Tok::RBrace) {
            self.expect_keyword("use")?;
            let rspan = self.span();
            let rname = self.expect_ident()?;
            let &rid = index.get(&rname).ok_or_else(|| {
                ParseError::new(ParseErrorKind::UnknownResource(rname.clone()), rspan)
            })?;
            self.expect_tok(Tok::At, "`@`")?;
            loop {
                let span = self.span();
                let from = self.expect_int()?;
                if matches!(self.peek(), Tok::DotDot) {
                    self.bump();
                    let to = self.expect_int()?;
                    if to <= from {
                        return Err(ParseError::new(ParseErrorKind::EmptyRange, span));
                    }
                    for c in from..to {
                        table.reserve(rid, c);
                    }
                } else {
                    table.reserve(rid, from);
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect_tok(Tok::Semi, "`;`")?;
        }
        self.expect_tok(Tok::RBrace, "`}`")?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdl::{parse, parse_machine, ParseErrorKind};

    #[test]
    fn parses_minimal_machine() {
        let (m, _) =
            parse_machine(r#"machine "m" { resources { r; } op x { use r @ 0; } }"#).unwrap();
        assert_eq!(m.name(), "m");
        assert_eq!(m.num_operations(), 1);
        assert_eq!(m.max_table_length(), 1);
    }

    #[test]
    fn parses_banks_ranges_and_lists() {
        let (m, _) = parse_machine(
            r#"machine "m" {
                resources { s[3]; }
                op x { use s0 @ 0, 2; use s2 @ 4..7; }
            }"#,
        )
        .unwrap();
        let op = m.operation(m.op_by_name("x").unwrap());
        assert_eq!(op.table().usage_set(ResourceId(0)), vec![0, 2]);
        assert_eq!(op.table().usage_set(ResourceId(2)), vec![4, 5, 6]);
    }

    #[test]
    fn parses_alternatives() {
        let d = parse(
            r#"machine "m" {
                resources { p0; p1; }
                op ld alt { { use p0 @ 0; } { use p1 @ 0; } }
            }"#,
        )
        .unwrap();
        assert_eq!(d.operations()[0].alternatives().len(), 2);
        let (m, g) = d.expand().unwrap();
        assert_eq!(m.num_operations(), 2);
        assert_eq!(
            g.alternatives_of(crate::OpId(0)),
            &[crate::OpId(0), crate::OpId(1)]
        );
    }

    #[test]
    fn parses_integer_and_float_weights() {
        let d = parse(
            r#"machine "m" {
                resources { r; }
                op a weight 3 { use r @ 0; }
                op b weight 0.5 { use r @ 0; }
            }"#,
        )
        .unwrap();
        let (m, _) = d.expand().unwrap();
        assert!((m.operations()[0].weight() - 3.0).abs() < 1e-12);
        assert!((m.operations()[1].weight() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_resource_is_reported_with_name() {
        let e = parse(r#"machine "m" { resources { r; } op x { use q @ 0; } }"#).unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::UnknownResource(n) if n == "q"));
    }

    #[test]
    fn empty_range_is_rejected() {
        let e = parse(r#"machine "m" { resources { r; } op x { use r @ 4..4; } }"#).unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::EmptyRange));
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let e = parse(r#"machine "m" { resources { r; } op x { use r @ 0 } }"#).unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::Expected { .. }));
        assert_eq!(e.to_string(), "1:49: expected `;`, found `}`");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let e = parse(r#"machine "m" { resources { r; } op x { use r @ 0; } } extra"#).unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::Expected { .. }));
    }

    #[test]
    fn source_map_records_declaration_spans() {
        let src = "machine \"m\" {\n    resources { bank[2]; solo; }\n    op x { use solo @ 0; }\n    op y alt {\n        { use bank0 @ 0; }\n        { use bank1 @ 0; }\n    }\n}";
        let (d, map) = crate::mdl::parse_with_source_map(src).unwrap();
        assert_eq!(map.machine_name.line, 1);
        // Bank members share the bank's declaration span.
        assert_eq!(map.resources.len(), 3);
        assert_eq!(map.resources[0], map.resources[1]);
        assert_eq!(map.resources[0].line, 2);
        assert_eq!(map.resources[2].line, 2);
        assert_ne!(map.resources[1], map.resources[2]);
        assert_eq!(map.ops.len(), 2);
        assert_eq!(map.ops[0].line, 3);
        assert_eq!(map.ops[1].line, 4);
        assert_eq!(map.alternatives[0].len(), 1);
        assert_eq!(map.alternatives[1].len(), 2);
        assert_eq!(map.alternatives[1][1].line, 6);
        // Lookup helpers resolve by (possibly expanded) name.
        assert_eq!(
            map.resource_span(d.resource_names(), "solo").unwrap().line,
            2
        );
        let names: Vec<&str> = d.operations().iter().map(|o| o.name()).collect();
        assert_eq!(map.op_span(&names, "y#1").unwrap().line, 4);
    }

    #[test]
    fn empty_alt_block_is_rejected() {
        let e = parse(r#"machine "m" { resources { r; } op x alt { } }"#).unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::Expected { .. }));
    }
}
