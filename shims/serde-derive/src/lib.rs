//! `#[derive(Serialize)]` for the in-tree serde shim.
//!
//! Hand-rolled token walking instead of `syn`/`quote` so the workspace
//! builds with zero registry dependencies. Supports exactly what the
//! workspace derives on: non-generic structs with named fields (plus
//! tuple and unit structs for completeness). Enums and generic structs
//! are rejected with a compile error naming this shim.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (the shim trait) for a struct.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match generate(input) {
        Ok(ts) => ts,
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

fn generate(input: TokenStream) -> Result<TokenStream, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip attributes (`#[...]`) and visibility (`pub`, `pub(crate)`).
    let name;
    loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => match tokens.next() {
                Some(TokenTree::Ident(n)) => {
                    name = n.to_string();
                    break;
                }
                other => return Err(format!("expected struct name, found {other:?}")),
            },
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" || id.to_string() == "union" => {
                return Err(format!(
                    "the in-tree serde_derive shim only supports structs, not `{id}`s"
                ));
            }
            Some(_) => {}
            None => return Err("expected a struct definition".to_string()),
        }
    }

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = named_fields(g.stream())?;
            let mut writes = String::from("out.push('{');");
            for (i, field) in fields.iter().enumerate() {
                if i > 0 {
                    writes.push_str("out.push(',');");
                }
                writes.push_str(&format!(
                    "::serde::write_json_key(out, {field:?});\
                     ::serde::Serialize::write_json(&self.{field}, out);"
                ));
            }
            writes.push_str("out.push('}');");
            writes
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let arity = tuple_arity(g.stream());
            let mut writes = String::from("out.push('[');");
            for i in 0..arity {
                if i > 0 {
                    writes.push_str("out.push(',');");
                }
                writes.push_str(&format!("::serde::Serialize::write_json(&self.{i}, out);"));
            }
            writes.push_str("out.push(']');");
            writes
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => "out.push_str(\"null\");".to_string(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!(
                "the in-tree serde_derive shim does not support generic struct `{name}`"
            ));
        }
        other => return Err(format!("unsupported struct body: {other:?}")),
    };

    let out = format!(
        "impl ::serde::Serialize for {name} {{\
             fn write_json(&self, out: &mut ::std::string::String) {{ {body} }}\
         }}"
    );
    out.parse()
        .map_err(|e| format!("derive expansion failed to parse: {e:?}"))
}

/// Field names of a named-field struct body, in declaration order.
fn named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip field attributes and visibility.
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    tokens.next();
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                _ => break,
            }
        }
        match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            other => return Err(format!("expected field name, found {other:?}")),
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        // Consume the type: everything until a comma at angle-bracket
        // depth zero. Parenthesized/bracketed types are single groups,
        // so only `<`/`>` need depth tracking.
        let mut depth = 0i32;
        loop {
            match tokens.peek() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                    depth += 1;
                    tokens.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    depth -= 1;
                    tokens.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => {
                    tokens.next();
                    break;
                }
                Some(_) => {
                    tokens.next();
                }
            }
        }
    }
    Ok(fields)
}

/// Number of fields in a tuple-struct body (top-level commas + 1).
fn tuple_arity(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for tok in stream {
        any = true;
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => commas += 1,
                _ => {}
            }
        }
    }
    if !any {
        0
    } else {
        commas + 1
    }
}
