//! In-tree stand-in for the subset of `serde` used by this workspace,
//! so offline builds never touch a registry.
//!
//! The real serde is a generic serialization framework; the workspace
//! only ever serializes benchmark records straight to JSON. So the shim
//! collapses the whole data-model indirection into one method: a
//! [`Serialize`] type knows how to append its JSON encoding to a
//! `String`. `#[derive(Serialize)]` (from the companion `serde_derive`
//! proc-macro shim) writes named-field structs as JSON objects, and the
//! `serde_json` shim layers `to_string`/`to_string_pretty` on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

// Lets this crate's own tests use the derive, whose expansion names
// `::serde::...` paths.
extern crate self as serde;

pub use serde_derive::Serialize;

/// A type that can append its JSON encoding to a buffer.
pub trait Serialize {
    /// Append `self`, encoded as JSON, to `out`.
    fn write_json(&self, out: &mut String);
}

/// Append a JSON string literal (quoted, escaped) to `out`.
pub fn write_json_string(out: &mut String, s: &str) {
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

/// Append an object key and its separating colon (`"key":`) to `out`.
/// Called from derive-generated code.
pub fn write_json_key(out: &mut String, key: &str) {
    write_json_string(out, key);
    out.push(':');
}

macro_rules! int_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{}", self);
            }
        }
    )*};
}

int_serialize!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! float_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{}", self);
                } else {
                    // JSON has no NaN/Infinity; serde_json emits null.
                    out.push_str("null");
                }
            }
        }
    )*};
}

float_serialize!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        let mut buf = [0u8; 4];
        write_json_string(out, self.encode_utf8(&mut buf));
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

macro_rules! tuple_serialize {
    ($($name:ident/$idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    };
}

tuple_serialize!(A / 0);
tuple_serialize!(A / 0, B / 1);
tuple_serialize!(A / 0, B / 1, C / 2);
tuple_serialize!(A / 0, B / 1, C / 2, D / 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize>(v: &T) -> String {
        let mut s = String::new();
        v.write_json(&mut s);
        s
    }

    #[test]
    fn primitives_and_containers() {
        assert_eq!(json(&3u32), "3");
        assert_eq!(json(&-4i64), "-4");
        assert_eq!(json(&2.5f64), "2.5");
        assert_eq!(json(&f64::NAN), "null");
        assert_eq!(json(&true), "true");
        assert_eq!(json(&"a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(json(&vec![1u8, 2, 3]), "[1,2,3]");
        assert_eq!(json(&Some(1u8)), "1");
        assert_eq!(json(&None::<u8>), "null");
        assert_eq!(json(&vec![("x".to_string(), 4usize)]), "[[\"x\",4]]");
    }

    #[test]
    fn derive_writes_objects() {
        #[derive(Serialize)]
        struct Rec {
            label: String,
            count: usize,
            ratio: f64,
            pairs: Vec<(String, usize)>,
        }
        let r = Rec {
            label: "x".into(),
            count: 2,
            ratio: 0.5,
            pairs: vec![("a".into(), 1)],
        };
        assert_eq!(
            json(&r),
            "{\"label\":\"x\",\"count\":2,\"ratio\":0.5,\"pairs\":[[\"a\",1]]}"
        );
    }

    #[test]
    fn derive_handles_nesting_and_generics_in_fields() {
        #[derive(Serialize)]
        struct Inner {
            v: Vec<Option<u32>>,
        }
        #[derive(Serialize)]
        struct Outer {
            inner: Inner,
            maybe: Option<String>,
        }
        let o = Outer {
            inner: Inner {
                v: vec![Some(1), None],
            },
            maybe: None,
        };
        assert_eq!(json(&o), "{\"inner\":{\"v\":[1,null]},\"maybe\":null}");
    }
}
