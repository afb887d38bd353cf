//! Offline shim for `serde_json`: renders the serde shim's [`serde::Value`]
//! tree as JSON text. Only the serialization half exists — that is all the
//! experiment harness uses (result dumps in `results/`).

use std::fmt;

use serde::{Serialize, Value};

/// Serialization error. The shim's rendering is total (non-finite floats
/// become `null`), so this is never actually produced; it exists to keep
/// `to_string_pretty(..)?` / `.unwrap_or_default()` call sites compiling.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as compact JSON.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Renders `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

fn write_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            // Match serde_json: integral floats still print a fraction.
            if f.fract() == 0.0 && f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_value(item, indent, depth + 1, out);
            }
            write_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out);
            }
            write_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use serde::Value;

    #[test]
    fn pretty_object() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let s = super::to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}");
    }

    #[test]
    fn compact_and_escaping() {
        let v = Value::Object(vec![("k\n".into(), Value::Str("x\"y".into()))]);
        assert_eq!(super::to_string(&v).unwrap(), "{\"k\\n\":\"x\\\"y\"}");
    }

    #[test]
    fn floats_keep_fraction() {
        assert_eq!(super::to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(super::to_string(&2.5f64).unwrap(), "2.5");
    }
}
