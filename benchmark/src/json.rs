//! A JSON value and its writer — all the benchmark needs to emit its
//! result line, `results.json`, `trace.json` and `BENCHMARK.json`.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Written with every digit `f64`'s shortest round-trip form has.
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Self {
        Json::Str(s.to_string())
    }

    pub fn hex(v: u64) -> Self {
        Json::Str(format!("{v:016x}"))
    }

    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Self {
        Json::Array(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// On one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces, newline-terminated. Arrays of scalars and
    /// objects of scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("writing to a String"),
            // JSON has no NaN or infinity; a reader sees the gap.
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                let flat = indent.filter(|_| !items.iter().all(Json::is_scalar));
                write_seq(out, '[', ']', flat, depth, items.len(), |out, i, inner| {
                    items[i].write(out, inner, depth + 1);
                });
            }
            Json::Object(fields) => {
                let flat = indent.filter(|_| !fields.iter().all(|(_, v)| v.is_scalar()));
                write_seq(out, '{', '}', flat, depth, fields.len(), |out, i, inner| {
                    write_str(out, &fields[i].0);
                    out.push_str(": ");
                    fields[i].1.write(out, inner, depth + 1);
                });
            }
        }
    }
}

/// Writes a bracketed, comma-separated sequence; one item per line when
/// `indent` is set, on one line otherwise. Nested values inherit the
/// caller's indentation choice, not this sequence's.
fn write_seq(
    out: &mut String,
    open: char,
    close: char,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match indent {
            Some(width) => {
                out.push('\n');
                out.push_str(&" ".repeat(width * (depth + 1)));
            }
            None if i > 0 => out.push(' '),
            None => {}
        }
        item(out, i, indent);
    }
    if let (Some(width), true) = (indent, len > 0) {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_forms() {
        let v = Json::object([
            ("correct", Json::Bool(true)),
            ("n", Json::Num(1.25)),
            ("whole", Json::Num(8.0)),
            ("s", Json::str("a\"b\\c\n")),
            ("list", Json::Array(vec![Json::object([("k", Json::Num(f64::NAN))])])),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"correct": true, "n": 1.25, "whole": 8, "s": "a\"b\\c\n", "list": [{"k": null}]}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"correct\": true,\n  \"n\": 1.25,\n  \"whole\": 8,\n  \"s\": \"a\\\"b\\\\c\\n\",\n  \
             \"list\": [\n    {\"k\": null}\n  ]\n}\n"
        );
        assert_eq!(Json::nums(&[]).pretty(), "[]\n");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }
}
