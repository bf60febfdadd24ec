//! Minimal JSON tree, writer and parser.
//!
//! The workspace vendors no serialization framework, so it carries its
//! own: an order-preserving [`JsonValue`] tree, a deterministic
//! pretty-printer (object keys keep insertion order, f64 uses Rust's
//! shortest-round-trip formatting, non-finite numbers become `null`), a
//! single-line compact writer for JSONL streams, and a small
//! recursive-descent parser used by the determinism tests, the trace
//! summary tool and the CI schema check to read the files back.
//!
//! This module is the one JSON writer for the whole workspace: grid
//! results, timing files, JSONL traces and Chrome trace exports all
//! funnel through it, so they share one key-ordering and one
//! float-formatting rule. `bench::json` re-exports it.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON document node. Object members keep insertion order so the
/// serialized bytes are a pure function of construction order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered members. Keys known at compile
    /// time are borrowed, so fixed-shape documents allocate no key
    /// strings.
    Obj(Vec<(Cow<'static, str>, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn obj() -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    /// Appends a member to an object; panics on non-objects.
    pub fn push(&mut self, key: &str, value: JsonValue) -> &mut Self {
        self.push_member(Cow::Owned(key.to_string()), value)
    }

    /// [`push`](Self::push) for a key known at compile time: the key is
    /// borrowed, not copied.
    pub fn push_static(&mut self, key: &'static str, value: JsonValue) -> &mut Self {
        self.push_member(Cow::Borrowed(key), value)
    }

    fn push_member(&mut self, key: Cow<'static, str>, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Obj(members) => members.push((key, value)),
            _ => panic!("push on non-object JSON value"),
        }
        self
    }

    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace (for JSONL
    /// streams). Shares the number and string rules with
    /// [`to_pretty`](Self::to_pretty), so the two forms agree on every
    /// scalar byte.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(members) if members.is_empty() => out.push_str("{}"),
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// A sink for one object's members, in order. [`JsonValue`] builds the
/// tree form; [`CompactObject`] writes the compact bytes directly. Both
/// print a member identically, so a field list written once against
/// this trait (e.g. [`EventKind::write_payload`]) yields the same bytes
/// through either.
///
/// [`EventKind::write_payload`]: crate::EventKind::write_payload
pub trait Fields {
    /// An unsigned integer member. Printed as the f64 it converts to,
    /// exactly like `JsonValue::Num(v as f64)`.
    fn u64(&mut self, key: &'static str, v: u64);
    /// A number member (non-finite values print as `null`).
    fn f64(&mut self, key: &'static str, v: f64);
    /// A boolean member.
    fn bool(&mut self, key: &'static str, v: bool);
    /// A string member.
    fn str(&mut self, key: &'static str, v: &str);
}

impl Fields for JsonValue {
    fn u64(&mut self, key: &'static str, v: u64) {
        self.push_static(key, JsonValue::Num(v as f64));
    }

    fn f64(&mut self, key: &'static str, v: f64) {
        self.push_static(key, JsonValue::Num(v));
    }

    fn bool(&mut self, key: &'static str, v: bool) {
        self.push_static(key, JsonValue::Bool(v));
    }

    fn str(&mut self, key: &'static str, v: &str) {
        self.push_static(key, JsonValue::Str(v.to_string()));
    }
}

/// A compact JSON object written member by member straight into a
/// `String`, with no tree in between. Its bytes equal
/// [`JsonValue::to_compact`] of the object the same members would
/// build: the same separators and the same number and string rules.
pub struct CompactObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> CompactObject<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> CompactObject<'a> {
        out.push('{');
        CompactObject { out, empty: true }
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }
}

impl Fields for CompactObject<'_> {
    fn u64(&mut self, key: &'static str, v: u64) {
        let out = self.key(key);
        if v < INTEGRAL_LIMIT as u64 {
            // Exact as an f64, so `write_num` would print these digits.
            write_int(out, v as i64);
        } else {
            write_num(out, v as f64);
        }
    }

    fn f64(&mut self, key: &'static str, v: f64) {
        write_num(self.key(key), v);
    }

    fn bool(&mut self, key: &'static str, v: bool) {
        self.key(key).push_str(if v { "true" } else { "false" });
    }

    fn str(&mut self, key: &'static str, v: &str) {
        write_str(self.key(key), v);
    }
}

/// Integral numbers below this magnitude print as plain integers;
/// larger ones take Rust's f64 `Display`.
const INTEGRAL_LIMIT: f64 = 1e15;

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < INTEGRAL_LIMIT {
        // Integral values print without a fraction, through i64 so
        // that -0.0 prints as "0".
        write_int(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Prints `v` in decimal: the bytes of `format!("{v}")` without the
/// formatting machinery.
fn write_int(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Copy the run that needs no escaping in one go; only a string
    // with a quote, backslash or control character takes the
    // per-character path from there on.
    let plain = s
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
        .unwrap_or(s.len());
    out.push_str(&s[..plain]);
    for c in s[plain..].chars() {
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

/// Parses a JSON document. Covers the full grammar the writer emits
/// (no `\uXXXX` surrogate pairs beyond the BMP).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((Cow::Owned(key), self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_deterministic_pretty_output() {
        let mut doc = JsonValue::obj();
        doc.push("name", JsonValue::Str("grid".into()));
        doc.push("count", JsonValue::Num(3.0));
        doc.push("ratio", JsonValue::Num(0.5));
        doc.push(
            "cells",
            JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
        );
        let text = doc.to_pretty();
        assert_eq!(
            text,
            "{\n  \"name\": \"grid\",\n  \"count\": 3,\n  \"ratio\": 0.5,\n  \"cells\": [\n    true,\n    null\n  ]\n}\n"
        );
    }

    #[test]
    fn compact_form_matches_pretty_scalars() {
        let mut doc = JsonValue::obj();
        doc.push("name", JsonValue::Str("grid".into()));
        doc.push("count", JsonValue::Num(3.0));
        doc.push("ratio", JsonValue::Num(0.5));
        doc.push(
            "cells",
            JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
        );
        assert_eq!(
            doc.to_compact(),
            "{\"name\":\"grid\",\"count\":3,\"ratio\":0.5,\"cells\":[true,null]}"
        );
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
    }

    #[test]
    fn roundtrips_through_parser() {
        let mut doc = JsonValue::obj();
        doc.push("esc", JsonValue::Str("a\"b\\c\nd\te\u{1}".into()));
        doc.push("neg", JsonValue::Num(-12.25));
        doc.push("big", JsonValue::Num(1.5e20));
        doc.push("empty_obj", JsonValue::obj());
        doc.push("empty_arr", JsonValue::Arr(vec![]));
        let text = doc.to_pretty();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let doc = JsonValue::Arr(vec![
            JsonValue::Num(f64::NAN),
            JsonValue::Num(f64::INFINITY),
        ]);
        assert_eq!(doc.to_pretty(), "[\n  null,\n  null\n]\n");
        assert_eq!(doc.to_compact(), "[null,null]");
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        let mut out = String::new();
        write_num(&mut out, 42.0);
        out.push(' ');
        write_num(&mut out, -0.0);
        assert_eq!(out, "42 0");
    }

    #[test]
    fn integral_fast_path_matches_i64_display() {
        let mut cases = vec![0.0, -0.0, 1.0, -1.0, 9.0, 10.0, 1e15 - 1.0, -(1e15 - 1.0)];
        let mut p = 1.0;
        for _ in 0..15 {
            cases.extend([p, -p, p - 1.0, -(p - 1.0), p + 1.0, -(p + 1.0)]);
            p *= 10.0;
        }
        // A spread of 15-digit values with every digit in play.
        let mut x = 123_456_789_012_345.0f64;
        for _ in 0..50 {
            cases.extend([x, -x]);
            x = (x * 0.731).trunc();
        }
        for n in cases {
            assert!(n == n.trunc() && n.abs() < 1e15, "{n} is off the fast path");
            let mut out = String::new();
            write_num(&mut out, n);
            assert_eq!(out, format!("{}", n as i64), "write_num({n:?})");
        }
    }

    #[test]
    fn string_escapes_are_pinned() {
        for (text, written) in [
            ("plain é—", "\"plain é—\""),
            (
                "ok \"q\" \\ \n\r\t\u{1}\u{1f} é—",
                "\"ok \\\"q\\\" \\\\ \\n\\r\\t\\u0001\\u001f é—\"",
            ),
            ("é\u{1f}", "\"é\\u001f\""),
            ("\u{0}", "\"\\u0000\""),
            ("x\\", "\"x\\\\\""),
            ("", "\"\""),
        ] {
            let mut out = String::new();
            write_str(&mut out, text);
            assert_eq!(out, written, "{text:?}");
        }
    }

    #[test]
    fn compact_object_matches_the_tree() {
        let strings = [
            "",
            "plain",
            "quo\"te \\ back\nnl\r\ttab\u{1}\u{1f}",
            "ünï—cødé",
            "\\",
        ];
        let numbers = [
            0.0,
            -0.0,
            0.5,
            1.0 / 3.0,
            1e15,
            1e21,
            -2.5e-7,
            f64::NAN,
            f64::INFINITY,
        ];
        let ints = [
            0,
            1,
            999_999_999_999_999,
            1_000_000_000_000_000,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX,
        ];
        for (i, s) in strings.iter().enumerate() {
            let mut tree = JsonValue::obj();
            let mut out = String::from("prefix ");
            let mut direct = CompactObject::open(&mut out);
            for f in [&mut tree as &mut dyn Fields, &mut direct] {
                f.str("s", s);
                f.f64("x", numbers[i]);
                f.u64("n", ints[i]);
                f.bool("b", i.is_multiple_of(2));
                f.f64("y", numbers[numbers.len() - 1 - i]);
                f.u64("m", ints[ints.len() - 1 - i]);
            }
            direct.close();
            assert_eq!(out, format!("prefix {}", tree.to_compact()));
        }
        let mut out = String::new();
        CompactObject::open(&mut out).close();
        assert_eq!(out, JsonValue::obj().to_compact());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("true false").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn lookup_helpers() {
        let doc = parse("{\"a\": [1, \"x\"], \"b\": 2}").unwrap();
        assert_eq!(doc.get("b").and_then(JsonValue::as_num), Some(2.0));
        let arr = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
