//! The JSON-like value tree both traits go through, plus text
//! parsing/printing used by the `serde_json` facade.

use std::fmt::Write;

use crate::Error;

/// A JSON number. Integers keep their exact representation so `u64`
/// seeds and ids survive the text round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Number {
    /// Loses integer-ness but never magnitude beyond `f64` precision.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }
}

/// An insertion-ordered string-keyed map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` at `key`, replacing any existing entry.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((key, value)),
        }
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes `key`, returning its value when it was present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Mutable lookup, inserting `Null` at `key` when absent.
    pub fn entry_or_null(&mut self, key: &str) -> &mut Value {
        if !self.entries.iter().any(|(k, _)| k == key) {
            self.entries.push((key.to_owned(), Value::Null));
        }
        let slot = self
            .entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("just inserted");
        &mut slot.1
    }
}

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Short type name for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(u)) => Some(*u),
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

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The entry map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Member access; missing keys and non-objects index to `null`,
    /// matching `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Array element access; out-of-range and non-arrays index to `null`.
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    /// Mutable member access. `null` auto-vivifies into an object and
    /// missing keys are inserted as `null`, matching `serde_json`.
    ///
    /// # Panics
    ///
    /// Panics when `self` is neither an object nor `null`.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if matches!(self, Value::Null) {
            *self = Value::Object(Map::new());
        }
        match self {
            Value::Object(map) => map.entry_or_null(key),
            other => panic!("cannot index {} with a string key", other.kind_name()),
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    /// Mutable array element access.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an array or `idx` is out of range.
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(items) => &mut items[idx],
            other => panic!("cannot index {} with a usize", other.kind_name()),
        }
    }
}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

/// Renders a value as compact (`pretty = false`) or 2-space-indented JSON.
pub fn to_json_text(v: &Value, pretty: bool) -> String {
    let mut out = String::new();
    write_value(&mut out, v, pretty, 0);
    out
}

fn write_value(out: &mut String, v: &Value, pretty: bool, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
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
                newline_indent(out, pretty, depth + 1);
                write_value(out, item, pretty, depth + 1);
            }
            newline_indent(out, pretty, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, pretty, depth + 1);
                write_string(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, pretty, depth + 1);
            }
            newline_indent(out, pretty, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, pretty: bool, depth: usize) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    let _ = match n {
        Number::U(u) => write!(out, "{u}"),
        Number::I(i) => write!(out, "{i}"),
        // Rust's shortest-roundtrip Display keeps `f64` bits exact across
        // print/parse; non-finite values have no JSON form and become null.
        Number::F(f) if f.is_finite() => write!(out, "{f}"),
        Number::F(_) => out.write_str("null"),
    };
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Deepest nesting of arrays and objects a document may have, as in
/// `serde_json`: the parser recurses once per level, so deeper input is
/// an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] with a byte offset on malformed input, or on
/// arrays and objects nested more than 128 deep.
pub fn parse_json_text(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input; string runs are sliced out of it.
    text: &'a str,
    /// `text` as bytes, which the parser scans.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Runs `container` one nesting level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map { entries: members }));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(dedup_members(members)));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::with_capacity(unescaped_len_bound(&self.bytes[self.pos..]));
        loop {
            let start = self.pos;
            self.pos += find_quote_or_backslash(&self.bytes[start..]);
            // `"` and `\` are ASCII, so the run ends on a char boundary
            // of the (already valid UTF-8) input.
            out.push_str(&self.text[start..self.pos]);
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n = if is_float {
            Number::F(
                text.parse::<f64>()
                    .map_err(|_| self.err("invalid number"))?,
            )
        } else if text.starts_with('-') {
            match text.parse::<i64>() {
                Ok(i) => Number::I(i),
                Err(_) => Number::F(
                    text.parse::<f64>()
                        .map_err(|_| self.err("invalid number"))?,
                ),
            }
        } else {
            match text.parse::<u64>() {
                Ok(u) => Number::U(u),
                Err(_) => Number::F(
                    text.parse::<f64>()
                        .map_err(|_| self.err("invalid number"))?,
                ),
            }
        };
        Ok(Value::Number(n))
    }
}

/// Offset of the first `"` or `\` in `bytes`, or `bytes.len()` when it
/// has none, looked for 8 bytes at a time.
fn find_quote_or_backslash(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    // Flags the bytes of `w` that are zero. A borrow can also flag a
    // byte above a zero one, so only the lowest flag is exact.
    let zero_bytes = |w: u64| w.wrapping_sub(ONES) & !w & HIGHS;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
        let hits =
            zero_bytes(w ^ (ONES * u64::from(b'"'))) | zero_bytes(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return i * 8 + hits.trailing_zeros() as usize / 8;
        }
    }
    let tail = words.remainder();
    bytes.len() - tail.len()
        + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(tail.len())
}

/// An upper bound on the unescaped length of the string whose body
/// `bytes` starts: its bytes up to the closing quote, less the byte
/// after each `\` (an escape never unescapes to more bytes than it
/// spans, less one). Sizing the string once leaves it no doubling slack.
fn unescaped_len_bound(bytes: &[u8]) -> usize {
    let (mut pos, mut escapes) = (0, 0);
    loop {
        pos += find_quote_or_backslash(&bytes[pos..]);
        if bytes.get(pos) != Some(&b'\\') {
            return pos - escapes;
        }
        escapes += 1;
        pos = (pos + 2).min(bytes.len());
    }
}

/// The map of an object's `members` in order. A duplicated key keeps its
/// first position and takes its last value, which is what inserting them
/// one by one would give, in O(n log n) rather than O(n²).
fn dedup_members(mut members: Vec<(String, Value)>) -> Map {
    // Positions sorted by (key, position): a duplicated key is a run.
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_unstable_by(|&a, &b| members[a].0.cmp(&members[b].0).then(a.cmp(&b)));
    // Each run's first position takes its last value; the positions
    // after it are gathered at the front of `order` and dropped.
    let (mut run, mut dropped) = (0, 0);
    while run < order.len() {
        let key = &members[order[run]].0;
        let len = order[run..]
            .iter()
            .take_while(|&&i| members[i].0 == *key)
            .count();
        if len > 1 {
            let last = std::mem::replace(&mut members[order[run + len - 1]].1, Value::Null);
            members[order[run]].1 = last;
            order.copy_within(run + 1..run + len, dropped);
            dropped += len - 1;
        }
        run += len;
    }
    order.truncate(dropped);
    order.sort_unstable();
    let mut dropped = order.into_iter().peekable();
    let mut position = 0;
    members.retain(|_| {
        let keep = dropped.next_if_eq(&position).is_none();
        position += 1;
        keep
    });
    Map { entries: members }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip_preserves_bits() {
        let vals = [1.5e-15, -3.25, 1.0, 0.1, f64::MIN_POSITIVE, 12345.678e9];
        for v in vals {
            let text = to_json_text(&Value::Number(Number::F(v)), false);
            let back = parse_json_text(&text).unwrap();
            assert_eq!(
                back.as_f64().map(f64::to_bits),
                Some(v.to_bits()),
                "{v} via {text}"
            );
        }
        let text = to_json_text(&Value::Number(Number::U(u64::MAX)), false);
        assert_eq!(parse_json_text(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let src = r#"{"a": [1, -2, 3.5, "x\ny", null, true], "b": {"c": []}}"#;
        let v = parse_json_text(src).unwrap();
        assert_eq!(v["a"][2].as_f64(), Some(3.5));
        assert_eq!(v["a"][3].as_str(), Some("x\ny"));
        assert!(v["a"][4].is_null());
        assert_eq!(v["b"]["c"].as_array().map(Vec::len), Some(0));
        let reprinted = to_json_text(&v, true);
        assert_eq!(parse_json_text(&reprinted).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1.2.3", "[] []"] {
            assert!(parse_json_text(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_past_128_levels_is_an_error_not_a_stack_overflow() {
        let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse_json_text(&nest(128)).is_ok());
        let objects = "{\"a\":".repeat(128) + "1" + &"}".repeat(128);
        assert!(parse_json_text(&objects).is_ok());
        for levels in [129, 1_000_000] {
            let err = parse_json_text(&nest(levels)).expect_err("too deep");
            assert_eq!(err.to_string(), "recursion limit exceeded at byte 128");
        }
        let err = parse_json_text(&format!("{{\"netlist\":{}", "[".repeat(20_000)))
            .expect_err("too deep");
        assert_eq!(err.to_string(), "recursion limit exceeded at byte 138");
    }

    #[test]
    fn duplicate_keys_keep_the_first_position_and_the_last_value() {
        let v = parse_json_text(r#"{"b": 1, "a": 2, "b": 3, "c": 4, "a": 5, "b": 6}"#).unwrap();
        let members: Vec<(&str, u64)> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64().unwrap()))
            .collect();
        assert_eq!(members, [("b", 6), ("a", 5), ("c", 4)]);
        // The same members inserted one by one give the same map.
        let mut inserted = Map::new();
        for (k, u) in [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5), ("b", 6)] {
            inserted.insert(k, Value::Number(Number::U(u)));
        }
        assert_eq!(v, Value::Object(inserted));
    }

    #[test]
    fn word_scan_finds_every_quote_and_backslash_offset() {
        // Multi-byte UTF-8 around the target, with 0xA2 ('¢' = C2 A2)
        // and 0xDC ('ܐ' = DC 90): `"` and `\` with the top bit set.
        let filler = "a¢ܐ€😀".repeat(16);
        for target in [b'"', b'\\'] {
            for offset in 0..=40 {
                let mut bytes = filler.as_bytes()[..offset].to_vec();
                // A borrow out of the target's byte falsely flags a `#`
                // (`"` ^ 1) or `]` (`\` ^ 1) above it; the `"` and `\`
                // after them are true but later hits.
                bytes.extend([target, b'#', b']', b'"', b'\\']);
                bytes.extend_from_slice(filler.as_bytes());
                let by_bytes = bytes.iter().position(|&b| b == b'"' || b == b'\\');
                assert_eq!(Some(find_quote_or_backslash(&bytes)), by_bytes, "{offset}");
                assert_eq!(by_bytes, Some(offset));
            }
        }
        let plain = filler.as_bytes();
        for len in 0..=40 {
            assert_eq!(find_quote_or_backslash(&plain[..len]), len);
        }
    }

    #[test]
    fn strings_roundtrip_through_escapes() {
        // Quotes, backslashes, control characters, and 1- to 4-byte
        // UTF-8, with `"` and `\` in the top-bit-set bytes of '¢' and 'ܐ'.
        let alphabet: Vec<char> = "\"\\\n\r\t\u{8}\u{c}\u{1}\u{1f}a é¢ܐ€日😀\u{10FFFF}"
            .chars()
            .collect();
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % 40) as usize;
            let s: String = (0..len)
                .map(|i| alphabet[(state >> (i % 50)) as usize % alphabet.len()])
                .collect();
            let text = to_json_text(&Value::String(s.clone()), false);
            let parsed = parse_json_text(&text).unwrap();
            assert_eq!(parsed.as_str(), Some(s.as_str()), "{text}");
            assert!(
                s.len() <= unescaped_len_bound(&text.as_bytes()[1..]),
                "{text}"
            );
        }
        // Escapes that the printer never writes.
        let v = parse_json_text(r#""\/é€😀""#).unwrap();
        assert_eq!(v.as_str(), Some("/é€😀"));
    }

    #[test]
    fn malformed_strings_report_the_same_errors_and_offsets() {
        for (text, want) in [
            (r#""abc"#, "unterminated string at byte 4"),
            (r#""0123456789abcdefg"#, "unterminated string at byte 18"),
            ("\"日本", "unterminated string at byte 7"),
            (r#""ab\q""#, "unknown escape at byte 5"),
            ("\"ü\\q\"", "unknown escape at byte 5"),
            (r#""abc\"#, "unterminated escape at byte 5"),
            (r#""\u12G4""#, "invalid \\u escape at byte 3"),
            (r#""\u12"#, "truncated \\u escape at byte 3"),
            (r#""\udc00""#, "invalid \\u escape at byte 7"),
            (r#""\ud800x""#, "unpaired surrogate at byte 7"),
            (r#""0123456789\ud800A""#, "unpaired surrogate at byte 17"),
        ] {
            let err = parse_json_text(text).expect_err(text);
            assert_eq!(err.to_string(), want, "{text}");
        }
    }

    #[test]
    fn surrogate_pairs_must_pair_high_with_low() {
        for bad in [r#""\ud800\u0041""#, r#""\ud800\ue000""#] {
            let err = parse_json_text(bad).expect_err(bad);
            assert!(
                err.to_string().contains("unpaired surrogate"),
                "{bad}: {err}"
            );
        }
        for (text, want) in [
            (r#""\ud83d\ude00""#, '\u{1F600}'),
            (r#""\udbff\udfff""#, '\u{10FFFF}'),
        ] {
            let parsed = parse_json_text(text).unwrap();
            assert_eq!(parsed.as_str(), Some(want.to_string().as_str()), "{text}");
        }
    }
}
