//! A minimal hand-rolled JSON writer and reader.
//!
//! The container has no serde; a small value tree with a pretty-printer
//! and a recursive-descent [`Json::parse`] is enough. Object keys keep
//! insertion order — exports are byte-stable for identical runs — and the
//! parser exists so CI can verify that what a bench emitted actually reads
//! back (a malformed export otherwise goes unnoticed until someone's
//! plotting script chokes on it). It lives in `fsim` (the dependency
//! root) so both the OS layer (checkpoint serialization) and the bench
//! exporter share one format.
//!
//! The parser is defensive: malformed input yields a structured
//! [`ParseError`] with a byte offset, nesting is bounded by
//! [`MAX_PARSE_DEPTH`] (a hostile document cannot blow the stack), and
//! numbers that overflow `f64` to infinity are rejected rather than
//! silently becoming non-finite values the writer would re-emit as
//! `null`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned integer (kept exact — counters can exceed 2^53).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// An object under construction (fluent, insertion-ordered).
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, Json)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add (or append — duplicate keys are the caller's bug) a field.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finish into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

impl From<Obj> for Json {
    fn from(o: Obj) -> Json {
        o.build()
    }
}

fn escape_into(out: &mut String, s: &str) {
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

/// Append `indent` levels of two-space padding without allocating (the
/// old `"  ".repeat(n)` built a fresh `String` per emitted line, which
/// dominated large trace exports).
fn push_pad(out: &mut String, indent: usize) {
    const SPACES: &str = "                                                                ";
    let mut n = indent * 2;
    while n > 0 {
        let take = n.min(SPACES.len());
        out.push_str(&SPACES[..take]);
        n -= take;
    }
}

impl Json {
    fn write_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // Display for f64 is the shortest round-trip form, but
                    // bare "1" would re-read as an integer (and one past
                    // 2^64 not at all); keep it a float.
                    if *v != v.trunc() {
                        let _ = write!(out, "{v}");
                    } else if v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v:e}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested ones break.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write_into(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        push_pad(out, indent + 1);
                        item.write_into(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    push_pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    push_pad(out, indent + 1);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Cheap upper bound on the rendered length (including the trailing
    /// newline). Used to pre-size the output buffer: the old growth-by-
    /// doubling `String` re-copied large trace exports O(log n) times,
    /// which showed up as quadratic-feeling wall time on 10k-event dumps.
    /// The bound assumes every container breaks onto multiple lines (the
    /// inline scalar-array layout is always shorter) and every string
    /// character escapes to its worst case.
    pub fn rendered_size_hint(&self) -> usize {
        self.size_hint_at(0) + 1
    }

    fn size_hint_at(&self, indent: usize) -> usize {
        match self {
            Json::Null => 4,
            Json::Bool(_) => 5,
            // u64/i64 fit in 20 digits plus sign.
            Json::UInt(_) | Json::Int(_) => 21,
            // Shortest round-trip f64 is at most 17 significant digits
            // plus sign, point, and exponent.
            Json::Num(_) => 25,
            // Worst case per char is a \uXXXX escape: 6 bytes per input
            // byte, plus the surrounding quotes.
            Json::Str(s) => 6 * s.len() + 2,
            Json::Arr(items) => {
                // Broken layout: "[\n" + per item (pad + value + ",\n")
                // + pad + "]". The inline layout emits strictly less.
                let mut n = 2 + 2 * indent + 1;
                for item in items {
                    n += 2 * (indent + 1) + item.size_hint_at(indent + 1) + 2;
                }
                n
            }
            Json::Obj(fields) => {
                let mut n = 2 + 2 * indent + 1;
                for (k, v) in fields {
                    n += 2 * (indent + 1) + (6 * k.len() + 2) + 2 + v.size_hint_at(indent + 1) + 2;
                }
                n
            }
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    /// The output buffer is pre-sized from [`Json::rendered_size_hint`],
    /// so rendering performs a single allocation.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.rendered_size_hint());
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document. Integers without a fraction or exponent come
    /// back as [`Json::UInt`]/[`Json::Int`], everything else numeric as
    /// [`Json::Num`], so `parse(render(x))` round-trips the value tree.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Field lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Render has no such
/// limit — the writer only emits trees the program actually built — but
/// the reader must not let input depth translate into stack depth.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> ParseError {
        ParseError {
            at: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.array_inner();
        self.depth -= 1;
        r
    }

    fn array_inner(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.object_inner();
        self.depth -= 1;
        r
    }

    fn object_inner(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates would need pairing; benches never
                            // emit them, so reject instead of mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from this byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    s.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            let v: f64 = text.parse().map_err(|_| self.err("bad number"))?;
            if !v.is_finite() {
                // "1e999" parses to infinity; the writer would re-emit it
                // as null, so round-tripping silently loses the value.
                return Err(self.err("number does not fit a finite f64"));
            }
            Ok(Json::Num(v))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn utf8_len(b: u8) -> Option<usize> {
    match b {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::UInt(7).render(), "7\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::Num(1.5).render(), "1.5\n");
        assert_eq!(Json::Num(2.0).render(), "2.0\n", "floats keep a decimal");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn strings_escape() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let j = Obj::new().set("z", 1u64).set("a", "x").build();
        let r = j.render();
        assert!(r.find("\"z\"").unwrap() < r.find("\"a\"").unwrap());
    }

    #[test]
    fn scalar_arrays_inline_nested_break() {
        let flat = Json::Arr(vec![Json::UInt(1), Json::UInt(2)]);
        assert_eq!(flat.render(), "[1, 2]\n");
        let nested = Json::Arr(vec![flat.clone()]);
        assert!(nested.render().contains('\n'));
    }

    #[test]
    fn parse_round_trips_render() {
        let j = Obj::new()
            .set("schema", "vfpga-bench/1")
            .set("count", 42u64)
            .set("neg", -7i64)
            .set("frac", 0.25)
            .set("whole", 2.0)
            .set("flag", true)
            .set("nothing", Json::Null)
            .set("text", "a\"b\\c\nd\ttab")
            .set("empty_arr", Json::Arr(vec![]))
            .set("empty_obj", Obj::new())
            .set(
                "rows",
                Json::Arr(vec![
                    Obj::new().set("x", 1u64).set("y", 1.5).build(),
                    Obj::new().set("x", 2u64).set("y", 2.5).build(),
                ]),
            )
            .build();
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back, j);
        // And a second trip is byte-stable.
        assert_eq!(back.render(), j.render());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "nulll",
            "{'single': 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn parse_accessors_navigate() {
        let j = Json::parse("{\"rows\": [{\"x\": 3}], \"n\": 1}").unwrap();
        let rows = j.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("x"), Some(&Json::UInt(3)));
        assert_eq!(j.get("missing"), None);
    }

    /// Seeded random value-tree generator for the property tests. Depth
    /// is bounded so trees stay within [`MAX_PARSE_DEPTH`]; leaves cover
    /// every scalar variant including awkward strings.
    fn random_value(rng: &mut crate::SimRng, depth: usize) -> Json {
        let pick = if depth >= 6 {
            rng.below(6) // leaves only
        } else {
            rng.below(8)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::UInt(rng.next_u64()),
            // Strictly negative: non-negative integers re-read as UInt.
            3 => Json::Int(-((rng.below(i64::MAX as u64) as i64) + 1)),
            4 => {
                // Finite floats only; keep them representable.
                let v = (rng.next_u64() % 1_000_000) as f64 / 64.0;
                Json::Num(if rng.chance(0.5) { -v } else { v })
            }
            5 => {
                let tricky = [
                    "",
                    "a\"b",
                    "back\\slash",
                    "line\nbreak",
                    "tab\there",
                    "\u{1}\u{1f}",
                    "héllo → wörld",
                    "日本語",
                ];
                Json::Str(tricky[rng.below(tricky.len() as u64) as usize].to_string())
            }
            6 => {
                let n = rng.below(4) as usize;
                Json::Arr((0..n).map(|_| random_value(rng, depth + 1)).collect())
            }
            _ => {
                let n = rng.below(4) as usize;
                Json::Obj(
                    (0..n)
                        .map(|i| (format!("k{i}"), random_value(rng, depth + 1)))
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn property_random_trees_round_trip() {
        let mut rng = crate::SimRng::new(0x1509);
        for case in 0..200 {
            let tree = random_value(&mut rng, 0);
            let text = tree.render();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, tree, "case {case} diverged");
            assert_eq!(back.render(), text, "case {case} not byte-stable");
        }
    }

    #[test]
    fn property_escaped_strings_round_trip() {
        let mut rng = crate::SimRng::new(0xE5C);
        for _ in 0..200 {
            let len = rng.below(24) as usize;
            let s: String = (0..len)
                .map(|_| {
                    // Bias toward characters the escaper must handle.
                    match rng.below(6) {
                        0 => '"',
                        1 => '\\',
                        2 => '\n',
                        3 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                        4 => char::from_u32(0x3b1 + rng.below(24) as u32).unwrap(),
                        _ => char::from_u32(b'a' as u32 + rng.below(26) as u32).unwrap(),
                    }
                })
                .collect();
            let j = Json::Str(s);
            assert_eq!(Json::parse(&j.render()).unwrap(), j);
        }
    }

    #[test]
    fn deep_nesting_round_trips_up_to_the_limit() {
        // MAX_PARSE_DEPTH nested arrays round-trip...
        let mut tree = Json::UInt(1);
        for _ in 0..MAX_PARSE_DEPTH {
            tree = Json::Arr(vec![tree]);
        }
        let text = tree.render();
        assert_eq!(Json::parse(&text).unwrap(), tree);

        // ...one level beyond is rejected with a structured offset
        // pointing at the bracket that would exceed the limit.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        let err = Json::parse(&over).unwrap_err();
        assert!(err.reason.contains("nesting"), "got: {}", err.reason);
        assert_eq!(err.at, MAX_PARSE_DEPTH);
        // And a hostile flat-text bomb cannot blow the stack.
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected_with_offset() {
        for bad in ["1e999", "-1e999", "[1, 2, 1e400]", "{\"x\": 1.5e308999}"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                err.reason.contains("finite"),
                "{bad:?} gave wrong reason: {}",
                err.reason
            );
            assert!(err.at <= bad.len());
        }
        // NaN/Infinity literals are not JSON at all.
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        // Large-but-finite still parses.
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        // Large integral floats stay floats through a render (found by
        // tests/json_damage.rs: `1e19` used to render as a 20-digit
        // integer the parser refuses).
        for big in [1e15, 1e19, -3.8365e92, 1e308] {
            let text = Json::Num(big).render();
            assert_eq!(Json::parse(&text).unwrap(), Json::Num(big), "{text}");
        }
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let err = Json::parse("{\"a\": 1, \"b\": }").unwrap_err();
        assert_eq!(err.at, 14, "offset of the missing value");
        let err = Json::parse("[1, 2, x]").unwrap_err();
        assert_eq!(err.at, 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn size_hint_bounds_every_random_tree() {
        let mut rng = crate::SimRng::new(0x51ED);
        for case in 0..200 {
            let tree = random_value(&mut rng, 0);
            let text = tree.render();
            assert!(
                text.len() <= tree.rendered_size_hint(),
                "case {case}: rendered {} bytes > hint {}",
                text.len(),
                tree.rendered_size_hint()
            );
        }
    }

    #[test]
    fn large_trace_export_renders_in_one_allocation() {
        // Regression for the quadratic-growth path: a 10k-event trace-like
        // array must render into the pre-sized buffer (hint >= final
        // length, so the String never reallocates) and still parse back.
        let events: Vec<Json> = (0..10_000u64)
            .map(|i| {
                Obj::new()
                    .set("at_s", i as f64 * 0.001)
                    .set("tag", if i % 3 == 0 { "config" } else { "dispatch" })
                    .set("task", i % 12)
                    .set("detail", format!("event #{i} \"quoted\"\npayload"))
                    .build()
            })
            .collect();
        let doc = Obj::new()
            .set("schema", "vfpga-bench/1")
            .set("events", Json::Arr(events))
            .build();
        let hint = doc.rendered_size_hint();
        let text = doc.render();
        assert!(
            text.len() <= hint,
            "rendered {} bytes but hint was {hint}",
            text.len()
        );
        // The bound must stay an estimate, not a wild overshoot: worst-case
        // string escaping is 6x, so allow that plus slack.
        assert!(
            hint <= text.len() * 8,
            "hint {hint} overshoots {}",
            text.len()
        );
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("events").and_then(Json::as_arr).unwrap().len(),
            10_000
        );
    }

    #[test]
    fn render_is_valid_enough_to_eyeball() {
        let j = Obj::new()
            .set("schema", "vfpga-bench/1")
            .set("values", Json::Arr(vec![Json::Num(0.25), Json::UInt(4)]))
            .set("nested", Obj::new().set("empty", Json::Arr(vec![])))
            .build();
        let r = j.render();
        assert!(r.starts_with("{\n"));
        assert!(r.contains("\"schema\": \"vfpga-bench/1\""));
        assert!(r.contains("\"empty\": []"));
        assert!(r.ends_with("}\n"));
    }
}
