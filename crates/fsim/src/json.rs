//! The workspace's one JSON format: a value tree, its writer and reader,
//! and the one typed codec, [`Wire`], for everything that is written and
//! read back.
//!
//! The container has no serde; a small value tree with a pretty-printer
//! and a recursive-descent [`Json::parse`] is enough. Object keys keep
//! insertion order — exports are byte-stable for identical runs — and the
//! parser exists so CI can verify that what a bench emitted actually reads
//! back (a malformed export otherwise goes unnoticed until someone's
//! plotting script chokes on it). It lives in `fsim` (the dependency
//! root) so the compile cache (`pnr`), the checkpoint images (`vfpga`) and
//! the bench exporter share one format.
//!
//! The parser is defensive: malformed input yields a structured
//! [`ParseError`] with a byte offset, nesting is bounded by
//! [`MAX_PARSE_DEPTH`] (a hostile document cannot blow the stack), and
//! numbers that overflow `f64` to infinity are rejected rather than
//! silently becoming non-finite values the writer would re-emit as
//! `null`.
//!
//! # The codec
//!
//! [`Wire::json`] writes a typed value and [`Wire::read`] is its strict
//! inverse. What each type is written as:
//!
//! * unsigned integers, `bool` and `String` as themselves (a narrow
//!   integer is range-checked on the way back), [`SimTime`] and
//!   [`SimDuration`] as integer nanoseconds, a [`Json`] as itself;
//! * `Option` as `null` or its value; sequences and fixed arrays as arrays,
//!   tuples as arrays of exactly their arity;
//! * `BTreeSet` as its members and `BTreeMap` as `[key, value]` pairs, both
//!   in strictly ascending key order;
//! * a [`record!`](crate::record) struct as an object keyed by its field
//!   names in declaration order: one field list is the struct, its writer
//!   and its reader.
//!
//! A reader accepts exactly what its writer emits — no other kind of
//! value, no field missing, extra, repeated or out of place, no key out of
//! order — and says what it refused, never panicking; what a value must
//! *mean* is for its consumer to check. A `record!` field may name its own
//! codec, `#[with(module)]` (`module::json` writes it, `module::read` reads
//! it): how a crate gives its own shape to a field whose type is a foreign
//! container (a `Vec<(SimTime, Event)>` as flat `[at, kind, arg]` rows),
//! which the orphan rule would not let it implement [`Wire`] for.

use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

// ---------------------------------------------------------------------------
// The codec.

/// A typed value as one JSON value: how it is written
/// ([`json`](Wire::json)) and strictly read back ([`read`](Wire::read);
/// `what` names the value in the error).
pub trait Wire: Sized {
    /// The value as JSON.
    fn json(&self) -> Json;
    /// The value [`json`](Wire::json) wrote as `v`, or what is wrong with `v`.
    fn read(v: &Json, what: &str) -> Result<Self, String>;
}

/// Declare a struct — attributes, docs, names and types exactly as
/// written — and implement [`Wire`] for it from the same field list: an
/// object keyed by field name in declaration order, read back strictly.
/// A field marked `#[skip_if(pred)]` is left out while `pred` holds for
/// it; absent, it reads as its default, and written out, it must not be a
/// value the writer would have left out. One marked `#[with(module)]` is
/// written by `module::json` and read by `module::read` instead.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$param:ident>)? {
            $(
                $(#[doc = $doc:literal])*
                $(#[skip_if($skip:path)])?
                $(#[with($with:ident)])?
                $fvis:vis $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$param>)? {
            $($(#[doc = $doc])* $fvis $field: $ty,)*
        }

        impl $(<$param: $crate::json::Wire>)? $crate::json::Wire for $name $(<$param>)? {
            fn json(&self) -> $crate::json::Json {
                let mut fields = Vec::with_capacity([$(stringify!($field)),*].len());
                $($crate::record!(
                    @set fields, $field, &self.$field $(, skip $skip)? $(, with $with)?
                );)*
                $crate::json::Json::Obj(fields)
            }

            fn read(v: &$crate::json::Json, what: &str) -> Result<Self, String> {
                let mut f = $crate::json::Fields::of(v, what)?;
                let read = Self {
                    $($field: $crate::record!(@get f, $field $(, skip $skip)? $(, with $with)?),)*
                };
                f.end()?;
                Ok(read)
            }
        }
    };
    (@set $fields:ident, $field:ident, $value:expr) => {
        $fields.push((stringify!($field).to_string(), $crate::json::Wire::json($value)))
    };
    (@set $fields:ident, $field:ident, $value:expr, skip $skip:path) => {
        if !$skip($value) {
            $crate::record!(@set $fields, $field, $value)
        }
    };
    (@set $fields:ident, $field:ident, $value:expr, with $with:ident) => {
        $fields.push((stringify!($field).to_string(), $with::json($value)))
    };
    (@get $f:ident, $field:ident) => {
        $f.get(stringify!($field))?
    };
    (@get $f:ident, $field:ident, skip $skip:path) => {
        $f.get_unless(stringify!($field), $skip)?
    };
    (@get $f:ident, $field:ident, with $with:ident) => {
        $with::read($f.next(stringify!($field))?, stringify!($field))?
    };
}

impl Wire for u64 {
    #[inline]
    fn json(&self) -> Json {
        Json::UInt(*self)
    }
    #[inline]
    fn read(v: &Json, what: &str) -> Result<u64, String> {
        match v {
            Json::UInt(x) => Ok(*x),
            other => not(what, other, "an unsigned integer"),
        }
    }
}

/// Unsigned integers narrower than 64 bits, read as `u64` and range-checked.
macro_rules! narrow_uint {
    ($($ty:ty: $width:literal),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn json(&self) -> Json {
                Json::UInt(*self as u64)
            }
            #[inline]
            fn read(v: &Json, what: &str) -> Result<$ty, String> {
                <$ty>::try_from(u64::read(v, what)?)
                    .map_err(|_| format!("{what} does not fit in {}", $width))
            }
        }
    )*};
}
narrow_uint!(u8: "8 bits", u16: "16 bits", u32: "32 bits", usize: "usize");

impl Wire for bool {
    #[inline]
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
    #[inline]
    fn read(v: &Json, what: &str) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => not(what, other, "a bool"),
        }
    }
}

impl Wire for String {
    fn json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn read(v: &Json, what: &str) -> Result<String, String> {
        str_of(v, what).map(str::to_string)
    }
}

/// Times and durations are integer nanoseconds.
macro_rules! nanos {
    ($($ty:ident: $wrap:expr),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn json(&self) -> Json {
                Json::UInt(self.as_nanos())
            }
            #[inline]
            fn read(v: &Json, what: &str) -> Result<$ty, String> {
                u64::read(v, what).map($wrap)
            }
        }
    )*};
}
nanos!(SimTime: SimTime, SimDuration: SimDuration::from_nanos);

/// A section a component renders and reads itself, carried as is.
impl Wire for Json {
    fn json(&self) -> Json {
        self.clone()
    }
    fn read(v: &Json, _what: &str) -> Result<Json, String> {
        Ok(v.clone())
    }
}

/// `null` is "none".
impl<T: Wire> Wire for Option<T> {
    fn json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::json)
    }
    fn read(v: &Json, what: &str) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, what).map(Some),
        }
    }
}

/// Sequences are arrays.
macro_rules! sequence {
    ($($seq:ident),*) => {$(
        impl<T: Wire> Wire for $seq<T> {
            fn json(&self) -> Json {
                Json::Arr(self.iter().map(T::json).collect())
            }
            fn read(v: &Json, what: &str) -> Result<$seq<T>, String> {
                arr_of(v, what)?.iter().map(|x| T::read(x, what)).collect()
            }
        }
    )*};
}
sequence!(Vec, VecDeque);

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(T::json).collect())
    }
    fn read(v: &Json, what: &str) -> Result<[T; N], String> {
        let items = Vec::<T>::read(v, what)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| format!("{what} has {n} entries, want {N}"))
    }
}

/// Tuples are arrays of exactly their arity.
macro_rules! tuple_wire {
    ($(($($t:ident $v:ident),*)),*) => {$(
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn json(&self) -> Json {
                let ($($v,)*) = self;
                Json::Arr(vec![$($v.json()),*])
            }
            fn read(v: &Json, what: &str) -> Result<Self, String> {
                let [$($v),*] = tuple(v, what)?;
                Ok(($($t::read($v, what)?,)*))
            }
        }
    )*};
}
tuple_wire!(
    (A a, B b),
    (A a, B b, C c),
    (A a, B b, C c, D d),
    (A a, B b, C c, D d, E e, F f, G g)
);

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(T::json).collect())
    }
    fn read(v: &Json, what: &str) -> Result<BTreeSet<T>, String> {
        let members = Vec::<T>::read(v, what)?;
        ascending(&members, |m| m, what)?;
        Ok(members.into_iter().collect())
    }
}

/// Written from a borrow or an owned value; read back owned.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn json(&self) -> Json {
        T::json(self)
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        T::read(v, what).map(Cow::Owned)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn json(&self) -> Json {
        let pair = |(k, v): (&K, &V)| Json::Arr(vec![k.json(), v.json()]);
        Json::Arr(self.iter().map(pair).collect())
    }
    fn read(v: &Json, what: &str) -> Result<BTreeMap<K, V>, String> {
        let pairs = Vec::<(K, V)>::read(v, what)?;
        ascending(&pairs, |(k, _)| k, what)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Keys in strictly ascending order, as a `BTreeSet` or a `BTreeMap`
/// writes them; a key out of order or listed twice is an error.
pub fn ascending<T, K: Ord>(items: &[T], key: impl Fn(&T) -> &K, what: &str) -> Result<(), String> {
    if items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        Ok(())
    } else {
        Err(format!("{what} lists a key out of order or twice"))
    }
}

/// What kind of JSON value `v` is, for error messages (a `Debug` dump of
/// a misplaced array could run to megabytes).
pub fn kind_of(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::UInt(_) | Json::Int(_) | Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

/// "`what` is `v`'s kind, not `want`".
fn not<T>(what: &str, v: &Json, want: &str) -> Result<T, String> {
    Err(format!("{what} is {}, not {want}", kind_of(v)))
}

/// The string `v` is.
pub fn str_of<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => not(what, other, "a string"),
    }
}

/// The items of the array `v` is.
pub fn arr_of<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_arr().map_or_else(|| not(what, v, "an array"), Ok)
}

/// An array of exactly `N` items, for destructuring.
pub fn tuple<'a, const N: usize>(v: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
    let a = arr_of(v, what)?;
    a.try_into()
        .map_err(|_| format!("{what} has {} entries, want {N}", a.len()))
}

/// Strict reader over one JSON object: the fields must come in exactly
/// the order the writer emits them, with nothing missing and nothing
/// extra.
pub struct Fields<'a> {
    what: &'a str,
    rest: std::slice::Iter<'a, (String, Json)>,
}

impl<'a> Fields<'a> {
    /// The fields of `v`, which must be an object.
    pub fn of(v: &'a Json, what: &'a str) -> Result<Self, String> {
        match v {
            Json::Obj(fields) => Ok(Fields {
                what,
                rest: fields.iter(),
            }),
            other => not(what, other, "an object"),
        }
    }

    /// The next field's value, which must be `key`'s.
    pub fn next(&mut self, key: &str) -> Result<&'a Json, String> {
        match self.rest.next() {
            Some((k, v)) if k == key => Ok(v),
            Some((k, _)) => Err(format!("{}: expected '{key}', found '{k}'", self.what)),
            None => Err(format!("{}: missing '{key}'", self.what)),
        }
    }

    /// Nothing follows.
    pub fn end(mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some((k, _)) => Err(format!("{}: unexpected field '{k}'", self.what)),
        }
    }

    /// The next field, which must be `key`, read as a `T`.
    pub fn get<T: Wire>(&mut self, key: &str) -> Result<T, String> {
        T::read(self.next(key)?, key)
    }

    /// A field the writer leaves out while `skip` holds for it.
    pub fn get_unless<T: Wire + Default>(
        &mut self,
        key: &str,
        skip: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        if !matches!(self.rest.as_slice().first(), Some((k, _)) if k == key) {
            return Ok(T::default());
        }
        let v = self.get(key)?;
        if skip(&v) {
            return Err(format!("{}: '{key}' is written out empty", self.what));
        }
        Ok(v)
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

    #[test]
    fn containers_refuse_what_no_writer_emits() {
        let n = Json::UInt;
        let arr = Json::Arr;
        let pair = |k, v| arr(vec![n(k), n(v)]);
        let refused = |what: &str, read: Result<(), String>| {
            assert!(read.is_err(), "{what} accepted");
        };
        let map = |pairs| BTreeMap::<u32, u32>::read(&arr(pairs), "map").map(drop);
        refused("a map key twice", map(vec![pair(1, 2), pair(1, 3)]));
        refused("map keys out of order", map(vec![pair(2, 2), pair(1, 3)]));
        let set = |members| BTreeSet::<u32>::read(&arr(members), "set").map(drop);
        refused("a set member twice", set(vec![n(4), n(4)]));
        refused("set members out of order", set(vec![n(5), n(4)]));
        let words = |k| <[u64; 4]>::read(&arr(vec![n(1); k]), "words").map(drop);
        refused("three words of four", words(3));
        refused("five words of four", words(5));
        refused(
            "a short tuple",
            <(u32, u64)>::read(&arr(vec![n(1)]), "pair").map(drop),
        );
        refused(
            "2^32+1 in 32 bits",
            u32::read(&n((1 << 32) + 1), "id").map(drop),
        );
        refused("256 in 8 bits", u8::read(&n(256), "priority").map(drop));
        refused("2^16 in 16 bits", u16::read(&n(1 << 16), "table").map(drop));
        refused(
            "a number as a string",
            String::read(&n(1), "name").map(drop),
        );
        assert_eq!(u32::read(&n(u32::MAX.into()), "id"), Ok(u32::MAX));
        assert_eq!(words(4), Ok(()));
    }

    /// A `u64` written as a decimal string, for the `#[with]` field below.
    mod decimal {
        use super::*;

        pub fn json(v: &u64) -> Json {
            Json::Str(v.to_string())
        }

        pub fn read(v: &Json, what: &str) -> Result<u64, String> {
            str_of(v, what)?
                .parse()
                .map_err(|_| format!("{what}: not decimal"))
        }
    }

    crate::record! {
        /// One of each kind of field.
        #[derive(Debug, PartialEq)]
        struct Sample {
            at: SimTime,
            shape: Option<(u32, u32)>,
            #[skip_if(Vec::is_empty)]
            tags: Vec<String>,
            #[with(decimal)]
            big: u64,
        }
    }

    /// An object's fields.
    type Pairs = Vec<(String, Json)>;

    #[test]
    fn records_read_back_only_what_they_write() {
        let sample = Sample {
            at: SimTime(7),
            shape: Some((2, 3)),
            tags: vec!["x".into()],
            big: 9,
        };
        let doc = sample.json();
        let text =
            "{\n  \"at\": 7,\n  \"shape\": [2, 3],\n  \"tags\": [\"x\"],\n  \"big\": \"9\"\n}\n";
        assert_eq!(doc.render(), text);
        assert_eq!(
            Sample::read(&Json::parse(text).unwrap(), "sample"),
            Ok(sample)
        );

        let bare = Sample {
            at: SimTime(0),
            shape: None,
            tags: Vec::new(),
            big: 1,
        };
        let skipped = bare.json();
        assert_eq!(
            skipped.get("tags"),
            None,
            "an empty skip_if field is left out"
        );
        assert_eq!(Sample::read(&skipped, "sample"), Ok(bare));

        let Json::Obj(fields) = doc else {
            unreachable!()
        };
        let refused = |what: &str, edit: &dyn Fn(&mut Pairs)| {
            let mut copy = fields.clone();
            edit(&mut copy);
            let read = Sample::read(&Json::Obj(copy), "sample");
            assert!(read.is_err(), "{what} accepted");
        };
        refused("an extra field", &|c| {
            c.push(("epilogue".into(), Json::UInt(0)))
        });
        refused("two fields swapped", &|c| c.swap(0, 1));
        refused("a field missing", &|c| drop(c.remove(1)));
        refused("a field twice", &|c| c.insert(0, c[0].clone()));
        refused("a skipped field written out empty", &|c| {
            c[2].1 = Json::Arr(Vec::new())
        });
        refused("a with field in its type's form", &|c| {
            c[3].1 = Json::UInt(9)
        });
    }
}
