//! A minimal JSON document model: parse, build, emit, read fields checked.
//!
//! The workspace is registry-offline and has no serializer crate, so
//! everything that speaks JSON hand-rolls it on this module, and on nothing
//! else: there is **one writer** ([`Json::emit`]) and **one reader**
//! ([`Json::parse`] plus the checked field accessors [`Json::member`] /
//! `Json::want_*`). Who calls them:
//!
//! * [`crate::wire`] — the `sdtctl` ⇄ `sdtd` request and reply lines;
//! * [`crate::output`] — every `--json` report `sdtctl` prints or the
//!   daemon ships back as a reply's `output`;
//! * `sdt_sdtd::snapshot` — the daemon's on-disk state file;
//! * `benchmark/` — its result files, and the raw wire lines it sends.
//!
//! It lives in the controller crate because both ends of the wire need it.
//!
//! Properties the callers rely on:
//!
//! * **Deterministic emission** — [`Json::emit`] is compact (no
//!   whitespace), preserves object key order and array order, and escapes
//!   strings canonically, so equal documents emit equal bytes. The
//!   snapshot round-trip proof (encode → parse → re-encode is
//!   byte-identical) and the daemon-vs-local report identity rest on this.
//! * **Number fidelity** — numbers keep their lexeme: parsing `18446744`
//!   and re-emitting yields `18446744`, never `1.8446744e7`, and a report
//!   writes a fixed-precision figure by building the lexeme
//!   ([`Json::fixed`]). Accessors parse the lexeme on demand.
//! * **Checked reads** — a decoder never casts: [`Json::member`] refuses an
//!   absent key and every `want_*` refuses a value of the wrong type or an
//!   integer outside the target width, each naming the field, so
//!   `4294967297` is never read as `1`.
//! * **First key wins** — [`Json::get`] returns the first member of that
//!   name; a duplicate later in the object is carried but never read.

use std::fmt::Write as _;

/// One JSON value. Objects preserve insertion order.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse error: byte offset + message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset the parser stopped at.
    pub at: usize,
    /// What it expected.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A count or index.
    pub fn usize(n: usize) -> Json {
        Json::Num(n.to_string())
    }

    /// A signed integer value.
    pub fn i64(n: i64) -> Json {
        Json::Num(n.to_string())
    }

    /// A float value (finite; NaN/inf emit as `null` — JSON has no
    /// spelling for them).
    pub fn f64(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x}"))
        } else {
            Json::Null
        }
    }

    /// A finite float written with exactly `places` decimals — the lexeme a
    /// report wants (`12.300`), which [`Json::f64`] would shorten.
    pub fn fixed(x: f64, places: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.places$}"))
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string behind a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool behind a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number behind a `Num`, as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number behind a `Num`, as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements behind an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object member by key, or an error naming the key. With the `want_*`
    /// readers below this is the one way a decoder ([`crate::wire`], the
    /// daemon's snapshot) takes a field out of a document.
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing member `{key}`"))
    }

    /// This value as a bool; `what` names the field in the error.
    pub fn want_bool(&self, what: &str) -> Result<bool, String> {
        self.as_bool().ok_or_else(|| format!("{what}: not a bool"))
    }

    /// This value as a string.
    pub fn want_str(&self, what: &str) -> Result<&str, String> {
        self.as_str().ok_or_else(|| format!("{what}: not a string"))
    }

    /// This value as an array.
    pub fn want_arr(&self, what: &str) -> Result<&[Json], String> {
        self.as_arr().ok_or_else(|| format!("{what}: not an array"))
    }

    /// This value as a finite float (`1e999` lexes as a number but reads as
    /// infinity, which [`Json::f64`] could not write back).
    pub fn want_f64(&self, what: &str) -> Result<f64, String> {
        self.as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("{what}: not a finite number"))
    }

    /// This value as an unsigned integer.
    pub fn want_u64(&self, what: &str) -> Result<u64, String> {
        self.as_u64().ok_or_else(|| format!("{what}: not an unsigned integer"))
    }

    /// This value as a `u32`, refused — not wrapped — when out of range.
    pub fn want_u32(&self, what: &str) -> Result<u32, String> {
        self.want_int(what, "u32")
    }

    /// This value as a `u16`, refused when out of range.
    pub fn want_u16(&self, what: &str) -> Result<u16, String> {
        self.want_int(what, "u16")
    }

    fn want_int<T: TryFrom<u64>>(&self, what: &str, width: &str) -> Result<T, String> {
        T::try_from(self.want_u64(what)?).map_err(|_| format!("{what}: out of {width} range"))
    }

    /// Compact, deterministic serialization.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { at: pos, msg: "trailing characters".into() });
        }
        Ok(v)
    }
}

/// Canonical string escaping: `"` `\` as pairs, `\n` `\t` `\r` by name,
/// other control characters as `\u00XX`, everything else verbatim.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError { at: *pos, msg: format!("expected `{lit}`") })
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and requests are parsed on the daemon's
/// default-stack reader threads, so an unbounded `[[[[…` line far below the
/// request-size cap would overflow the stack and abort the process.
/// Snapshots nest about 6 deep, requests about 4.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'[' | b'{')) {
        return Err(JsonError { at: *pos, msg: "nesting too deep".into() });
    }
    match b.get(*pos) {
        None => Err(JsonError { at: *pos, msg: "unexpected end of input".into() }),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError { at: *pos, msg: "expected `,` or `]`".into() }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(JsonError { at: *pos, msg: "expected `,` or `}`".into() }),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < b.len()
                && (b[*pos].is_ascii_digit()
                    || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *pos += 1;
            }
            let lexeme = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| JsonError { at: start, msg: "bad number".into() })?;
            // Validate by parsing; keep the lexeme.
            lexeme
                .parse::<f64>()
                .map_err(|_| JsonError { at: start, msg: format!("bad number `{lexeme}`") })?;
            Ok(Json::Num(lexeme.to_string()))
        }
        Some(c) => Err(JsonError { at: *pos, msg: format!("unexpected byte 0x{c:02x}") }),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(JsonError { at: *pos, msg: "expected string".into() });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(JsonError { at: *pos, msg: "unterminated string".into() }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError { at: *pos, msg: "bad \\u escape".into() })?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError { at: *pos, msg: "bad \\u escape".into() })?;
                        // Surrogate pairs are not emitted by our encoder;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError { at: *pos, msg: "bad escape".into() }),
                }
                *pos += 1;
            }
            Some(_) => {
                // The run of plain bytes up to the next quote or backslash,
                // validated once: both are ASCII, so neither can sit inside
                // a multi-byte scalar, and checking the rest of the document
                // per character made a 1 MiB string cost 15 s.
                let start = *pos;
                while b.get(*pos).is_some_and(|c| !matches!(c, b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| JsonError { at: start, msg: "invalid utf-8".into() })?;
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_documents() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::u64(1)),
            ("name".into(), Json::str("a \"quoted\"\nname\twith\u{7}ctl")),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "nums".into(),
                Json::Arr(vec![Json::u64(u64::MAX / 2), Json::i64(-3), Json::f64(1.5)]),
            ),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::Arr(vec![]))])),
        ]);
        let text = doc.emit();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        // Emitter-produced text re-encodes byte-identically.
        assert_eq!(back.emit(), text);
    }

    /// Pair escapes, named escapes, `\u00XX` for every other control.
    #[test]
    fn emit_escapes_controls() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{7}f\rg").emit(),
            "\"a\\\"b\\\\c\\nd\\te\\u0007f\\rg\""
        );
    }

    #[test]
    fn builders_write_the_lexeme_a_report_wants() {
        let doc = Json::obj([
            ("ms", Json::fixed(12.3, 3)),
            ("s", Json::fixed(0.5, 6)),
            ("n", Json::usize(7)),
            ("nan", Json::fixed(f64::NAN, 3)),
        ]);
        assert_eq!(doc.emit(), "{\"ms\":12.300,\"s\":0.500000,\"n\":7,\"nan\":null}");
    }

    #[test]
    fn checked_readers_name_the_field_and_refuse_instead_of_wrapping() {
        let d = Json::parse(
            "{\"id\":4294967297,\"port\":65539,\"n\":3,\"s\":\"x\",\"b\":true,\
             \"a\":[1],\"p\":0.25,\"huge\":1e999,\"neg\":-1,\"id\":1}",
        )
        .unwrap();
        let id = d.member("id").unwrap();
        assert_eq!(id.want_u64("id"), Ok(4_294_967_297), "of a duplicated key the first is read");
        assert_eq!(id.want_u32("id"), Err("id: out of u32 range".into()));
        assert_eq!(d.member("port").unwrap().want_u16("link end a"), Err("link end a: out of u16 range".into()));
        assert_eq!(d.member("n").unwrap().want_u16("n"), Ok(3));
        assert_eq!(d.member("neg").unwrap().want_u64("neg"), Err("neg: not an unsigned integer".into()));
        assert_eq!(d.member("s").unwrap().want_str("s"), Ok("x"));
        assert_eq!(d.member("s").unwrap().want_bool("s"), Err("s: not a bool".into()));
        assert_eq!(d.member("b").unwrap().want_bool("b"), Ok(true));
        assert_eq!(d.member("b").unwrap().want_str("b"), Err("b: not a string".into()));
        assert_eq!(d.member("a").unwrap().want_arr("a").map(<[Json]>::len), Ok(1));
        assert_eq!(d.member("n").unwrap().want_arr("n"), Err("n: not an array".into()));
        assert_eq!(d.member("p").unwrap().want_f64("p"), Ok(0.25));
        assert_eq!(d.member("huge").unwrap().want_f64("huge"), Err("huge: not a finite number".into()));
        assert_eq!(d.member("zzz"), Err("missing member `zzz`".into()));
    }

    #[test]
    fn number_lexemes_survive() {
        let t = "{\"n\":9223372036854775807,\"f\":0.001}";
        assert_eq!(Json::parse(t).unwrap().emit(), t);
    }

    #[test]
    fn accessors() {
        let d = Json::parse("{\"a\":1,\"b\":\"x\",\"c\":[true,null],\"f\":2.5}").unwrap();
        assert_eq!(d.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(d.get("c").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(d.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(d.get("zzz"), None);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"", "{\"a\" 1}", "12x", "[1] extra", "nul"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let too_deep = |e: Result<Json, JsonError>| e.is_err_and(|e| e.msg == "nesting too deep");
        // Both bombs are far past any thread's stack at one frame per level.
        assert!(too_deep(Json::parse(&"[".repeat(100_000))));
        assert!(too_deep(Json::parse(&"{\"a\":".repeat(100_000))));
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(too_deep(Json::parse(&nested(MAX_DEPTH + 1))));
    }

    #[test]
    fn whitespace_tolerated_on_parse() {
        let d = Json::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(d.emit(), "{\"a\":[1,2]}");
    }
}
