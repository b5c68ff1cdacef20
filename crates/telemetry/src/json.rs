//! A minimal JSON parser and the Chrome-trace schema validator.
//!
//! The workspace deliberately carries no serde; the exporter hand-rolls
//! its JSON and this module closes the loop by parsing it back for the
//! ci.sh schema gate (`distmsm-analyze trace <file.json>`). It is a
//! strict recursive-descent parser over the JSON grammar — sufficient
//! for traces this crate emits and for rejecting malformed ones, not a
//! general standards-lab implementation (`\u` escapes decode the BMP
//! only).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (keys may repeat in malformed input;
    /// lookup returns the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` on non-objects and missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The descent spends a
/// stack frame per level, so a hostile document of a million `[` would
/// otherwise overflow the stack and abort the process; the traces this
/// crate emits nest four deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| self.err("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| self.err("non-ASCII \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("invalid \\u escape"))?;
                        self.pos += 4;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?,
                        );
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                Some(c) => {
                    // re-assemble multi-byte UTF-8 sequences
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8 lead byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                    out.push_str(s);
                    self.pos = end;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
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
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `]`"));
                }
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
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(JsonValue::Obj(members)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `}`"));
                }
            }
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// A positioned description of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Validates a parsed document against the Chrome-trace schema the
/// exporter targets, returning every violation found (empty = valid).
///
/// Checked: the root is an object with a `traceEvents` array; every
/// event is an object with a string `ph` and string `name`; duration
/// events (`"X"`) carry finite numeric `ts`/`dur` (`dur >= 0`), a
/// string `cat`, and numeric `pid`/`tid`; instants (`"i"`) carry a
/// numeric `ts`; counters (`"C"`) carry `ts` and an `args` object;
/// metadata records (`"M"`) carry an `args` object.
pub fn validate_chrome_trace(doc: &JsonValue) -> Vec<String> {
    let mut problems = Vec::new();
    let events = match doc.get("traceEvents").and_then(JsonValue::as_arr) {
        Some(events) => events,
        None => return vec!["root must be an object with a `traceEvents` array".into()],
    };
    for (i, ev) in events.iter().enumerate() {
        let mut problem = |msg: &str| problems.push(format!("traceEvents[{i}]: {msg}"));
        if !matches!(ev, JsonValue::Obj(_)) {
            problem("event must be an object");
            continue;
        }
        let ph = match ev.get("ph").and_then(JsonValue::as_str) {
            Some(ph) => ph,
            None => {
                problem("missing string `ph`");
                continue;
            }
        };
        if ev.get("name").and_then(JsonValue::as_str).is_none() {
            problem("missing string `name`");
        }
        let num = |key: &str| ev.get(key).and_then(JsonValue::as_num);
        match ph {
            "X" => {
                match num("ts") {
                    Some(ts) if ts.is_finite() => {}
                    _ => problem("duration event needs finite numeric `ts`"),
                }
                match num("dur") {
                    Some(dur) if dur.is_finite() && dur >= 0.0 => {}
                    _ => problem("duration event needs finite `dur >= 0`"),
                }
                if ev.get("cat").and_then(JsonValue::as_str).is_none() {
                    problem("duration event needs a string `cat`");
                }
                if num("pid").is_none() || num("tid").is_none() {
                    problem("duration event needs numeric `pid` and `tid`");
                }
            }
            "i" => {
                if num("ts").is_none() {
                    problem("instant event needs numeric `ts`");
                }
            }
            "C" => {
                if num("ts").is_none() {
                    problem("counter event needs numeric `ts`");
                }
                if !matches!(ev.get("args"), Some(JsonValue::Obj(_))) {
                    problem("counter event needs an `args` object");
                }
            }
            "M" => {
                if !matches!(ev.get("args"), Some(JsonValue::Obj(_))) {
                    problem("metadata record needs an `args` object");
                }
            }
            other => problem(&format!("unknown phase `{other}`")),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\n\"y\"", true, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].as_num(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\n\"y\""));
        assert_eq!(a[3], JsonValue::Bool(true));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let v = parse(r#""café → π""#).unwrap();
        assert_eq!(v.as_str(), Some("café → π"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn deep_nesting_is_a_positioned_error_not_a_stack_overflow() {
        let hostile = "[".repeat(1_000_000);
        let err = parse(&hostile).expect_err("a million `[` must not parse");
        assert_eq!(err, format!("JSON parse error at byte {MAX_DEPTH}: nesting deeper than {MAX_DEPTH}"));
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(parse(&objects).expect_err("deep objects").contains("nesting deeper"));
        // the limit itself still parses
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    /// Every strict prefix of an exported trace, the trace plus one
    /// trailing byte, and every single-bit flip of it (the variants that
    /// are still UTF-8) parse to a positioned error or to a different
    /// document: a corrupted byte is never silently absorbed, and nothing
    /// panics. Only the export's trailing newline may go unnoticed.
    #[test]
    fn hostile_trace_bytes_parse_to_an_error_or_a_different_document() {
        use crate::export::to_chrome_trace;
        use crate::span::{CounterSample, Histogram, Instant, Lane, Span, Timeline};
        let mut h = Histogram::new("flow-bytes");
        h.record(96.0);
        let tl = Timeline {
            spans: vec![Span {
                name: "scatter:w0[0,128)".into(),
                cat: "scatter".into(),
                lane: Lane::Device(1),
                t0_s: 0.0,
                t1_s: 2.5e-3,
                args: vec![("note".into(), "q\"b\\s\n\u{1}π".into())],
            }],
            instants: vec![Instant {
                name: "fault:fail-stop".into(),
                cat: "fault".into(),
                lane: Lane::Device(1),
                t_s: 1e-3,
                args: Vec::new(),
            }],
            counters: vec![CounterSample {
                name: "fabric-bytes".into(),
                lane: Lane::Fabric,
                t_s: 2.5e-3,
                value: 4096.0,
            }],
            histograms: vec![h],
        };
        let text = to_chrome_trace(&tl);
        let good = text.as_bytes();
        let original = parse(&text).expect("the export parses");
        let prefixes = (0..good.len()).map(|n| good[..n].to_vec());
        let flips = (0..good.len() * 8).map(|bit| {
            let mut b = good.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        for bytes in prefixes.chain([[good, &[0]].concat()]).chain(flips) {
            let Ok(s) = std::str::from_utf8(&bytes) else { continue };
            match parse(s) {
                Err(e) => assert!(e.starts_with("JSON parse error at byte "), "{e}"),
                Ok(doc) => assert!(
                    doc != original || s == text.trim_end(),
                    "a corrupted byte went unnoticed: {s}"
                ),
            }
        }
    }

    #[test]
    fn validates_a_minimal_trace() {
        let doc = parse(
            r#"{"traceEvents":[
                {"ph":"M","name":"thread_name","pid":0,"tid":1,"args":{"name":"gpu0"}},
                {"ph":"X","name":"scatter","cat":"scatter","ts":0,"dur":10,"pid":0,"tid":1},
                {"ph":"i","name":"fault","cat":"fault","ts":5,"pid":0,"tid":1,"s":"t"},
                {"ph":"C","name":"bytes","ts":1,"pid":0,"tid":1,"args":{"bytes":4}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());
    }

    #[test]
    fn flags_schema_violations() {
        let doc = parse(
            r#"{"traceEvents":[
                {"ph":"X","name":"a","cat":"c","ts":0,"dur":-1,"pid":0,"tid":1},
                {"name":"no-ph"},
                {"ph":"Z","name":"weird"}
            ]}"#,
        )
        .unwrap();
        let problems = validate_chrome_trace(&doc);
        assert_eq!(problems.len(), 3, "{problems:?}");
        let doc = parse(r#"{"other": 1}"#).unwrap();
        assert_eq!(validate_chrome_trace(&doc).len(), 1);
    }
}
