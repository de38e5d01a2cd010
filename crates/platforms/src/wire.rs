//! The line-based wire format platform frontends serialize bodies with.
//!
//! The paper's collectors *scraped* landing pages and *parsed* API replies;
//! to keep those code paths honest, the simulated platforms render their
//! responses as text and the collectors parse them back. The format is
//! deliberately simple and deterministic:
//!
//! ```text
//! doc-type
//! key: value
//! key: value          # keys may repeat (lists)
//! ```
//!
//! The first line is the document type; every following non-empty line is a
//! `key: value` pair. Values may contain anything except a newline.
//!
//! # Hardening
//!
//! The wire can hand back *successfully delivered garbage* (see
//! `simnet::fault::CorruptionSchedule`), so parsing is defensive:
//!
//! * **Allocation guards** — bodies with more than [`MAX_LINES`] lines or a
//!   value longer than [`MAX_VALUE_LEN`] bytes are rejected with
//!   [`WireError::TooLarge`] before any further work, mirroring the
//!   checkpoint codec's bounds checks.
//! * **Self-describing field count** — [`WireDoc::render`] emits a
//!   `n: <field-count>` header as the first field line and
//!   [`WireDoc::parse`] transparently verifies and strips it
//!   ([`WireError::CountMismatch`] on disagreement), so dropped, duplicated
//!   or truncated lines are structurally detectable. Handcrafted bodies
//!   without the header still parse (error notices are built with raw
//!   `format!`), and the key `n` is reserved by [`WireDoc::field`].
//! * **Duplicate required fields** — the `req*`/`opt*` accessors reject a
//!   key that appears more than once ([`WireError::DuplicateField`]);
//!   list-valued keys go through [`WireDoc::get_all`] instead.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Maximum number of lines [`WireDoc::parse`] accepts before rejecting the
/// body as hostile. The largest legitimate documents are full message
/// histories, hard-capped by the workload at 500 000 messages per group
/// (`max_messages_per_group`), so the guard sits comfortably above that:
/// it exists to stop unbounded allocation, not to second-guess real data.
pub const MAX_LINES: usize = 1_048_576;

/// Maximum length in bytes of a single field value.
pub const MAX_VALUE_LEN: usize = 4_096;

/// Errors produced while parsing or interrogating a wire document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body was empty.
    Empty,
    /// A line had no `": "` separator.
    MalformedLine(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field failed numeric conversion.
    BadNumber(&'static str, String),
    /// The document type was not the expected one.
    WrongType {
        /// Expected document type.
        expected: &'static str,
        /// Actual document type found.
        found: String,
    },
    /// The body exceeded an allocation guard (too many lines, or a value
    /// too long).
    TooLarge {
        /// Which guard tripped (`"lines"` or `"value"`).
        what: &'static str,
        /// The configured limit.
        limit: usize,
    },
    /// A field that must appear exactly once appeared more than once.
    DuplicateField(&'static str),
    /// The declared field count (`n` header) disagrees with the fields
    /// actually present — lines were dropped, duplicated, or spliced in.
    CountMismatch {
        /// Count the header declared.
        declared: usize,
        /// Fields actually present.
        actual: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty wire document"),
            WireError::MalformedLine(l) => write!(f, "malformed line: {l:?}"),
            WireError::MissingField(k) => write!(f, "missing field {k:?}"),
            WireError::BadNumber(k, v) => write!(f, "field {k:?} is not a number: {v:?}"),
            WireError::WrongType { expected, found } => {
                write!(f, "expected document type {expected:?}, found {found:?}")
            }
            WireError::TooLarge { what, limit } => {
                write!(f, "document exceeds {what} guard ({limit})")
            }
            WireError::DuplicateField(k) => {
                write!(f, "field {k:?} appears more than once")
            }
            WireError::CountMismatch { declared, actual } => {
                write!(f, "declared {declared} fields, found {actual}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Generates the field accessors shared by [`WireDoc`] (owned fields) and
/// [`WireView`] (fields borrowed from the body buffer). Both types expose
/// the exact same read API, so decode code is agnostic to which one it
/// holds.
macro_rules! wire_accessors {
    () => {
        /// First value for `key`, if present.
        pub fn get(&self, key: &str) -> Option<&str> {
            self.fields_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
        }

        /// All values for `key`, in order.
        pub fn get_all<'k>(&'k self, key: &'k str) -> impl Iterator<Item = &'k str> + 'k {
            self.fields_iter()
                .filter(move |(k, _)| *k == key)
                .map(|(_, v)| v)
        }

        /// The single value for `key`, rejecting duplicates. `Ok(None)`
        /// when absent.
        fn unique(&self, key: &'static str) -> Result<Option<&str>, WireError> {
            let mut it = self.get_all(key);
            let first = it.next();
            if first.is_some() && it.next().is_some() {
                return Err(WireError::DuplicateField(key));
            }
            Ok(first)
        }

        /// Required string field. A field that must appear exactly once
        /// appearing twice is an error — a duplicated line is corruption,
        /// not a list.
        pub fn req(&self, key: &'static str) -> Result<&str, WireError> {
            self.unique(key)?.ok_or(WireError::MissingField(key))
        }

        /// Required `u64` field.
        pub fn req_u64(&self, key: &'static str) -> Result<u64, WireError> {
            let v = self.req(key)?;
            v.parse()
                // lint:allow(D10) error-path only: the copy prices a malformed body, not the per-request loop
                .map_err(|_| WireError::BadNumber(key, v.to_string()))
        }

        /// Required `i64` field.
        pub fn req_i64(&self, key: &'static str) -> Result<i64, WireError> {
            let v = self.req(key)?;
            v.parse()
                // lint:allow(D10) error-path only: the copy prices a malformed body, not the per-request loop
                .map_err(|_| WireError::BadNumber(key, v.to_string()))
        }

        /// Optional `u64` field (error if present-and-malformed or
        /// duplicated).
        pub fn opt_u64(&self, key: &'static str) -> Result<Option<u64>, WireError> {
            match self.unique(key)? {
                None => Ok(None),
                Some(v) => v
                    .parse()
                    .map(Some)
                    // lint:allow(D10) error-path only: the copy prices a malformed body, not the per-request loop
                    .map_err(|_| WireError::BadNumber(key, v.to_string())),
            }
        }

        /// Whether the document has no fields.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    };
}

/// A parsed (or under-construction) wire document.
///
/// Fields are written straight into one buffer as they are appended —
/// the body minus its kind line and count header — with a running field
/// count, so building a document allocates per buffer growth, not per
/// field, and [`WireDoc::render`] is one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDoc {
    /// Document type (the first line). Borrowed for the static kind
    /// literals every service uses; owned only when copied out of a
    /// parsed body ([`WireView::to_doc`]).
    pub kind: Cow<'static, str>,
    /// Every field as `\n<key>: <value>`, in order.
    lines: String,
    count: usize,
}

/// A zero-copy parsed wire document: the kind line and every key/value
/// slice borrow straight from the body buffer, so parsing performs one
/// allocation (the field vector) instead of two per line.
///
/// Produced by [`WireDoc::parse`] / [`WireDoc::parse_as`]. Anything that
/// must outlive the body — a quarantine excerpt, a retained document —
/// copies explicitly ([`WireView::to_doc`], or the `&str` accessors
/// feeding owned stores as before).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireView<'a> {
    /// Document type (the first line), borrowed from the body.
    pub kind: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> WireView<'a> {
    /// Parse a body without copying any of it. Semantics are identical to
    /// the historical owning parser: same guards, same `n` count-header
    /// verification and stripping, same errors.
    pub fn parse(body: &'a str) -> Result<WireView<'a>, WireError> {
        let mut lines = body.lines();
        let kind = lines
            .next()
            .filter(|l| !l.is_empty())
            .ok_or(WireError::Empty)?;
        let mut fields: Vec<(&str, &str)> = Vec::new();
        // The `n` count header, when it is the first field line: held
        // aside (never pushed) and checked once every line has passed
        // the guards, so errors surface in the same order as ever.
        let mut header: Option<&str> = None;
        let mut seen = 0usize;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            seen += 1;
            if seen > MAX_LINES {
                return Err(WireError::TooLarge {
                    what: "lines",
                    limit: MAX_LINES,
                });
            }
            let (k, v) = line
                .split_once(": ")
                // lint:allow(D10) error-path only: a malformed line aborts the parse, so the copy is never hot
                .ok_or_else(|| WireError::MalformedLine(line.to_string()))?;
            if v.len() > MAX_VALUE_LEN {
                return Err(WireError::TooLarge {
                    what: "value",
                    limit: MAX_VALUE_LEN,
                });
            }
            if seen == 1 && k == "n" {
                header = Some(v);
            } else {
                fields.push((k, v));
            }
        }
        if let Some(declared) = header {
            let declared: usize = declared
                .parse()
                // lint:allow(D10) error-path only: a bad count header aborts the parse
                .map_err(|_| WireError::BadNumber("n", declared.to_string()))?;
            if fields.len() != declared {
                return Err(WireError::CountMismatch {
                    declared,
                    actual: fields.len(),
                });
            }
        }
        Ok(WireView { kind, fields })
    }

    /// Parse and verify the document type in one step.
    pub fn parse_as(body: &'a str, expected: &'static str) -> Result<WireView<'a>, WireError> {
        let doc = WireView::parse(body)?;
        if doc.kind != expected {
            return Err(WireError::WrongType {
                expected,
                // lint:allow(D10) error-path only: a type mismatch aborts the parse
                found: doc.kind.to_string(),
            });
        }
        Ok(doc)
    }

    /// Copy into an owning [`WireDoc`] (for retention past the body's
    /// lifetime).
    pub fn to_doc(&self) -> WireDoc {
        let bytes: usize = self.fields.iter().map(|(k, v)| k.len() + v.len() + 3).sum();
        let mut lines = String::with_capacity(bytes);
        for &(k, v) in &self.fields {
            lines.push('\n');
            lines.push_str(k);
            lines.push_str(": ");
            lines.push_str(v);
        }
        WireDoc {
            // lint:allow(D10) to_doc IS the sanctioned copy: callers opt into retention past the borrowed body
            kind: Cow::Owned(self.kind.to_string()),
            lines,
            count: self.fields.len(),
        }
    }

    /// [`WireView::get`], but the returned slice borrows the *body*, not
    /// the view — callers can retain it after the view is dropped (e.g. a
    /// decoded record built from a body that outlives the parse).
    pub fn get_in_body(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// [`WireView::req`] with the body lifetime: required, rejects
    /// duplicates, and the slice outlives the view.
    pub fn req_in_body(&self, key: &'static str) -> Result<&'a str, WireError> {
        let mut it = self.fields.iter().filter(|(k, _)| *k == key);
        let first = it.next();
        if first.is_some() && it.next().is_some() {
            return Err(WireError::DuplicateField(key));
        }
        first.map(|&(_, v)| v).ok_or(WireError::MissingField(key))
    }

    fn fields_iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.fields.iter().copied()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    wire_accessors!();
}

impl PartialEq<WireDoc> for WireView<'_> {
    fn eq(&self, other: &WireDoc) -> bool {
        self.kind == other.kind
            && self.len() == other.len()
            && self
                .fields_iter()
                .zip(other.fields_iter())
                .all(|(a, b)| a == b)
    }
}

impl PartialEq<WireView<'_>> for WireDoc {
    fn eq(&self, other: &WireView<'_>) -> bool {
        other == self
    }
}

impl WireDoc {
    /// Start building a document of type `kind`.
    pub fn new(kind: impl Into<Cow<'static, str>>) -> WireDoc {
        WireDoc::with_capacity(kind, 0)
    }

    /// [`WireDoc::new`] with room for `bytes` of field lines up front:
    /// endpoints that know how many lines they are about to write (a
    /// message history) size the buffer once instead of growing it.
    pub fn with_capacity(kind: impl Into<Cow<'static, str>>, bytes: usize) -> WireDoc {
        WireDoc {
            kind: kind.into(),
            lines: String::with_capacity(bytes),
            count: 0,
        }
    }

    /// Append a field (keys may repeat).
    ///
    /// # Panics
    /// Panics if the value contains a newline — the caller must sanitize
    /// free-form text (group titles) first via [`sanitize`] — or if the
    /// key is the reserved field-count header `n`.
    pub fn field(self, key: impl Into<Cow<'static, str>>, value: impl fmt::Display) -> WireDoc {
        self.field_with(key, |out| {
            let _ = write!(out, "{value}");
        })
    }

    /// [`WireDoc::field`] for a value that is already a `String`, copied
    /// in without a trip through `Display`.
    ///
    /// # Panics
    /// Same contract as [`WireDoc::field`].
    pub fn field_string(self, key: impl Into<Cow<'static, str>>, value: String) -> WireDoc {
        self.field_with(key, |out| out.push_str(&value))
    }

    /// Append a field whose value `write` appends straight onto the
    /// document's buffer — the path for per-record encoders
    /// ([`crate::service::write_message`], the tweet feeds), which then
    /// need no intermediate `String` per line.
    ///
    /// # Panics
    /// Same contract as [`WireDoc::field`].
    pub fn field_with(
        mut self,
        key: impl Into<Cow<'static, str>>,
        write: impl FnOnce(&mut String),
    ) -> WireDoc {
        let key = key.into();
        let start = self.lines.len();
        self.lines.push('\n');
        self.lines.push_str(&key);
        self.lines.push_str(": ");
        write(&mut self.lines);
        assert!(
            !self.lines[start + 1..].contains('\n'),
            "wire fields must be single-line"
        );
        assert!(
            key != "n",
            "field key \"n\" is reserved for the count header"
        );
        self.count += 1;
        self
    }

    /// Render to the textual body. The field count is emitted as a leading
    /// `n: <count>` header so parsers can detect dropped/duplicated lines;
    /// [`WireDoc::parse`] strips it back out.
    pub fn render(&self) -> String {
        // Exact size up front (the count header is at most 24 bytes).
        let mut out = String::with_capacity(self.kind.len() + 24 + self.lines.len());
        out.push_str(&self.kind);
        out.push_str("\nn: ");
        push_decimal(&mut out, self.count as u64);
        out.push_str(&self.lines);
        out
    }

    /// Parse a body into a zero-copy [`WireView`] borrowing from it.
    ///
    /// Applies the allocation guards, and — when the first field line is a
    /// `n: <count>` header — verifies the declared field count and strips
    /// the header. Bodies without the header (handcrafted error notices)
    /// parse leniently.
    pub fn parse(body: &str) -> Result<WireView<'_>, WireError> {
        WireView::parse(body)
    }

    /// Parse and verify the document type in one step.
    pub fn parse_as<'a>(body: &'a str, expected: &'static str) -> Result<WireView<'a>, WireError> {
        WireView::parse_as(body, expected)
    }

    /// Parse into an owning document (copies every field; reach for
    /// [`WireDoc::parse`] on any hot path).
    pub fn parse_owned(body: &str) -> Result<WireDoc, WireError> {
        WireDoc::parse(body).map(|v| v.to_doc())
    }

    fn fields_iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        // Every line was written as `<key>: <value>`; the split is the
        // one a parser of the rendered body makes.
        self.lines
            .split('\n')
            .skip(1)
            .map(|line| line.split_once(": ").unwrap_or((line, "")))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.count
    }

    wire_accessors!();
}

/// Append the decimal digits of `v` to `out` without going through
/// `core::fmt` — the encoders of the per-record wire lines (message
/// histories, tweet feeds) and of the report digests write millions of
/// numbers per campaign. Same bytes as `Display`.
pub fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Replace newlines in free-form text (group titles come from user input)
/// so it can be carried in a single-line field.
pub fn sanitize(text: &str) -> String {
    text.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let doc = WireDoc::new("landing")
            .field("title", "Crypto Signals")
            .field("size", 42u32);
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed.kind, "landing");
        assert_eq!(parsed.get("title"), Some("Crypto Signals"));
        assert_eq!(parsed.req_u64("size").unwrap(), 42);
    }

    #[test]
    fn repeated_keys_preserved_in_order() {
        let doc = WireDoc::new("members")
            .field("member", "+551100")
            .field("member", "+551101")
            .field("member", "+551102");
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        let all: Vec<_> = parsed.get_all("member").collect();
        assert_eq!(all, vec!["+551100", "+551101", "+551102"]);
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn parse_as_checks_type() {
        let body = WireDoc::new("alpha").render();
        assert!(WireDoc::parse_as(&body, "alpha").is_ok());
        let err = WireDoc::parse_as(&body, "beta").unwrap_err();
        assert_eq!(
            err,
            WireError::WrongType {
                expected: "beta",
                found: "alpha".into()
            }
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(WireDoc::parse(""), Err(WireError::Empty));
        assert!(matches!(
            WireDoc::parse("doc\nnocolonhere"),
            Err(WireError::MalformedLine(_))
        ));
        // A garbled count header is a parse error, not a field.
        assert!(matches!(
            WireDoc::parse("doc\nn: abc"),
            Err(WireError::BadNumber("n", _))
        ));
        let doc = WireDoc::parse("doc\na: 1").unwrap();
        assert!(matches!(doc.req("x"), Err(WireError::MissingField("x"))));
        assert!(matches!(doc.req_u64("a"), Ok(1)));
    }

    #[test]
    fn count_header_is_emitted_verified_and_stripped() {
        let doc = WireDoc::new("landing")
            .field("size", 3u32)
            .field("title", "x");
        let body = doc.render();
        assert!(body.starts_with("landing\nn: 2\n"), "{body:?}");
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed, doc, "header must be transparent to round-trips");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.get("n"), None);
    }

    #[test]
    fn count_mismatch_detected_both_ways() {
        assert_eq!(
            WireDoc::parse("doc\nn: 2\na: 1"),
            Err(WireError::CountMismatch {
                declared: 2,
                actual: 1
            })
        );
        assert_eq!(
            WireDoc::parse("doc\nn: 0\na: 1"),
            Err(WireError::CountMismatch {
                declared: 0,
                actual: 1
            })
        );
        // Bodies without the header parse leniently (handcrafted notices).
        assert!(WireDoc::parse("not-found\nwhat: nothing here").is_ok());
    }

    #[test]
    fn allocation_guards_reject_hostile_sizes() {
        let mut huge = String::from("doc");
        for i in 0..(MAX_LINES + 1) {
            huge.push_str(&format!("\nk{i}: v"));
        }
        assert_eq!(
            WireDoc::parse(&huge),
            Err(WireError::TooLarge {
                what: "lines",
                limit: MAX_LINES
            })
        );
        let long = format!("doc\nk: {}", "x".repeat(MAX_VALUE_LEN + 1));
        assert_eq!(
            WireDoc::parse(&long),
            Err(WireError::TooLarge {
                what: "value",
                limit: MAX_VALUE_LEN
            })
        );
        // The largest legitimate documents stay under the guards.
        let mut big = WireDoc::new("members");
        for i in 0..1_000 {
            big = big.field("member", format!("+55{i}"));
        }
        assert!(WireDoc::parse(&big.render()).is_ok());
    }

    #[test]
    fn duplicated_scalar_fields_are_rejected() {
        let doc = WireDoc::parse("doc\nsize: 1\nsize: 2\nmember: a\nmember: b").unwrap();
        assert_eq!(doc.req("size"), Err(WireError::DuplicateField("size")));
        assert_eq!(doc.req_u64("size"), Err(WireError::DuplicateField("size")));
        assert_eq!(doc.opt_u64("size"), Err(WireError::DuplicateField("size")));
        // List-valued keys still flow through get_all.
        assert_eq!(doc.get_all("member").count(), 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn field_key_n_is_reserved() {
        let _ = WireDoc::new("doc").field("n", 1u32);
    }

    #[test]
    fn values_may_contain_colons_and_unicode() {
        let doc = WireDoc::new("t").field("title", "Grupo: Vagas 🚀 SP: zona sul");
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed.get("title"), Some("Grupo: Vagas 🚀 SP: zona sul"));
    }

    #[test]
    fn push_decimal_matches_display() {
        for v in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn field_with_renders_like_field() {
        let by_display = WireDoc::new("h").field("group", 7u32).field("msg", "1 2 3");
        let by_writer = WireDoc::with_capacity("h", 64)
            .field("group", 7u32)
            .field_with("msg", |out| out.push_str("1 2 3"));
        assert_eq!(by_writer, by_display);
        assert_eq!(by_writer.render(), "h\nn: 2\ngroup: 7\nmsg: 1 2 3");
        assert_eq!(by_writer.get("msg"), Some("1 2 3"));
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn field_with_rejects_embedded_newline() {
        let _ = WireDoc::new("t").field_with("msg", |out| out.push_str("1\n2"));
    }

    #[test]
    fn sanitize_strips_newlines() {
        assert_eq!(sanitize("a\nb\r\nc"), "a b  c");
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn field_rejects_embedded_newline() {
        let _ = WireDoc::new("t").field("title", "a\nb");
    }

    #[test]
    fn opt_u64_semantics() {
        let doc = WireDoc::parse("t\na: 5").unwrap();
        assert_eq!(doc.opt_u64("a").unwrap(), Some(5));
        assert_eq!(doc.opt_u64("b").unwrap(), None);
        let bad = WireDoc::parse("t\na: x").unwrap();
        assert!(bad.opt_u64("a").is_err());
    }

    #[test]
    fn negative_numbers() {
        let doc = WireDoc::new("t").field("delta", -42i64);
        let body = doc.render();
        let parsed = WireDoc::parse(&body).unwrap();
        assert_eq!(parsed.req_i64("delta").unwrap(), -42);
    }
}
