//! Pull-based streaming XML tokenizer.
//!
//! [`StreamParser`] yields [`StreamEvent`]s (`Open`/`Close`/`Text`) over a
//! byte slice without building a tree, so downstream consumers can keep
//! memory bounded by document *depth* rather than node count. It accepts
//! exactly the dialect of [`parse_document`](crate::parse_document) — in
//! fact the DOM parser is a thin driver over this tokenizer (it feeds the
//! events into a [`TreeBuilder`](crate::TreeBuilder)), so the entity
//! rules, the [`MAX_DEPTH`] / [`MAX_NAME_LEN`] caps and every
//! [`ParseError`] variant are shared by construction: a document the DOM
//! parser rejects is rejected by the event stream with the same error, and
//! vice versa.
//!
//! The hot loop does one dispatch per markup token: content reads one
//! byte after `<` to pick close tag, `<!` construct, processing
//! instruction or open tag; names are scanned through a byte-class table;
//! character data is scanned eight bytes at a time for `<` and `&`. The
//! input is checked for UTF-8 once, up front, so names and text of a
//! valid document are borrowed without per-event validation.
//!
//! # Example
//!
//! ```
//! use xpe_xml::{StreamEvent, StreamParser};
//!
//! let mut p = StreamParser::new(b"<a>hi<b/></a>");
//! let mut opens = 0;
//! while let Some(ev) = p.next_event().unwrap() {
//!     if matches!(ev, StreamEvent::Open { .. }) {
//!         opens += 1;
//!     }
//! }
//! assert_eq!(opens, 2);
//! ```

use std::borrow::Cow;

use crate::parse::{ParseError, ParseErrorKind, MAX_DEPTH, MAX_NAME_LEN};

/// One tokenizer event.
///
/// Attributes are validated but not reported (the estimation system
/// summarises element structure only), comments/PIs/DOCTYPE are skipped,
/// and entity references are decoded into `Text`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent<'a> {
    /// An element opened. Fires for `<a>` and for `<a/>` (the latter is
    /// immediately followed by its `Close`).
    Open {
        /// The tag name, borrowed from the input where it is valid UTF-8.
        name: Cow<'a, str>,
    },
    /// The most recently opened element closed.
    Close,
    /// A run of character data (one contiguous text segment, one decoded
    /// entity reference, or one CDATA section). Consecutive `Text` events
    /// belong to the same element and concatenate.
    Text(Cow<'a, str>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Before the root element: XML declaration, comments, DOCTYPE.
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element closed: whitespace, comments, PIs only.
    Epilog,
    /// Input exhausted or a previous call returned an error.
    Done,
}

/// Byte class: may appear in a tag or attribute name (ASCII
/// alphanumerics, `_ - . :` and every byte of a multi-byte character).
const NAME: u8 = 1;
/// Byte class: XML whitespace.
const SPACE: u8 = 2;
/// Byte class: may appear in an entity name (ASCII alphanumerics, `#`).
const ENTITY: u8 = 4;

/// The class bits of every byte value.
static CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        let alnum = c.is_ascii_alphanumeric();
        if alnum || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80 {
            table[b] |= NAME;
        }
        if matches!(c, b' ' | b'\t' | b'\r' | b'\n') {
            table[b] |= SPACE;
        }
        if alnum || c == b'#' {
            table[b] |= ENTITY;
        }
        b += 1;
    }
    table
};

#[inline]
fn is(class: u8, c: u8) -> bool {
    CLASS[c as usize] & class != 0
}

/// Length of the leading run of `bytes` whose bytes are all in `class`.
#[inline]
fn class_run(bytes: &[u8], class: u8) -> usize {
    bytes
        .iter()
        .position(|&c| !is(class, c))
        .unwrap_or(bytes.len())
}

/// Length of the leading run of character data: bytes up to the first
/// `<` or `&`, eight at a time.
#[inline]
fn text_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const LT: u64 = u64::from_ne_bytes([b'<'; 8]);
    const AMP: u64 = u64::from_ne_bytes([b'&'; 8]);
    // High bit set in the lowest byte of `v` that is zero (bytes above
    // it may be flagged spuriously, so only the lowest flag is read).
    let zero_byte = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hits = zero_byte(word ^ LT) | zero_byte(word ^ AMP);
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = chunks.remainder();
    at + tail
        .iter()
        .position(|&c| c == b'<' || c == b'&')
        .unwrap_or(tail.len())
}

/// Pull parser yielding [`StreamEvent`]s over a complete document held in
/// (or mapped into) a byte slice.
///
/// State is O(depth): a stack of open tag-name byte ranges plus a cursor.
/// Call
/// [`next_event`](Self::next_event) until it returns `Ok(None)`; after an
/// error the parser is poisoned and keeps returning `Ok(None)`.
#[derive(Debug)]
pub struct StreamParser<'a> {
    bytes: &'a [u8],
    /// `bytes` as text when the whole input is valid UTF-8 (checked once
    /// in [`new`](Self::new)); names and text are then borrowed from it
    /// without per-event validation. Otherwise each is decoded lossily.
    text: Option<&'a str>,
    pos: usize,
    /// Byte ranges of the open tag names in `bytes`, innermost last
    /// (bounds nesting at [`MAX_DEPTH`]). Ranges, not owned names: an
    /// open costs no allocation, and close tags match on raw bytes.
    open: Vec<(usize, usize)>,
    state: State,
    /// A `<a/>` produced its `Open`; its `Close` is owed next.
    pending_close: bool,
    events: u64,
}

impl<'a> StreamParser<'a> {
    /// Creates a tokenizer over a full document.
    pub fn new(bytes: &'a [u8]) -> Self {
        StreamParser {
            bytes,
            text: std::str::from_utf8(bytes).ok(),
            pos: 0,
            open: Vec::new(),
            state: State::Prolog,
            pending_close: false,
            events: 0,
        }
    }

    /// Current byte offset into the input.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Current element nesting depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Number of events yielded so far.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The next event, `Ok(None)` at end of document.
    pub fn next_event(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        let r = self.step();
        match &r {
            Err(_) => self.state = State::Done,
            Ok(Some(_)) => self.events += 1,
            Ok(None) => {}
        }
        r
    }

    fn step(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        if self.pending_close {
            self.pending_close = false;
            return Ok(Some(self.emit_close()));
        }
        match self.state {
            State::Content => self.content_step(),
            State::Prolog => {
                self.prolog()?;
                self.open_tag().map(Some)
            }
            State::Epilog => self.epilog_step(),
            State::Done => Ok(None),
        }
    }

    /// Pops the innermost element; leaving the root moves to the epilog.
    fn emit_close(&mut self) -> StreamEvent<'a> {
        self.open.pop();
        if self.open.is_empty() {
            self.state = State::Epilog;
        }
        StreamEvent::Close
    }

    /// The input bytes `start..end` as text: borrowed when the input is
    /// UTF-8 (every range the tokenizer cuts starts and ends next to an
    /// ASCII delimiter or at the input's end, so it is a character
    /// boundary), decoded lossily otherwise.
    #[inline]
    fn slice(&self, start: usize, end: usize) -> Cow<'a, str> {
        match self.text.and_then(|t| t.get(start..end)) {
            Some(s) => Cow::Borrowed(s),
            None => String::from_utf8_lossy(&self.bytes[start..end]),
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            offset: self.pos,
            kind,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(s)
    }

    #[inline]
    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(b) if b == c => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.err(ParseErrorKind::Expected(c as char))),
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos += class_run(&self.bytes[self.pos..], SPACE);
    }

    /// Length of the name token of `class` bytes at the cursor, or
    /// `TokenTooLong` (at the token's start) when it exceeds
    /// [`MAX_NAME_LEN`]. The scan looks at most one byte past the cap, so
    /// a hostile token is not walked to its end.
    #[inline]
    fn token_len(&self, class: u8) -> Result<usize, ParseError> {
        let rest = &self.bytes[self.pos..];
        let len = class_run(&rest[..rest.len().min(MAX_NAME_LEN + 1)], class);
        if len > MAX_NAME_LEN {
            return Err(self.err(ParseErrorKind::TokenTooLong));
        }
        Ok(len)
    }

    /// Moves the cursor past the next `end`, or to the input's end with
    /// `UnexpectedEof` when there is none.
    fn skip_until(&mut self, end: &[u8]) -> Result<(), ParseError> {
        match find_sub(&self.bytes[self.pos..], end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.pos += 2;
                self.skip_until(b"?>")?;
            } else if self.starts_with(b"<!--") {
                self.pos += 4;
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") {
                self.doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips a DOCTYPE declaration, including a bracketed internal subset.
    fn doctype(&mut self) -> Result<(), ParseError> {
        self.pos += b"<!DOCTYPE".len();
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                Some(b'[') => depth += 1,
                Some(b']') => depth = depth.saturating_sub(1),
                Some(b'>') if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {}
            }
            self.pos += 1;
        }
    }

    /// Consumes a name token, returning its byte range in the input.
    #[inline]
    fn name_range(&mut self) -> Result<(usize, usize), ParseError> {
        let start = self.pos;
        let len = self.token_len(NAME)?;
        if len == 0 {
            return Err(self.err(ParseErrorKind::BadName));
        }
        self.pos += len;
        // Names must not start with a digit, '-' or '.'.
        let first = self.bytes[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(ParseError {
                offset: start,
                kind: ParseErrorKind::BadName,
            });
        }
        Ok((start, self.pos))
    }

    fn open_tag(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        if self.open.len() >= MAX_DEPTH {
            return Err(self.err(ParseErrorKind::TooDeep));
        }
        self.expect(b'<')?;
        let (start, end) = self.name_range()?;
        self.open.push((start, end));
        // `<a>` is the common shape: one byte settles it. Anything else
        // takes the attribute loop.
        if self.peek() == Some(b'>') {
            self.pos += 1;
        } else {
            self.attributes()?;
            if self.starts_with(b"/>") {
                self.pos += 2;
                self.pending_close = true;
            } else {
                self.expect(b'>')?;
            }
        }
        self.state = State::Content;
        Ok(StreamEvent::Open {
            name: self.slice(start, end),
        })
    }

    fn close_tag(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        self.pos += 2;
        let open = self
            .open
            .last()
            .map_or(&[][..], |&(s, e)| &self.bytes[s..e]);
        // A close tag that spells the open name, followed by a byte that
        // cannot continue a name, is that name token: the open name was
        // validated when it opened. Anything else is scanned afresh.
        let rest = &self.bytes[self.pos..];
        let spelled = !open.is_empty()
            && rest.starts_with(open)
            && !rest.get(open.len()).is_some_and(|&c| is(NAME, c));
        let found = if spelled {
            self.pos += open.len();
            open
        } else {
            let (start, end) = self.name_range()?;
            &self.bytes[start..end]
        };
        if self.peek() != Some(b'>') {
            self.skip_ws();
            self.expect(b'>')?;
        } else {
            self.pos += 1;
        }
        // Compare raw bytes: two names that differ only in invalid UTF-8
        // decode to the same lossy string but are different tags.
        if !spelled && open != found {
            return Err(self.err(ParseErrorKind::MismatchedTag {
                open: String::from_utf8_lossy(open).into_owned(),
                found: String::from_utf8_lossy(found).into_owned(),
            }));
        }
        Ok(self.emit_close())
    }

    fn attributes(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(()),
                _ => {}
            }
            self.name_range()?;
            self.skip_ws();
            self.expect(b'=')?;
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                Some(_) => return Err(self.err(ParseErrorKind::Expected('"'))),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            };
            self.pos += 1;
            // Attribute values are validated but not reported: the
            // estimation system summarises element structure only.
            let rest = &self.bytes[self.pos..];
            self.pos += rest.iter().position(|&c| c == quote).unwrap_or(rest.len());
            self.expect(quote)?;
        }
    }

    fn content_step(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            };
            match b {
                b'<' => match self.bytes.get(self.pos + 1) {
                    Some(b'/') => return self.close_tag().map(Some),
                    Some(b'!') if self.starts_with(b"<!--") => {
                        self.pos += 4;
                        self.skip_until(b"-->")?;
                    }
                    Some(b'!') if self.starts_with(b"<![CDATA[") => {
                        return self.cdata().map(Some);
                    }
                    Some(b'?') => {
                        self.pos += 2;
                        self.skip_until(b"?>")?;
                    }
                    // Any other `<!` fails in the open tag as a bad name.
                    _ => return self.open_tag().map(Some),
                },
                b'&' => {
                    let text = self.entity()?;
                    return Ok(Some(StreamEvent::Text(text)));
                }
                _ => {
                    let start = self.pos;
                    self.pos += text_run(&self.bytes[start..]);
                    return Ok(Some(StreamEvent::Text(self.slice(start, self.pos))));
                }
            }
        }
    }

    /// A CDATA section at the cursor, as one text event.
    fn cdata(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        self.pos += b"<![CDATA[".len();
        let start = self.pos;
        match find_sub(&self.bytes[start..], b"]]>") {
            Some(i) => {
                self.pos = start + i + 3;
                Ok(StreamEvent::Text(self.slice(start, start + i)))
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn epilog_step(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        loop {
            self.skip_ws();
            if self.pos >= self.bytes.len() {
                self.state = State::Done;
                return Ok(None);
            }
            if self.starts_with(b"<!--") {
                self.pos += 4;
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<?") {
                self.pos += 2;
                self.skip_until(b"?>")?;
            } else {
                return Err(self.err(ParseErrorKind::TrailingContent));
            }
        }
    }

    /// Decodes the entity reference at the cursor.
    fn entity(&mut self) -> Result<Cow<'a, str>, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let start = self.pos;
        self.pos += self.token_len(ENTITY)?;
        // The name bytes are ASCII.
        let name = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        self.expect(b';')?;
        let bad = |name: &str| self.err(ParseErrorKind::BadEntity(name.to_owned()));
        let code = match name.as_ref() {
            "lt" => return Ok(Cow::Borrowed("<")),
            "gt" => return Ok(Cow::Borrowed(">")),
            "amp" => return Ok(Cow::Borrowed("&")),
            "apos" => return Ok(Cow::Borrowed("'")),
            "quot" => return Ok(Cow::Borrowed("\"")),
            n if n.starts_with("#x") || n.starts_with("#X") => {
                u32::from_str_radix(&n[2..], 16).ok()
            }
            n if n.starts_with('#') => n[1..].parse::<u32>().ok(),
            _ => None,
        };
        match code.and_then(char::from_u32) {
            Some(c) => Ok(Cow::Owned(c.to_string())),
            None => Err(bad(&name)),
        }
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<StreamEvent<'_>>, ParseError> {
        let mut p = StreamParser::new(input.as_bytes());
        let mut out = Vec::new();
        while let Some(ev) = p.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    fn open(name: &str) -> StreamEvent<'_> {
        StreamEvent::Open {
            name: Cow::Borrowed(name),
        }
    }

    #[test]
    fn yields_open_text_close() {
        let evs = events("<a>hi<b>there</b> again</a>").unwrap();
        assert_eq!(
            evs,
            vec![
                open("a"),
                StreamEvent::Text(Cow::Borrowed("hi")),
                open("b"),
                StreamEvent::Text(Cow::Borrowed("there")),
                StreamEvent::Close,
                StreamEvent::Text(Cow::Borrowed(" again")),
                StreamEvent::Close,
            ]
        );
    }

    #[test]
    fn self_closing_yields_open_then_close() {
        let evs = events("<a><b/></a>").unwrap();
        assert_eq!(
            evs,
            vec![open("a"), open("b"), StreamEvent::Close, StreamEvent::Close]
        );
    }

    #[test]
    fn entities_decode_to_text_segments() {
        let evs = events("<a>&lt;&#65;</a>").unwrap();
        let text: String = evs
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Text(t) => Some(t.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "<A");
    }

    #[test]
    fn prolog_and_epilog_produce_no_events() {
        let evs = events("<?xml version=\"1.0\"?><!-- c --><a/><!-- d -->").unwrap();
        assert_eq!(evs, vec![open("a"), StreamEvent::Close]);
    }

    #[test]
    fn poisoned_after_error() {
        let mut p = StreamParser::new(b"<a><b></a></b>");
        let last = loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(matches!(
            last.unwrap_err().kind,
            ParseErrorKind::MismatchedTag { .. }
        ));
        // After the error the stream stays terminated.
        assert!(matches!(p.next_event(), Ok(None)));
    }

    #[test]
    fn names_differing_only_in_invalid_utf8_do_not_match() {
        // Both names decode lossily to "a\u{FFFD}"; as bytes they differ.
        let mut p = StreamParser::new(b"<a\xff></a\xfe>");
        assert!(matches!(p.next_event(), Ok(Some(StreamEvent::Open { .. }))));
        let err = p.next_event().unwrap_err();
        assert_eq!(
            err,
            ParseError {
                offset: 9,
                kind: ParseErrorKind::MismatchedTag {
                    open: "a\u{FFFD}".to_owned(),
                    found: "a\u{FFFD}".to_owned(),
                },
            }
        );
        assert!(matches!(p.next_event(), Ok(None)));
    }

    #[test]
    fn mismatched_tag_payload_and_offset_are_stable() {
        let err = events("<r><ab></abc ></r>").unwrap_err();
        assert_eq!(
            err,
            ParseError {
                offset: 14,
                kind: ParseErrorKind::MismatchedTag {
                    open: "ab".to_owned(),
                    found: "abc".to_owned(),
                },
            }
        );
        let err = events("<r><é></è></r>").unwrap_err();
        assert_eq!(
            err,
            ParseError {
                offset: 12,
                kind: ParseErrorKind::MismatchedTag {
                    open: "é".to_owned(),
                    found: "è".to_owned(),
                },
            }
        );
    }

    #[test]
    fn depth_is_bounded_state() {
        let mut p = StreamParser::new(b"<a><b><c/></b></a>");
        let mut max_depth = 0;
        while let Some(_ev) = p.next_event().unwrap() {
            max_depth = max_depth.max(p.depth());
        }
        assert_eq!(max_depth, 3);
        assert_eq!(p.depth(), 0);
    }
}
