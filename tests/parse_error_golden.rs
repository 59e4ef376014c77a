//! The tokenizer's error contract, pinned as a golden table.
//!
//! Every input below — the hand-written hostile cases of
//! `crates/xml/tests/stream_parity.rs` plus seeded byte mutations of
//! generated XMark and DBLP documents — is run through the three ingest
//! drivers: the DOM parser ([`parse_document`]), a bare [`StreamParser`]
//! drain, and the streaming summary build ([`Summary::build_streaming`]).
//! All three must agree, and the outcome (element count, or the error's
//! byte offset and [`ParseErrorKind`]) must equal the checked-in row of
//! `tests/golden/parse_errors.txt`. The table was captured before the
//! tokenizer's dispatch was rewritten, so any change to which error a
//! malformed document reports, or where, fails here.

use xpe::datagen::{Dataset, DatasetSpec};
use xpe::synopsis::{Summary, SummaryConfig};
use xpe::xml::{
    parse_document, to_string, ParseError, StreamEvent, StreamParser, MAX_DEPTH, MAX_NAME_LEN,
};

const GOLDEN: &str = include_str!("golden/parse_errors.txt");

/// Mutations per generated document.
const MUTATIONS: usize = 120;

fn nested(depth: usize) -> String {
    let mut xml = String::new();
    for _ in 0..depth {
        xml.push_str("<a>");
    }
    for _ in 0..depth {
        xml.push_str("</a>");
    }
    xml
}

/// The hand-written cases, labelled.
fn literal_cases() -> Vec<(String, Vec<u8>)> {
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    let mut add = |label: String, input: &[u8]| cases.push((label, input.to_vec()));
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        add(format!("nested-{depth}"), nested(depth).as_bytes());
    }
    let fit = "n".repeat(MAX_NAME_LEN);
    let over = "n".repeat(MAX_NAME_LEN + 1);
    for (label, xml) in [
        ("name-fit", format!("<{fit}/>")),
        ("name-over", format!("<{over}/>")),
        ("attr-fit", format!("<a {fit}=\"v\"/>")),
        ("attr-over", format!("<a {over}=\"v\"/>")),
        ("entity-fit", format!("<a>&{fit};</a>")),
        ("entity-over", format!("<a>&{over};</a>")),
        ("close-over", format!("<a></{over}>")),
    ] {
        add(label.to_owned(), xml.as_bytes());
    }
    for input in [
        "",
        "<",
        "<a",
        "<a ",
        "<a x",
        "<a x=",
        "<a x=\"v",
        "<a><b>text",
        "<a><!-- comment",
        "<a><![CDATA[data",
        "<a>&am",
        "<a></a",
        "<?xml",
        "<!DOCTYPE a [",
        "<a><b></a>",
        "<a></a><b></b>",
        "<a></a>junk",
        "<a>&bogus;</a>",
        "<a>&#xZZ;</a>",
        "<1a/>",
        "< a/>",
        "text<a/>",
        "<a/><a/>",
        "<a><!x></a>",
        "<a><!-x--></a>",
        "<a><![CDAT[x]]></a>",
        "<a><?pi x?><b/></a>",
        "<a/ >",
        "<a x='1'y=\"2\"/>",
        "<a x=1/>",
        "<a>&#55296;</a>",
        "<a>&;</a>",
        "<a></b c>",
        "<a></a  >",
        "<a></ a>",
        "<a\u{e9}></a\u{e8}>",
        "<!-- c --><?pi?><!DOCTYPE r><r/><!-- d --> <?e?>",
        "<r/><!-- open",
    ] {
        add(format!("literal {input:?}"), input.as_bytes());
    }
    add("invalid-utf8-names".to_owned(), b"<a\xff></a\xfe>");
    add("invalid-utf8-text".to_owned(), b"<a>x\xffy<b/>\xc3</a>");
    let full = r#"<a x="1"><b>hi &amp; <![CDATA[raw]]></b><!-- c --></a>"#;
    for cut in 1..=full.len() {
        add(format!("prefix-{cut}"), &full.as_bytes()[..cut]);
    }
    cases
}

/// SplitMix64: a seeded stream that needs no external crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes a mutation writes: the grammar's delimiters plus a name byte,
/// whitespace and invalid UTF-8.
const ALPHABET: &[u8] = b"<>/!?&;=\"'[]-#x 1\xff";

/// Seeded single-byte mutations (replace, delete, insert, truncate) of a
/// generated document.
fn mutated_cases(dataset: Dataset, scale: f64) -> Vec<(String, Vec<u8>)> {
    let doc = DatasetSpec {
        dataset,
        scale,
        seed: 5,
    }
    .generate();
    let xml = to_string(&doc).into_bytes();
    let mut rng = Mix(0x5EED ^ xml.len() as u64);
    (0..MUTATIONS)
        .map(|i| {
            let mut bytes = xml.clone();
            let at = rng.below(bytes.len());
            let byte = ALPHABET[rng.below(ALPHABET.len())];
            let what = match rng.below(4) {
                0 => {
                    bytes[at] = byte;
                    "replace"
                }
                1 => {
                    bytes.remove(at);
                    "delete"
                }
                2 => {
                    bytes.insert(at, byte);
                    "insert"
                }
                _ => {
                    bytes.truncate(at);
                    "truncate"
                }
            };
            let label = format!("{}-{i} {what} {at} {byte:#04x}", dataset.name());
            (label, bytes)
        })
        .collect()
}

fn all_cases() -> Vec<(String, Vec<u8>)> {
    let mut cases = literal_cases();
    cases.extend(mutated_cases(Dataset::XMark, 0.002));
    cases.extend(mutated_cases(Dataset::Dblp, 0.001));
    cases
}

/// Drains a bare tokenizer: the open-event count, or the first error.
fn drain(bytes: &[u8]) -> Result<usize, ParseError> {
    let mut parser = StreamParser::new(bytes);
    let mut opens = 0;
    while let Some(event) = parser.next_event()? {
        if matches!(event, StreamEvent::Open { .. }) {
            opens += 1;
        }
    }
    Ok(opens)
}

fn row(outcome: &Result<usize, ParseError>) -> String {
    match outcome {
        Ok(elements) => format!("ok {elements}"),
        Err(e) => format!("err {} {:?}", e.offset, e.kind),
    }
}

/// One line per case: `label<TAB>outcome`, where the outcome is agreed by
/// every driver. The DOM and streaming summary drivers take `&str`, so
/// inputs that are not UTF-8 go through the bare tokenizer only (the
/// tokenizer decodes names and text lossily).
fn observed_table() -> String {
    let mut table = String::new();
    for (label, bytes) in all_cases() {
        let stream = drain(&bytes);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let dom = parse_document(text).map(|doc| doc.len());
            assert_eq!(row(&dom), row(&stream), "DOM vs tokenizer on {label}");
            let built = Summary::build_streaming(text, SummaryConfig::default()).map(|_| 0);
            match (&built, &stream) {
                (Ok(_), Ok(_)) => {}
                (Err(a), Err(b)) => assert_eq!(a, b, "streaming build vs tokenizer on {label}"),
                _ => panic!("streaming build disagrees with the tokenizer on {label}"),
            }
        }
        table.push_str(&label);
        table.push('\t');
        table.push_str(&row(&stream));
        table.push('\n');
    }
    table
}

#[test]
fn error_kinds_and_offsets_match_the_golden_table() {
    let observed = observed_table();
    let mut diffs = Vec::new();
    for (got, want) in observed.lines().zip(GOLDEN.lines()) {
        if got != want {
            diffs.push(format!("  got  {got}\n  want {want}"));
        }
    }
    assert!(
        diffs.is_empty() && observed.lines().count() == GOLDEN.lines().count(),
        "{} of {} rows differ ({} observed, {} golden):\n{}",
        diffs.len(),
        GOLDEN.lines().count(),
        observed.lines().count(),
        GOLDEN.lines().count(),
        diffs.join("\n")
    );
}

#[test]
fn the_golden_table_covers_both_outcomes() {
    let errors = GOLDEN.lines().filter(|l| l.contains("\terr ")).count();
    let accepted = GOLDEN.lines().filter(|l| l.contains("\tok ")).count();
    assert!(
        errors > 100 && accepted > 10,
        "{errors} errors, {accepted} accepted"
    );
}
