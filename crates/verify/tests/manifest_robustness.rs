//! Robustness of the text front doors for sessions and session sets:
//! [`parse_session`] and [`parse_session_set`] must answer any input
//! with `Ok` or a typed [`mealib_tdl::ParseError`], never a panic —
//! arbitrary printable text, directive-shaped token soup with extreme
//! numbers, and corpus manifests mutated line by line.

use std::fs;
use std::path::PathBuf;

use mealib_verify::dataflow::parse_session;
use mealib_verify::interference::parse_session_set;
use proptest::prelude::*;

/// Both parsers over `src`; a panic fails the test.
fn parse_both(src: &str) {
    let _ = parse_session(src);
    let _ = parse_session_set(src);
}

/// Every corpus session and manifest, sorted by path.
fn corpus_sources() -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<PathBuf> = ["bad", "clean"]
        .iter()
        .flat_map(|dir| fs::read_dir(root.join(dir)).expect("corpus dir reads"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("set") | Some("tdl")
            )
        })
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| fs::read_to_string(p).expect("corpus file reads"))
        .collect()
}

/// Tokens the grammar cares about, plus numbers at and past every
/// limit the parsers convert to.
const TOKENS: &[&str] = &[
    "TENANT",
    "PARTITION",
    "ARRIVAL",
    "BUF",
    "BUDGET",
    "TIME",
    "ENERGY",
    "CAPACITY",
    "MEM",
    "INTERLEAVED",
    "XOR",
    "ASYM",
    "HOST",
    "WRITE",
    "READ",
    "FLUSH",
    "PASS",
    "LOOP",
    "COMP",
    "FFT",
    "AXPY",
    "in=a",
    "out=b",
    "params=\"p\"",
    "{",
    "}",
    "a",
    "b",
    "0",
    "1",
    "0x",
    "0x0",
    "0x1000",
    "-1",
    "1e308",
    "1e-320",
    "nan",
    "inf",
    "0xffffffffffffffff",
    "0xfffffffffffffff0",
    "18446744073709551615",
    "18446744073709551616",
    "0x10000000000000000",
    "4294967296",
];

fn token() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(TOKENS.to_vec())
}

/// Numbers at and around every limit the parsers convert to.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "0x10",
    "0x1000",
    "4294967296",
    "0xfffffffffffffff0",
    "0xffffffffffffffff",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e308",
    "nan",
    "0x",
];

/// Directive heads with the operand count their grammar expects, so
/// soup lines reach the operand handling.
const HEADS: &[(&str, usize)] = &[
    ("TENANT", 1),
    ("PARTITION", 2),
    ("ARRIVAL", 1),
    ("BUF a", 2),
    ("BUDGET TIME", 1),
    ("BUDGET ENERGY", 1),
    ("BUDGET CAPACITY", 1),
    ("MEM ASYM", 1),
    ("MEM XOR", 0),
    ("HOST WRITE", 1),
    ("LOOP", 1),
    ("PASS in=a out=b {", 0),
    ("COMP FFT", 0),
    ("}", 0),
];

fn soup_line() -> impl Strategy<Value = String> {
    (
        proptest::sample::select(HEADS.to_vec()),
        proptest::collection::vec(proptest::sample::select(NUMBERS.to_vec()), 3),
        0u8..4,
        token(),
    )
        .prop_map(|((head, arity), nums, shape, extra)| {
            let mut line = head.to_string();
            for n in &nums[..arity] {
                line.push(' ');
                line.push_str(n);
            }
            // Mostly well-shaped; sometimes one operand too many.
            if shape == 0 {
                line.push(' ');
                line.push_str(extra);
            }
            line
        })
}

/// One line-level edit of a corpus file.
#[derive(Debug, Clone)]
enum Edit {
    Delete(usize),
    Duplicate(usize),
    Swap(usize, usize),
    /// Replace token `.1` of line `.0` with a grammar token.
    Retoken(usize, usize, &'static str),
    /// Cut line `.0` after `.1` characters.
    Truncate(usize, usize),
    /// Insert a line of token soup before line `.0`.
    Insert(usize, String),
}

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..6, 0usize..64, 0usize..64, token(), soup_line()).prop_map(|(kind, a, b, tok, line)| {
        match kind {
            0 => Edit::Delete(a),
            1 => Edit::Duplicate(a),
            2 => Edit::Swap(a, b),
            3 => Edit::Retoken(a, b % 6, tok),
            4 => Edit::Truncate(a, b),
            _ => Edit::Insert(a, line),
        }
    })
}

fn apply(src: &str, edits: &[Edit]) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
    for e in edits {
        if lines.is_empty() {
            lines.push(String::new());
        }
        let n = lines.len();
        match e {
            Edit::Delete(i) => {
                lines.remove(i % n);
            }
            Edit::Duplicate(i) => {
                let l = lines[i % n].clone();
                lines.insert(i % n, l);
            }
            Edit::Swap(i, j) => lines.swap(i % n, j % n),
            Edit::Retoken(i, t, tok) => {
                let mut toks: Vec<&str> = lines[i % n].split_whitespace().collect();
                if toks.is_empty() {
                    toks.push(tok);
                } else {
                    let k = t % toks.len();
                    toks[k] = tok;
                }
                lines[i % n] = toks.join(" ");
            }
            Edit::Truncate(i, at) => {
                let l = &mut lines[i % n];
                let cut: String = l.chars().take(*at).collect();
                *l = cut;
            }
            Edit::Insert(i, line) => lines.insert(i % (n + 1), line.clone()),
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(src in "\\PC{0,400}") {
        parse_both(&src);
    }

    #[test]
    fn directive_soup_never_panics(lines in proptest::collection::vec(soup_line(), 0..8)) {
        parse_both(&lines.join("\n"));
    }

    #[test]
    fn mutated_corpus_files_never_panic(
        pick in 0usize..1024,
        edits in proptest::collection::vec(edit(), 1..6),
    ) {
        let corpus = corpus_sources();
        let src = &corpus[pick % corpus.len()];
        parse_both(&apply(src, &edits));
    }
}

#[test]
fn extents_past_the_address_space_are_typed_errors() {
    // Base + length wraps u64: a typed error naming the line, not an
    // overflow panic in the range constructor.
    let buf = "BUF a 0xffffffffffffffff 0x2\n";
    assert!(parse_session(buf).is_err());
    let set = "TENANT t\nPARTITION 0xfffffffffffffff0 0x20\n";
    assert!(parse_session_set(set).is_err());
    let set = format!("TENANT t\nPARTITION 0x0 0x1000\n{buf}");
    assert!(parse_session_set(&set).is_err());
    // The last byte of the address space is still addressable.
    assert!(parse_session("BUF a 0xfffffffffffffff0 0xf\n").is_ok());
}
