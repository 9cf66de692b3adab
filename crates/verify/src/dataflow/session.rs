//! Analysis sessions: TDL programs plus host-interaction directives.
//!
//! A *session* extends plain TDL with directive lines describing how the
//! host side of the application touches accelerator buffers.  Directives
//! let a corpus file express the coherence protocol of §3.3 — host
//! writes that must be flushed (`wbinvd`) before the accelerator may
//! observe them — without inventing a second language: directive lines
//! are stripped (blank-preserving, so spans stay honest) and the rest is
//! parsed as ordinary TDL.
//!
//! Directive grammar, one per line, interleaved between top-level items:
//!
//! ```text
//! HOST WRITE <buffer>        # host CPU writes <buffer> (dirty cache lines)
//! HOST READ  <buffer>        # host CPU reads <buffer>
//! FLUSH                      # wbinvd: write back + invalidate all lines
//! BUF <name> <base> <len>    # declare <name>'s physical extent (hex or dec)
//! BUDGET TIME <seconds>      # declared wall-time budget (MEA201)
//! BUDGET ENERGY <joules>     # declared energy budget (MEA203)
//! BUDGET CAPACITY <bytes>    # modeled stack capacity override (MEA200)
//! MEM INTERLEAVED            # vault-interleaved stack mapping (default)
//! MEM XOR                    # XOR-hashed vault interleaving
//! MEM ASYM <split>           # asymmetric mapping, high region at <split>
//! MEM HOST                   # run on the host DIMMs (host roofline)
//! ```
//!
//! A session containing at least one `HOST`/`FLUSH` directive is
//! analysed in *explicit* mode: only declared host writes count as
//! initialization and every hand-off must be flushed.  A directive-free
//! session is *implicit*: the host is assumed well-behaved (external
//! inputs initialized and flushed), and only structural checks apply.

use std::collections::BTreeMap;

use mealib_tdl::{parse_with_lines_at, ParseError, ProgramLines, TdlProgram};
use mealib_types::{AddrRange, Bytes, PhysAddr};

/// One host-side action recorded by a session directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOp {
    /// The host CPU wrote the named buffer (cache lines now dirty).
    Write(String),
    /// The host CPU read the named buffer.
    Read(String),
    /// `wbinvd`: write back every dirty line and invalidate the cache.
    Flush,
}

/// Which memory layer (and mapping mode) the session runs on, selected
/// by a `MEM` directive. The bounds pass prices traffic through the
/// matching [`mealib_memsim::AddressMapping`] and checks demanded
/// throughput against the roofline of this layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLayer {
    /// Vault-interleaved stack mapping (the default when no `MEM`
    /// directive appears).
    Interleaved,
    /// XOR-hashed vault interleaving.
    Xor,
    /// Asymmetric mapping; the operand is the first address of the
    /// single-channel high region.
    Asym(u64),
    /// The host's DIMM system: host roofline, host mapping.
    Host,
}

/// Resource budgets declared by `BUDGET` directives. Absent budgets
/// disable the corresponding bounds diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budgets {
    /// Declared wall-time budget in seconds (`BUDGET TIME`).
    pub time_s: Option<f64>,
    /// Declared energy budget in joules (`BUDGET ENERGY`).
    pub energy_j: Option<f64>,
    /// Modeled stack capacity override in bytes (`BUDGET CAPACITY`).
    pub capacity_bytes: Option<u64>,
}

/// A parsed session: the TDL program, its source lines, and the host
/// interaction stream ordered by source line.
#[derive(Debug, Clone)]
pub struct Session {
    /// The TDL program with directive lines removed.
    pub program: TdlProgram,
    /// Source lines of every `PASS`/`LOOP`/`COMP`, for spans.
    pub lines: ProgramLines,
    /// Host operations with their 1-based source line, in source order.
    pub host_ops: Vec<(usize, HostOp)>,
    /// Declared physical extents from `BUF` directives.
    pub extents: BTreeMap<String, AddrRange>,
    /// Declared resource budgets from `BUDGET` directives.
    pub budgets: Budgets,
    /// Memory layer selected by a `MEM` directive, with its source line.
    pub mem_layer: Option<(usize, MemLayer)>,
}

impl Session {
    /// `true` if the session declares any host interaction, switching
    /// the analysis into explicit mode.
    pub fn is_explicit(&self) -> bool {
        !self.host_ops.is_empty()
    }

    /// This session with every declared `BUF` extent moved up by
    /// `offset` bytes — what parsing the source again with each `BUF`
    /// base rewritten to `base + offset` gives, without the text round
    /// trip. Program, spans, host operations, budgets and memory layer
    /// are unchanged.
    ///
    /// # Errors
    ///
    /// Returns the typed error a `BUF` directive past the 64-bit
    /// address space gets when a moved extent would wrap. It names the
    /// extent and the offset; a moved extent has no source line of its
    /// own, so the error's line is 0.
    pub fn rebased(&self, offset: u64) -> Result<Session, ParseError> {
        let mut out = self.clone();
        for (name, range) in &mut out.extents {
            let (base, len) = (range.start().get(), range.len().get());
            match base.checked_add(offset) {
                Some(moved) if moved.checked_add(len).is_some() => {
                    *range = AddrRange::new(PhysAddr::new(moved), Bytes::new(len));
                }
                _ => {
                    let raw = format!("BUF {name} 0x{base:x} 0x{len:x} moved by 0x{offset:x}");
                    return Err(directive_err(EXTENT_EXPECTED, &raw, 0));
                }
            }
        }
        Ok(out)
    }
}

fn directive_err(expected: &str, found: &str, line: usize) -> ParseError {
    ParseError::Unexpected {
        expected: expected.to_string(),
        found: found.to_string(),
        line,
    }
}

fn parse_extent_number(tok: &str, line: usize) -> Result<u64, ParseError> {
    let parsed = match tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => tok.parse(),
    };
    parsed.map_err(|_| directive_err("a decimal or 0x-prefixed address", tok, line))
}

/// What a wrapping extent's error says was expected.
const EXTENT_EXPECTED: &str = "an extent inside the 64-bit address space";

/// The range `[base, base + len)`, or a typed error when it wraps the
/// 64-bit address space.
pub(crate) fn extent(base: u64, len: u64, raw: &str, line: usize) -> Result<AddrRange, ParseError> {
    if base.checked_add(len).is_none() {
        return Err(directive_err(EXTENT_EXPECTED, raw, line));
    }
    Ok(AddrRange::new(PhysAddr::new(base), Bytes::new(len)))
}

fn parse_budget_number(tok: &str, line: usize) -> Result<f64, ParseError> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(directive_err("a positive budget value", tok, line)),
    }
}

/// Parses a session: splits directive lines out of `src`, parses the
/// remainder as TDL, and returns both halves with line numbers intact.
///
/// # Errors
///
/// Returns a [`ParseError`] for a malformed directive or for any
/// lexical/syntactic problem in the TDL remainder.
pub fn parse_session(src: &str) -> Result<Session, ParseError> {
    parse_session_at(src, 1)
}

/// [`parse_session`] for a session whose first line is line
/// `first_line` of an enclosing file (a session-set manifest): every
/// span and error line refers to that file.
pub(crate) fn parse_session_at(src: &str, first_line: usize) -> Result<Session, ParseError> {
    let mut tdl = String::with_capacity(src.len());
    let mut host_ops = Vec::new();
    let mut extents = BTreeMap::new();
    let mut budgets = Budgets::default();
    let mut mem_layer = None;

    for (idx, raw) in src.lines().enumerate() {
        let line = idx + first_line;
        let toks: Vec<&str> = raw.split_whitespace().collect();
        let is_directive = matches!(
            toks.first(),
            Some(&"HOST") | Some(&"FLUSH") | Some(&"BUF") | Some(&"BUDGET") | Some(&"MEM")
        );
        if !is_directive {
            tdl.push_str(raw);
            tdl.push('\n');
            continue;
        }
        // Blank the directive so TDL spans keep their original lines.
        tdl.push('\n');
        match toks.as_slice() {
            ["HOST", "WRITE", buf] => host_ops.push((line, HostOp::Write((*buf).to_string()))),
            ["HOST", "READ", buf] => host_ops.push((line, HostOp::Read((*buf).to_string()))),
            ["HOST", ..] => {
                return Err(directive_err(
                    "HOST WRITE <buf> or HOST READ <buf>",
                    raw,
                    line,
                ))
            }
            ["FLUSH"] => host_ops.push((line, HostOp::Flush)),
            ["FLUSH", ..] => return Err(directive_err("FLUSH with no operands", raw, line)),
            ["BUF", name, base, len] => {
                let base = parse_extent_number(base, line)?;
                let len = parse_extent_number(len, line)?;
                extents.insert((*name).to_string(), extent(base, len, raw, line)?);
            }
            ["BUF", ..] => return Err(directive_err("BUF <name> <base> <len>", raw, line)),
            ["BUDGET", "TIME", v] => {
                budgets.time_s = Some(parse_budget_number(v, line)?);
            }
            ["BUDGET", "ENERGY", v] => {
                budgets.energy_j = Some(parse_budget_number(v, line)?);
            }
            ["BUDGET", "CAPACITY", v] => {
                budgets.capacity_bytes = Some(parse_extent_number(v, line)?);
            }
            ["BUDGET", ..] => {
                return Err(directive_err(
                    "BUDGET TIME|ENERGY|CAPACITY <value>",
                    raw,
                    line,
                ))
            }
            ["MEM", "INTERLEAVED"] => mem_layer = Some((line, MemLayer::Interleaved)),
            ["MEM", "XOR"] => mem_layer = Some((line, MemLayer::Xor)),
            ["MEM", "ASYM", split] => {
                mem_layer = Some((line, MemLayer::Asym(parse_extent_number(split, line)?)));
            }
            ["MEM", "HOST"] => mem_layer = Some((line, MemLayer::Host)),
            ["MEM", ..] => {
                return Err(directive_err(
                    "MEM INTERLEAVED|XOR|ASYM <split>|HOST",
                    raw,
                    line,
                ))
            }
            _ => unreachable!("directive head checked above"),
        }
    }

    let (program, lines) = parse_with_lines_at(&tdl, first_line)?;
    Ok(Session {
        program,
        lines,
        host_ops,
        extents,
        budgets,
        mem_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_free_source_is_implicit() {
        let s = parse_session("PASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n").unwrap();
        assert!(!s.is_explicit());
        assert!(s.host_ops.is_empty());
        assert!(s.extents.is_empty());
        assert_eq!(s.program.items.len(), 1);
    }

    #[test]
    fn directives_are_stripped_with_lines_preserved() {
        let src =
            "HOST WRITE x\nFLUSH\nPASS in=x out=y {\n  COMP AXPY params=\"a\"\n}\nHOST READ y\n";
        let s = parse_session(src).unwrap();
        assert!(s.is_explicit());
        assert_eq!(
            s.host_ops,
            vec![
                (1, HostOp::Write("x".into())),
                (2, HostOp::Flush),
                (6, HostOp::Read("y".into())),
            ]
        );
        // The PASS keeps its original source line despite the stripping.
        match &s.lines.items[0] {
            mealib_tdl::ItemLines::Pass(p) => assert_eq!(p.header, 3),
            other => panic!("expected pass lines, got {other:?}"),
        }
    }

    #[test]
    fn buf_directive_declares_extents() {
        let src =
            "BUF a 0x1000 256\nBUF b 4352 0x100\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n";
        let s = parse_session(src).unwrap();
        let a = s.extents.get("a").unwrap();
        assert_eq!(a.start().get(), 0x1000);
        assert_eq!(a.len().get(), 256);
        let b = s.extents.get("b").unwrap();
        assert_eq!(b.start().get(), 4352);
        assert_eq!(b.len().get(), 0x100);
    }

    #[test]
    fn malformed_directives_are_rejected() {
        for bad in [
            "HOST SCRIBBLE x\n",
            "HOST WRITE\n",
            "FLUSH now\n",
            "BUF a 0x10\n",
            "BUF a lots 4\n",
            "BUDGET TIME\n",
            "BUDGET TIME -1\n",
            "BUDGET WATTS 5\n",
            "MEM\n",
            "MEM ASYM\n",
            "MEM SIDEWAYS\n",
        ] {
            assert!(parse_session(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn budget_and_mem_directives_parse() {
        let src = "BUDGET TIME 0.5\nBUDGET ENERGY 12.5\nBUDGET CAPACITY 0x1000\nMEM ASYM \
                   0x200000000\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n";
        let s = parse_session(src).unwrap();
        assert_eq!(s.budgets.time_s, Some(0.5));
        assert_eq!(s.budgets.energy_j, Some(12.5));
        assert_eq!(s.budgets.capacity_bytes, Some(0x1000));
        assert_eq!(s.mem_layer, Some((4, MemLayer::Asym(0x2_0000_0000))));
        // Budgets alone do not make a session explicit.
        assert!(!s.is_explicit());
        for (mode, want) in [
            ("MEM INTERLEAVED", MemLayer::Interleaved),
            ("MEM XOR", MemLayer::Xor),
            ("MEM HOST", MemLayer::Host),
        ] {
            let src = format!("{mode}\nPASS in=a out=b {{\n  COMP FFT params=\"f\"\n}}\n");
            let s = parse_session(&src).unwrap();
            assert_eq!(s.mem_layer, Some((1, want)), "{mode}");
        }
    }
}
