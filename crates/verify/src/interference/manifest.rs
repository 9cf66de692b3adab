//! Session-set manifests: N tenant sessions sharing one device.
//!
//! A *session set* layers three directives over the PR-6 session
//! format to describe a multi-tenant deployment in one file:
//!
//! ```text
//! MEM INTERLEAVED            # optional set-level memory layer (header)
//! BUDGET TIME 1.0            # optional set-level wall-time envelope
//! BUDGET ENERGY 10.0         # optional set-level energy envelope
//!
//! TENANT dsp                 # starts tenant `dsp`'s section
//! PARTITION 0x1000 0x800000  # the tenant's physical vault partition
//! ARRIVAL 0                  # request-slot arrival offset (default 0)
//! BUF a 0x1000 0x10000       # ... ordinary session body follows ...
//! PASS in=a out=b { ... }
//!
//! TENANT radar               # next tenant, and so on
//! ...
//! ```
//!
//! Everything before the first `TENANT` line is the **header**: only
//! `MEM` and `BUDGET` directives (and blank lines) are legal there —
//! the header's budgets are the *aggregate* envelope the whole set is
//! judged against, and its `MEM` directive selects the one layer every
//! tenant shares. Each tenant section is parsed with
//! [`parse_session`]'s grammar after the set-level directives are
//! blanked, starting at the section's own manifest line, so every span
//! in the parsed session refers to the original manifest line —
//! diagnostics point at the file the user wrote.
//!
//! [`parse_session`]: crate::dataflow::parse_session

use std::collections::HashSet;

use mealib_tdl::ParseError;
use mealib_types::AddrRange;

use crate::dataflow::session::{extent, parse_session_at};
use crate::dataflow::{Budgets, MemLayer, Session};

/// One tenant's slice of the manifest.
#[derive(Debug, Clone)]
pub struct TenantDecl {
    /// Tenant name from the `TENANT` directive.
    pub name: String,
    /// 1-based manifest line of the `TENANT` directive.
    pub line: usize,
    /// Declared vault partition, with its directive line.
    pub partition: Option<(usize, AddrRange)>,
    /// Request-slot arrival offset (`ARRIVAL`, default 0).
    pub arrival: u64,
    /// The tenant's session body, spans relative to the manifest.
    pub session: Session,
}

/// A parsed session-set manifest.
#[derive(Debug, Clone)]
pub struct SessionSet {
    /// Tenants in manifest order.
    pub tenants: Vec<TenantDecl>,
    /// Set-level envelope from header `BUDGET` directives.
    pub budgets: Budgets,
    /// Shared memory layer from a header `MEM` directive.
    pub mem_layer: Option<(usize, MemLayer)>,
}

/// `true` when `text` looks like a session-set manifest (any line
/// starting with a `TENANT` directive). Plain sessions and TDL never
/// contain one, so this is the sniff `mealint` routes on.
pub fn looks_like_session_set(text: &str) -> bool {
    text.lines()
        .any(|l| l.split_whitespace().next() == Some("TENANT"))
}

fn directive_err(expected: &str, found: &str, line: usize) -> ParseError {
    ParseError::Unexpected {
        expected: expected.to_string(),
        found: found.to_string(),
        line,
    }
}

fn parse_number(tok: &str, line: usize) -> Result<u64, ParseError> {
    let parsed = match tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => tok.parse(),
    };
    parsed.map_err(|_| directive_err("a decimal or 0x-prefixed number", tok, line))
}

/// One tenant section before its body is handed to `parse_session`.
struct RawTenant {
    name: String,
    line: usize,
    partition: Option<(usize, AddrRange)>,
    arrival: Option<(usize, u64)>,
    /// Body text from the line after `TENANT` on, set directives
    /// blanked, so line `n` of the body is manifest line `line + n`.
    body: String,
}

/// Parses a session-set manifest.
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed set directives (`TENANT`
/// without a name, duplicate names, `PARTITION`/`ARRIVAL` outside a
/// tenant section or repeated within one, TDL before the first
/// `TENANT`, a tenant-level `MEM` directive) and for any parse error
/// inside a tenant's session body.
///
/// Cost is linear in the manifest: each tenant body is parsed once,
/// starting at its own manifest line, and names are checked in a set.
pub fn parse_session_set(src: &str) -> Result<SessionSet, ParseError> {
    let mut header = String::new();
    let mut tenants: Vec<RawTenant> = Vec::new();
    let mut names: HashSet<&str> = HashSet::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let toks: Vec<&str> = raw.split_whitespace().collect();
        match toks.as_slice() {
            ["TENANT", name] => {
                if !names.insert(*name) {
                    return Err(directive_err("a unique tenant name", raw, line));
                }
                tenants.push(RawTenant {
                    name: (*name).to_string(),
                    line,
                    partition: None,
                    arrival: None,
                    body: String::new(),
                });
            }
            ["TENANT", ..] => return Err(directive_err("TENANT <name>", raw, line)),
            ["PARTITION", base, len] => {
                let Some(t) = tenants.last_mut() else {
                    return Err(directive_err("PARTITION after a TENANT line", raw, line));
                };
                if t.partition.is_some() {
                    return Err(directive_err("at most one PARTITION per tenant", raw, line));
                }
                let base = parse_number(base, line)?;
                let len = parse_number(len, line)?;
                if len == 0 {
                    return Err(directive_err("a non-empty partition", raw, line));
                }
                t.partition = Some((line, extent(base, len, raw, line)?));
                t.body.push('\n');
            }
            ["PARTITION", ..] => {
                return Err(directive_err("PARTITION <base> <len>", raw, line));
            }
            ["ARRIVAL", off] => {
                let Some(t) = tenants.last_mut() else {
                    return Err(directive_err("ARRIVAL after a TENANT line", raw, line));
                };
                if t.arrival.is_some() {
                    return Err(directive_err("at most one ARRIVAL per tenant", raw, line));
                }
                t.arrival = Some((line, parse_number(off, line)?));
                t.body.push('\n');
            }
            ["ARRIVAL", ..] => return Err(directive_err("ARRIVAL <offset>", raw, line)),
            _ => match tenants.last_mut() {
                Some(t) => {
                    t.body.push_str(raw);
                    t.body.push('\n');
                }
                None => {
                    header.push_str(raw);
                    header.push('\n');
                }
            },
        }
    }
    if tenants.is_empty() {
        return Err(directive_err(
            "at least one TENANT section",
            "end of file",
            1,
        ));
    }

    // The header is itself a (program-free) session: that reuses the
    // existing BUDGET/MEM grammar and rejects anything else up front.
    let header_session = crate::dataflow::parse_session(&header)?;
    if !header_session.program.items.is_empty()
        || !header_session.host_ops.is_empty()
        || !header_session.extents.is_empty()
    {
        return Err(directive_err(
            "only MEM/BUDGET directives before the first TENANT",
            "TDL or session directives in the manifest header",
            1,
        ));
    }

    let mut out = SessionSet {
        tenants: Vec::with_capacity(tenants.len()),
        budgets: header_session.budgets,
        mem_layer: header_session.mem_layer,
    };
    for raw in tenants {
        let session = parse_session_at(&raw.body, raw.line + 1)?;
        if let Some((line, _)) = session.mem_layer {
            return Err(directive_err(
                "MEM in the manifest header (the layer is shared)",
                "a tenant-level MEM directive",
                line,
            ));
        }
        out.tenants.push(TenantDecl {
            name: raw.name,
            line: raw.line,
            partition: raw.partition,
            arrival: raw.arrival.map_or(0, |(_, a)| a),
            session,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::HostOp;

    const TWO_TENANTS: &str = "\
BUDGET TIME 1.0
BUDGET ENERGY 10.0

TENANT dsp
PARTITION 0x0 0x1000000
ARRIVAL 0
BUF a 0x1000 0x10000
BUF b 0x20000 0x10000
PASS in=a out=b {
  COMP FFT params=\"f\"
}

TENANT radar
PARTITION 0x1000000 0x1000000
ARRIVAL 64
BUF x 0x1001000 0x10000
BUF y 0x1020000 0x10000
PASS in=x out=y {
  COMP AXPY params=\"a\"
}
";

    #[test]
    fn manifest_parses_with_manifest_relative_spans() {
        let set = parse_session_set(TWO_TENANTS).unwrap();
        assert_eq!(set.budgets.time_s, Some(1.0));
        assert_eq!(set.budgets.energy_j, Some(10.0));
        assert_eq!(set.tenants.len(), 2);
        let dsp = &set.tenants[0];
        assert_eq!(dsp.name, "dsp");
        assert_eq!(dsp.line, 4);
        assert_eq!(dsp.arrival, 0);
        let (pline, part) = dsp.partition.unwrap();
        assert_eq!(pline, 5);
        assert_eq!(part.len().get(), 0x100_0000);
        let radar = &set.tenants[1];
        assert_eq!(radar.arrival, 64);
        // Spans survive the slicing: radar's PASS header sits on the
        // manifest line it was written on.
        match &radar.session.lines.items[0] {
            mealib_tdl::ItemLines::Pass(p) => assert_eq!(p.header, 18),
            other => panic!("expected pass lines, got {other:?}"),
        }
    }

    /// `n` three-line tenants, then one more whose body opens with
    /// `tail`.
    fn many_tenants(n: usize, tail: &str) -> String {
        let mut src = String::new();
        for k in 0..n {
            src.push_str(&format!(
                "TENANT t{k}\nPARTITION 0x{:x} 0x1000\nBUF a 0x{:x} 0x100\n",
                k << 12,
                k << 12
            ));
        }
        src.push_str(&format!(
            "TENANT last\nPARTITION 0x{:x} 0x1000\n{tail}",
            n << 12
        ));
        src
    }

    #[test]
    fn spans_stay_manifest_relative_deep_in_a_large_manifest() {
        let n = 3000;
        let tail = "ARRIVAL 8\nHOST WRITE a\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n";
        let set = parse_session_set(&many_tenants(n, tail)).unwrap();
        assert_eq!(set.tenants.len(), n + 1);
        assert_eq!(set.tenants[1234].line, 1 + 3 * 1234);
        let last = set.tenants.last().unwrap();
        let first = 1 + 3 * n; // the last tenant's TENANT line
        assert_eq!(last.line, first);
        assert_eq!(last.partition.unwrap().0, first + 1);
        assert_eq!(last.arrival, 8);
        assert_eq!(
            last.session.host_ops,
            vec![(first + 3, HostOp::Write("a".into()))]
        );
        match &last.session.lines.items[0] {
            mealib_tdl::ItemLines::Pass(p) => {
                assert_eq!(p.header, first + 4);
                assert_eq!(p.comps, vec![first + 5]);
            }
            other => panic!("expected pass lines, got {other:?}"),
        }
        // A body error deep in the file names its manifest line too.
        let bad = "PASS in=a out=b {\n  COMP WAT params=\"x\"\n}\n";
        let err = parse_session_set(&many_tenants(n, bad)).unwrap_err();
        assert!(
            err.to_string().contains(&format!("line {}", first + 3)),
            "{err}"
        );
        let bad = "BUF a 0xffffffffffffffff 0x2\n";
        let err = parse_session_set(&many_tenants(n, bad)).unwrap_err();
        assert!(
            err.to_string().contains(&format!("line {}", first + 2)),
            "{err}"
        );
    }

    #[test]
    fn sniffer_spots_manifests_only() {
        assert!(looks_like_session_set(TWO_TENANTS));
        assert!(looks_like_session_set("x\nTENANT t\n"));
        assert!(!looks_like_session_set(
            "BUF a 0 16\nPASS in=a out=a {\n}\n"
        ));
        assert!(!looks_like_session_set("# TENANTs are described here\n"));
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        for bad in [
            "PASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n", // no TENANT
            "TENANT\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n",
            "TENANT a b\n",
            "PARTITION 0 16\nTENANT t\n", // before TENANT
            "ARRIVAL 5\nTENANT t\n",
            "TENANT t\nPARTITION 0 0\n", // empty partition
            "TENANT t\nPARTITION 0 16\nPARTITION 16 16\n", // duplicate
            "TENANT t\nARRIVAL 1\nARRIVAL 2\n",
            "TENANT t\nARRIVAL lots\n",
            "TENANT t\nTENANT t\n",   // duplicate name
            "TENANT t\nMEM XOR\n",    // tenant-level MEM
            "BUF a 0 16\nTENANT t\n", // session dir in header
            "TENANT t\nPASS in=a out=b {\n  COMP WAT params=\"x\"\n}\n", // TDL error
        ] {
            assert!(parse_session_set(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn header_mem_layer_is_shared() {
        let src = "MEM XOR\nTENANT t\nBUF a 0x1000 0x100\nBUF b 0x2000 0x100\nPASS in=a out=b \
                   {\n  COMP FFT params=\"f\"\n}\n";
        let set = parse_session_set(src).unwrap();
        assert_eq!(set.mem_layer.map(|(_, l)| l), Some(MemLayer::Xor));
        assert!(set.tenants[0].session.mem_layer.is_none());
    }
}
