//! Request → same-row run decoding, the one decoder behind the fast
//! engine ([`crate::engine::EngineKind::Fast`]) and the certified bounds
//! walk ([`crate::bounds`]).
//!
//! The cycle engine splits every request into burst-aligned chunks and
//! decodes each chunk's start address. A **run** is a maximal group of
//! consecutive bursts of one request whose start addresses fall inside
//! one contiguous `(unit, bank, row)` span, as advertised by
//! [`AddressMapping::contiguous_run_bytes`]. [`RunDecoder`] calls
//! [`AddressMapping::decode`] once per run — or once per aligned
//! super-line of whole lines on the bulk path — and derives the burst
//! boundaries inside a run by arithmetic. Concatenating the runs in
//! emission order reproduces the per-burst decode exactly: same bursts,
//! same locations, same order within each unit.

use mealib_types::PhysAddr;

use crate::address::{AddressMapping, Location};
use crate::timing::DramTiming;

/// Consecutive bursts of one request that share one `(unit, bank,
/// row)`, with column offsets advancing contiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Location of the run's first burst.
    pub loc: Location,
    /// Bytes of the first burst (it may start mid-burst).
    pub head: u64,
    /// Total bytes across the run's bursts.
    pub total: u64,
    /// Number of bursts in the run.
    pub bursts: u64,
    /// `true` for runs of whole, burst-aligned lines from the bulk
    /// path: such a run may be coalesced with a column-contiguous
    /// predecessor without changing the burst arithmetic.
    pub whole_lines: bool,
}

/// Splits requests into [`Run`]s under one timing and mapping.
#[derive(Debug, Clone)]
pub struct RunDecoder<'a> {
    mapping: &'a AddressMapping,
    burst_bytes: u64,
    /// `(units, line_bytes, xor)` when the bulk super-line path applies.
    bulk: Option<(u64, u64, bool)>,
}

impl<'a> RunDecoder<'a> {
    /// A decoder for `mapping` with `timing`'s burst size. Expects a
    /// validated configuration.
    pub fn new(timing: &DramTiming, mapping: &'a AddressMapping) -> Self {
        let burst_bytes = timing.burst_bytes;
        // Bulk-path eligibility: within one super-line (`units *
        // line_bytes`, line-aligned), every line has the same
        // `within_unit` offset — hence the same bank, row, and column —
        // and the lines land on `units` distinct units (the XOR unit
        // fold keys on `line / units`, constant across the super-line,
        // and is a permutation for power-of-two unit counts). One decode
        // therefore covers a whole aligned stretch of lines; only the
        // unit index varies, by the same fold `decode` applies.
        let bulk = match *mapping {
            AddressMapping::Interleaved {
                units, line_bytes, ..
            } if units > 1 && line_bytes % burst_bytes == 0 => {
                Some((units as u64, line_bytes, false))
            }
            AddressMapping::XorInterleaved {
                units, line_bytes, ..
            } if units > 1 && units.is_power_of_two() && line_bytes % burst_bytes == 0 => {
                Some((units as u64, line_bytes, true))
            }
            _ => None,
        };
        Self {
            mapping,
            burst_bytes,
            bulk,
        }
    }

    /// Bytes one decode covers on long aligned requests: a line on the
    /// bulk path, else a burst. Callers size run buffers with it.
    pub fn granule(&self) -> u64 {
        self.bulk
            .map_or(self.burst_bytes, |(_, line_bytes, _)| line_bytes)
    }

    /// The runs of the request `[addr, addr + bytes)`, in burst order.
    #[inline]
    pub fn runs(&self, addr: u64, bytes: u64) -> Runs<'_> {
        Runs {
            decoder: self,
            addr,
            remaining: bytes,
            lines_left: 0,
            next_line: 0,
            hash: 0,
            line_loc: Location {
                unit: 0,
                bank: 0,
                row: 0,
                col_byte: 0,
            },
        }
    }
}

/// Iterator over the [`Run`]s of one request; see [`RunDecoder::runs`].
#[derive(Debug, Clone)]
pub struct Runs<'d> {
    decoder: &'d RunDecoder<'d>,
    /// First byte not yet emitted (past any pending bulk lines).
    addr: u64,
    /// Bytes from `addr` to the end of the request.
    remaining: u64,
    /// Whole lines of the current super-line still to emit.
    lines_left: u64,
    /// Super-line position (`line % units`) of the next pending line.
    next_line: u64,
    /// XOR unit-fold key of the current super-line.
    hash: u64,
    /// Bank, row, and column shared by the super-line's lines.
    line_loc: Location,
}

impl Iterator for Runs<'_> {
    type Item = Run;

    #[inline]
    fn next(&mut self) -> Option<Run> {
        let d = self.decoder;
        let bb = d.burst_bytes;
        if self.lines_left == 0 {
            if self.remaining == 0 {
                return None;
            }
            match d.bulk {
                Some((units, line_bytes, _))
                    if self.addr.is_multiple_of(line_bytes) && self.remaining >= line_bytes =>
                {
                    // One decode for the aligned stretch of lines up to
                    // the super-line's end; only the unit index varies
                    // across it, by the fold `decode` applies to line
                    // `j0 + j` (same hash, same super-line).
                    let line = self.addr / line_bytes;
                    let j0 = line % units;
                    let m = (self.remaining / line_bytes).min(units - j0);
                    self.line_loc = d.mapping.decode(PhysAddr::new(self.addr));
                    self.lines_left = m;
                    self.next_line = j0;
                    self.hash = line / units;
                    self.addr += m * line_bytes;
                    self.remaining -= m * line_bytes;
                }
                _ => return Some(self.scalar_run()),
            }
        }
        let (units, line_bytes, xor) = d.bulk.expect("pending lines come from the bulk path");
        let j = self.next_line;
        let unit = if xor {
            ((j ^ self.hash) % units) as usize
        } else {
            j as usize
        };
        self.next_line += 1;
        self.lines_left -= 1;
        Some(Run {
            loc: Location {
                unit,
                ..self.line_loc
            },
            head: bb,
            total: line_bytes,
            bursts: line_bytes / bb,
            whole_lines: true,
        })
    }
}

impl Runs<'_> {
    /// The run starting at `addr` outside the bulk path: one decode,
    /// then burst arithmetic to the end of the contiguous span.
    #[inline]
    fn scalar_run(&mut self) -> Run {
        let d = self.decoder;
        let bb = d.burst_bytes;
        let (addr, remaining) = (self.addr, self.remaining);
        let loc = d.mapping.decode(PhysAddr::new(addr));
        // First burst: up to the next burst-aligned boundary. It is
        // attributed wholly to `loc` even if it extends past the span —
        // exactly what the per-burst decode does, which decodes each
        // burst at its *start* address.
        let head = (bb - addr % bb).min(remaining);
        // Further bursts join the run while their start addresses stay
        // inside the span (and inside the request). A request that ends
        // inside its first burst needs no span at all — the common case
        // for scalar gathers.
        let extra = if remaining > head {
            let reach = d
                .mapping
                .contiguous_run_bytes(PhysAddr::new(addr))
                .min(remaining);
            if reach > head {
                (reach - head).div_ceil(bb)
            } else {
                0
            }
        } else {
            0
        };
        let total = remaining.min(head + extra * bb);
        self.addr += total;
        self.remaining -= total;
        Run {
            loc,
            head,
            total,
            bursts: 1 + extra,
            whole_lines: false,
        }
    }
}
