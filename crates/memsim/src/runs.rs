//! Request → same-row run decoding, the one decoder behind the fast
//! engine ([`crate::engine::EngineKind::Fast`]) and the certified bounds
//! walk ([`crate::bounds`]).
//!
//! The cycle engine splits every request into burst-aligned chunks and
//! decodes each chunk's start address. A **run** is a maximal group of
//! consecutive bursts of one request whose start addresses fall inside
//! one contiguous `(unit, bank, row)` span, as advertised by
//! [`AddressMapping::contiguous_run_bytes`]. [`RunDecoder`] decodes
//! once per run, or once per *row stripe* on the bulk path, and derives
//! the burst boundaries inside a run by arithmetic. Concatenating the
//! runs in emission order reproduces the per-burst decode exactly: same
//! bursts, same locations, same order within each unit. Only the order
//! *across* units inside one request may differ, which no consumer
//! observes: engine state is per unit, and the bounds composer
//! snapshots at request granularity.
//!
//! # Compiled geometry
//!
//! The decoder compiles its mapping once into an `AddressGeometry`:
//! the power-of-two row and line sizes become shifts and masks, and the
//! unit count, bank count and burst size become `Divisor`s (shifts when
//! they are powers of two, divisions otherwise). Its `decode` and
//! `contiguous_run_bytes` equal the mapping's, which stay the reference
//! definitions; the cycle oracle decodes through those, so `DualCheck`
//! checks the compiled decode independently. A request inside a single
//! burst, like a scalar gather, is one run from one decode:
//! [`RunDecoder::one_burst`] returns it without building a [`Runs`]
//! iterator.
//!
//! # Row stripes
//!
//! On an interleaved layer a **super-line** is `units × line_bytes`
//! aligned bytes: one line on each unit, all at the same bank, row and
//! column. Inside a unit, super-line `s` sits at `within_unit =
//! s·line_bytes`, so the unit's lines of consecutive super-lines are
//! column-contiguous in one bank and row until the row ends. The XOR
//! unit fold only permutes units within a super-line, and its bank fold
//! keys on the row. A request that starts on a super-line boundary
//! therefore decodes `k` whole super-lines at once — `k = min(remaining
//! / super-line, (row_bytes − col_byte) / line_bytes)` — as one `k`-line
//! run per unit: certification and replay cost scale with row stripes,
//! not lines.

use crate::address::{AddressGeometry, AddressMapping, Divisor, Location};
use crate::timing::DramTiming;

/// Consecutive bursts of one request that share one `(unit, bank,
/// row)`, with column offsets advancing contiguously.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// Location of the run's first burst.
    pub loc: Location,
    /// Bytes of the first burst (it may start mid-burst).
    pub head: u64,
    /// Total bytes across the run's bursts.
    pub total: u64,
    /// Number of bursts in the run.
    pub bursts: u64,
}

/// Splits requests into [`Run`]s under one timing and mapping.
#[derive(Debug, Clone)]
pub struct RunDecoder {
    geometry: AddressGeometry,
    burst: Divisor,
    /// The super-line (`units × line_bytes`) when the bulk path applies.
    bulk: Option<Divisor>,
}

impl RunDecoder {
    /// A decoder for `mapping` with `timing`'s burst size.
    ///
    /// # Panics
    ///
    /// Panics on a configuration that does not validate.
    pub fn new(timing: &DramTiming, mapping: &AddressMapping) -> Self {
        let geometry = AddressGeometry::new(mapping);
        let burst = Divisor::new(timing.burst_bytes);
        let line_bytes = 1u64 << geometry.line_shift;
        let units = geometry.units.get();
        // Bulk-path eligibility: within one super-line (`units *
        // line_bytes`, line-aligned), every line has the same
        // `within_unit` offset — hence the same bank, row, and column —
        // and the lines land on `units` distinct units (the XOR unit
        // fold keys on `line / units`, constant across the super-line,
        // and is a permutation for power-of-two unit counts). One decode
        // therefore covers a whole aligned stretch of lines; only the
        // unit index varies, by the same fold `decode` applies.
        let bulk = match *mapping {
            AddressMapping::Interleaved { .. } | AddressMapping::XorInterleaved { .. }
                if units > 1
                    && burst.rem(line_bytes) == 0
                    && (!geometry.is_xor() || units.is_power_of_two()) =>
            {
                // A super-line past `u64` leaves the scalar path, which
                // needs no super-line.
                units.checked_mul(line_bytes).map(Divisor::new)
            }
            _ => None,
        };
        Self {
            geometry,
            burst,
            bulk,
        }
    }

    /// The runs of the request `[addr, addr + bytes)`, in burst order.
    #[inline]
    pub fn runs(&self, addr: u64, bytes: u64) -> Runs<'_> {
        Runs {
            decoder: self,
            addr,
            remaining: bytes,
            runs_left: 0,
            run_lines: 0,
            next_line: 0,
            hash: 0,
            line_loc: Location::default(),
        }
    }

    /// The one run of a nonempty request inside a single burst, from one
    /// decode and no iterator; `None` for any other request. Equal to
    /// the only item of [`runs`](Self::runs) whenever it is `Some`.
    #[inline]
    pub fn one_burst(&self, addr: u64, bytes: u64) -> Option<Run> {
        (bytes > 0 && bytes <= self.burst.get() - self.burst.rem(addr)).then(|| Run {
            loc: self.geometry.decode(addr),
            head: bytes,
            total: bytes,
            bursts: 1,
        })
    }
}

/// Iterator over the [`Run`]s of one request; see [`RunDecoder::runs`].
#[derive(Debug, Clone)]
pub struct Runs<'d> {
    decoder: &'d RunDecoder,
    /// First byte not yet emitted (past any pending bulk lines).
    addr: u64,
    /// Bytes from `addr` to the end of the request.
    remaining: u64,
    /// Bulk runs of the current decode still to emit, one per unit.
    runs_left: u64,
    /// Whole lines in each of those runs: `k` on a row stripe, else 1.
    run_lines: u64,
    /// Super-line position (`line % units`) of the next pending run.
    next_line: u64,
    /// XOR unit-fold key of the current (first) super-line.
    hash: u64,
    /// Bank, row, and column shared by the pending runs.
    line_loc: Location,
}

impl Iterator for Runs<'_> {
    type Item = Run;

    #[inline]
    fn next(&mut self) -> Option<Run> {
        let d = self.decoder;
        let g = &d.geometry;
        let (units, ls) = (g.units, g.line_shift);
        let line_bytes = 1u64 << ls;
        if self.runs_left == 0 {
            if self.remaining == 0 {
                return None;
            }
            match d.bulk {
                Some(super_line)
                    if self.addr & (line_bytes - 1) == 0 && self.remaining >= line_bytes =>
                {
                    // One decode for the aligned stretch; only the unit
                    // index varies across it, by the fold `decode`
                    // applies to line `j0 + j` of the first super-line
                    // (same hash). From a super-line boundary the
                    // stretch is a row stripe of `k` whole super-lines,
                    // emitted as one `k`-line run per unit (each unit's
                    // lines in the later super-lines follow at the next
                    // columns of the same bank and row); otherwise it is
                    // the lines up to the super-line's end.
                    let line = self.addr >> ls;
                    let j0 = units.rem(line);
                    self.line_loc = g.decode(self.addr);
                    let k = if j0 == 0 {
                        super_line
                            .div(self.remaining)
                            .min(((1u64 << g.row_shift) - self.line_loc.col_byte) >> ls)
                    } else {
                        0
                    };
                    let (runs, lines) = if k > 0 {
                        (units.get(), k)
                    } else {
                        ((self.remaining >> ls).min(units.get() - j0), 1)
                    };
                    self.runs_left = runs;
                    self.run_lines = lines;
                    self.next_line = j0;
                    self.hash = units.div(line);
                    self.addr += (runs * lines) << ls;
                    self.remaining -= (runs * lines) << ls;
                }
                _ => return Some(self.scalar_run()),
            }
        }
        let j = self.next_line;
        let unit = if g.is_xor() {
            units.rem(j ^ self.hash) as usize
        } else {
            j as usize
        };
        self.next_line += 1;
        self.runs_left -= 1;
        let total = self.run_lines << ls;
        Some(Run {
            loc: Location {
                unit,
                ..self.line_loc
            },
            head: d.burst.get(),
            total,
            bursts: d.burst.div(total),
        })
    }
}

impl Runs<'_> {
    /// The run starting at `addr` outside the bulk path: one decode,
    /// then burst arithmetic to the end of the contiguous span.
    #[inline]
    fn scalar_run(&mut self) -> Run {
        let d = self.decoder;
        let bb = d.burst;
        let (addr, remaining) = (self.addr, self.remaining);
        let loc = d.geometry.decode(addr);
        // First burst: up to the next burst-aligned boundary. It is
        // attributed wholly to `loc` even if it extends past the span —
        // exactly what the per-burst decode does, which decodes each
        // burst at its *start* address.
        let head = (bb.get() - bb.rem(addr)).min(remaining);
        // Further bursts join the run while their start addresses stay
        // inside the span (and inside the request). A request that ends
        // inside its first burst needs no span at all — the common case
        // for scalar gathers.
        let extra = if remaining > head {
            let reach = d.geometry.contiguous_run_bytes(addr).min(remaining);
            if reach > head {
                bb.div_ceil(reach - head)
            } else {
                0
            }
        } else {
            0
        };
        let total = remaining.min(head + extra * bb.get());
        self.addr += total;
        self.remaining -= total;
        Run {
            loc,
            head,
            total,
            bursts: 1 + extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    #[test]
    fn row_stripes_decode_once_per_unit() {
        // One 128 KiB row stripe on hmc_stack is one 16-line run per
        // unit; the next super-line boundary past a row end starts the
        // next stripe.
        let c = MemoryConfig::hmc_stack();
        let decoder = RunDecoder::new(&c.timing, &c.mapping);
        let runs: Vec<Run> = decoder.runs(1 << 23, 128 << 10).collect();
        assert_eq!(runs.len(), c.mapping.units());
        assert!(runs
            .iter()
            .all(|r| r.total == 16 * 256 && r.loc.col_byte == 0));
        let runs: Vec<Run> = decoder.runs((1 << 23) + 12 * 8192, 8 * 8192).collect();
        assert_eq!(runs.len(), 2 * c.mapping.units());
        assert!(runs.iter().all(|r| r.total == 4 * 256));
    }
}
