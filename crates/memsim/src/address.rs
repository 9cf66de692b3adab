//! Physical address decoding.
//!
//! Modern systems interleave one physical page across channels at
//! cache-block granularity, which is exactly what the paper had to defeat
//! to dedicate one DIMM to the emulated stack: removing a DIMM switches
//! the controller to *asymmetric* mode, where the high address range is
//! served by a single channel (§4.2). Both modes are modeled here, plus
//! the vault interleaving used inside the stacked device.

use mealib_types::PhysAddr;

/// Where a physical address lands inside a memory device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Location {
    /// Channel (DIMM system) or vault (stacked device) index.
    pub unit: usize,
    /// Bank within the unit.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub col_byte: u64,
}

/// A physical-address → device-location mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressMapping {
    /// Cache-block-granularity interleaving across `units`
    /// channels/vaults; rows rotate across `banks_per_unit` banks.
    Interleaved {
        /// Number of channels or vaults.
        units: usize,
        /// Banks per channel/vault.
        banks_per_unit: usize,
        /// Row-buffer size in bytes.
        row_bytes: u64,
        /// Interleaving granularity (typically one cache line).
        line_bytes: u64,
    },
    /// Cache-block interleaving with XOR bank/channel hashing: the unit
    /// and bank indices are XOR-folded with higher address bits, breaking
    /// the power-of-two stride aliasing that pins strided walks to one
    /// channel (a standard controller technique; the ablation harness
    /// shows what it buys).
    XorInterleaved {
        /// Number of channels or vaults.
        units: usize,
        /// Banks per channel/vault.
        banks_per_unit: usize,
        /// Row-buffer size in bytes.
        row_bytes: u64,
        /// Interleaving granularity (typically one cache line).
        line_bytes: u64,
    },
    /// The asymmetric mode of §4.2: addresses below `split` interleave
    /// across the first `low_units` units; addresses at or above `split`
    /// map, contiguously, to the single unit `low_units` (the dedicated
    /// DIMM that emulates the memory stack).
    Asymmetric {
        /// Units serving the interleaved low region.
        low_units: usize,
        /// Banks per unit (same for all units).
        banks_per_unit: usize,
        /// Row-buffer size in bytes.
        row_bytes: u64,
        /// Interleaving granularity for the low region.
        line_bytes: u64,
        /// First address of the single-channel high region.
        split: PhysAddr,
    },
}

impl AddressMapping {
    /// Number of addressable units (channels/vaults).
    pub fn units(&self) -> usize {
        match *self {
            AddressMapping::Interleaved { units, .. }
            | AddressMapping::XorInterleaved { units, .. } => units,
            AddressMapping::Asymmetric { low_units, .. } => low_units + 1,
        }
    }

    /// Banks per unit.
    pub fn banks_per_unit(&self) -> usize {
        match *self {
            AddressMapping::Interleaved { banks_per_unit, .. }
            | AddressMapping::XorInterleaved { banks_per_unit, .. }
            | AddressMapping::Asymmetric { banks_per_unit, .. } => banks_per_unit,
        }
    }

    /// Row-buffer size in bytes.
    pub fn row_bytes(&self) -> u64 {
        match *self {
            AddressMapping::Interleaved { row_bytes, .. }
            | AddressMapping::XorInterleaved { row_bytes, .. }
            | AddressMapping::Asymmetric { row_bytes, .. } => row_bytes,
        }
    }

    /// Decodes a physical address into its device location.
    pub fn decode(&self, addr: PhysAddr) -> Location {
        match *self {
            AddressMapping::Interleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            } => decode_interleaved(addr.get(), units, banks_per_unit, row_bytes, line_bytes),
            AddressMapping::XorInterleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            } => {
                let mut loc =
                    decode_interleaved(addr.get(), units, banks_per_unit, row_bytes, line_bytes);
                // Fold higher address bits into the unit and bank
                // indices. Each fold must key only on coordinates it does
                // not itself move, or the mapping loses capacity: the
                // unit fold keys on the line index above the unit
                // selector (which fixes bank/row/col), the bank fold on
                // the row index. With power-of-two unit and bank counts
                // both folds are permutations, so the mapping stays
                // bijective — `mealib-verify`'s MEA024 proof checks this.
                let hash = addr.get() / line_bytes / units as u64;
                loc.unit = ((loc.unit as u64 ^ hash) % units as u64) as usize;
                loc.bank = ((loc.bank as u64 ^ loc.row) % banks_per_unit as u64) as usize;
                loc
            }
            AddressMapping::Asymmetric {
                low_units,
                banks_per_unit,
                row_bytes,
                line_bytes,
                split,
            } => {
                if addr < split {
                    decode_interleaved(addr.get(), low_units, banks_per_unit, row_bytes, line_bytes)
                } else {
                    let within = addr.get() - split.get();
                    let mut loc =
                        decode_interleaved(within, 1, banks_per_unit, row_bytes, line_bytes);
                    loc.unit = low_units;
                    loc
                }
            }
        }
    }

    /// Unit (channel/vault) index `addr` maps to. Shorthand for
    /// [`decode`](Self::decode)`.unit`, used when partitioning a trace
    /// across per-unit workers.
    pub fn unit_of(&self, addr: PhysAddr) -> usize {
        self.decode(addr).unit
    }

    /// Number of bytes starting at `addr` (inclusive) that are
    /// guaranteed to decode into one contiguous span of a single
    /// `(unit, bank, row)`: for every `d` below the returned value,
    /// `decode(addr + d)` has the same unit, bank, and row as
    /// `decode(addr)` and `col_byte` exactly `d` larger.
    ///
    /// This is the distance to the next interleave boundary (or row
    /// boundary, when a single unit serves the region, or the
    /// asymmetric split). The run decoder behind the fast engine and
    /// the bounds walk uses its compiled twin (`AddressGeometry`) to
    /// decode whole same-row runs with a single decode; the guarantee
    /// above is what keeps that batched decode bit-exact with the
    /// per-burst decode, and is property-checked in tests.
    pub fn contiguous_run_bytes(&self, addr: PhysAddr) -> u64 {
        match *self {
            AddressMapping::Interleaved {
                units,
                row_bytes,
                line_bytes,
                ..
            }
            | AddressMapping::XorInterleaved {
                units,
                row_bytes,
                line_bytes,
                ..
            } => {
                // A single unit keeps contiguous addresses in one row
                // until the row boundary; interleaving breaks the span
                // at the next line boundary.
                if units == 1 {
                    row_bytes - addr.get() % row_bytes
                } else {
                    line_bytes - addr.get() % line_bytes
                }
            }
            AddressMapping::Asymmetric {
                low_units,
                row_bytes,
                line_bytes,
                split,
                ..
            } => {
                if addr < split {
                    let span = if low_units == 1 {
                        row_bytes - addr.get() % row_bytes
                    } else {
                        line_bytes - addr.get() % line_bytes
                    };
                    // A span must never cross the split: the high
                    // region decodes under a different scheme.
                    span.min(split.get() - addr.get())
                } else {
                    // The dedicated high region is a single contiguous
                    // unit addressed relative to the split.
                    let within = addr.get() - split.get();
                    row_bytes - within % row_bytes
                }
            }
        }
    }

    /// Returns `true` if `addr` falls in a region that is physically
    /// contiguous within a single unit (what the accelerators require).
    pub fn is_single_unit(&self, addr: PhysAddr) -> bool {
        match *self {
            AddressMapping::Interleaved { units, .. }
            | AddressMapping::XorInterleaved { units, .. } => units == 1,
            AddressMapping::Asymmetric { split, .. } => addr >= split,
        }
    }

    /// Validates structural parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`mealib_types::ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), mealib_types::ConfigError> {
        use mealib_types::ConfigError;
        let (units, banks, row, line) = self.interleave();
        if units == 0 {
            return Err(ConfigError::new("units", "must be nonzero"));
        }
        if banks == 0 {
            return Err(ConfigError::new("banks_per_unit", "must be nonzero"));
        }
        if !row.is_power_of_two() {
            return Err(ConfigError::new("row_bytes", "must be a power of two"));
        }
        if !line.is_power_of_two() || line > row {
            return Err(ConfigError::new(
                "line_bytes",
                "must be a power of two no larger than row_bytes",
            ));
        }
        Ok(())
    }

    /// `(units, banks_per_unit, row_bytes, line_bytes)` of the
    /// interleaved layer (the low region's, on the asymmetric mapping).
    fn interleave(&self) -> (usize, usize, u64, u64) {
        match *self {
            AddressMapping::Interleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            }
            | AddressMapping::XorInterleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            } => (units, banks_per_unit, row_bytes, line_bytes),
            AddressMapping::Asymmetric {
                low_units,
                banks_per_unit,
                row_bytes,
                line_bytes,
                ..
            } => (low_units, banks_per_unit, row_bytes, line_bytes),
        }
    }
}

/// The reference decode of one interleaved layer: plain `u64` division
/// and modulo, the definition [`AddressGeometry`] is checked against.
fn decode_interleaved(
    addr: u64,
    units: usize,
    banks_per_unit: usize,
    row_bytes: u64,
    line_bytes: u64,
) -> Location {
    let line = addr / line_bytes;
    let unit = (line % units as u64) as usize;
    let within_unit = (line / units as u64) * line_bytes + addr % line_bytes;
    let global_row = within_unit / row_bytes;
    let bank = (global_row % banks_per_unit as u64) as usize;
    Location {
        unit,
        bank,
        row: global_row / banks_per_unit as u64,
        col_byte: within_unit % row_bytes,
    }
}

/// A divisor compiled once: a shift and a mask when it is a power of
/// two, a hardware division otherwise. The branch is fixed per divisor,
/// so it predicts perfectly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    shift: u32,
    pow2: bool,
}

impl Divisor {
    /// Division by one: the identity.
    const ONE: Divisor = Divisor::new(1);

    /// Compiles the nonzero divisor `d`.
    pub(crate) const fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be nonzero");
        Self {
            d,
            shift: d.trailing_zeros(),
            pow2: d.is_power_of_two(),
        }
    }

    /// The divisor itself.
    #[inline]
    pub(crate) fn get(self) -> u64 {
        self.d
    }

    /// `x / d`.
    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        if self.pow2 {
            x >> self.shift
        } else {
            x / self.d
        }
    }

    /// `x % d`.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        if self.pow2 {
            x & (self.d - 1)
        } else {
            x % self.d
        }
    }

    /// `x.div_ceil(d)`, without the `x + d - 1` overflow.
    #[inline]
    pub(crate) fn div_ceil(self, x: u64) -> u64 {
        self.div(x) + u64::from(self.rem(x) != 0)
    }
}

/// Which fold a compiled mapping applies on top of the interleaved
/// decode.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Interleaved,
    Xor,
    /// `split` and the dedicated unit's index (`low_units`).
    Asymmetric {
        split: u64,
        high_unit: usize,
    },
}

/// An [`AddressMapping`] compiled for repeated decoding: `row_bytes` and
/// `line_bytes` (validated powers of two) become shifts and masks, and
/// the unit and bank counts become [`Divisor`]s. [`decode`](Self::decode)
/// and [`contiguous_run_bytes`](Self::contiguous_run_bytes) equal the
/// mapping's own methods on every address (property-checked below);
/// [`AddressMapping::decode`] stays the reference definition.
#[derive(Debug, Clone)]
pub(crate) struct AddressGeometry {
    scheme: Scheme,
    /// Interleaved units (the low region's, on the asymmetric layer).
    pub(crate) units: Divisor,
    banks: Divisor,
    /// `log2(line_bytes)`.
    pub(crate) line_shift: u32,
    /// `log2(row_bytes)`.
    pub(crate) row_shift: u32,
    /// Shift of the span one contiguous run may cover on the
    /// interleaved region: the row on a single unit, else the line.
    span_shift: u32,
}

impl AddressGeometry {
    /// Compiles `mapping`.
    ///
    /// # Panics
    ///
    /// Panics on a mapping [`AddressMapping::validate`] rejects.
    pub(crate) fn new(mapping: &AddressMapping) -> Self {
        mapping.validate().expect("compiling a validated mapping");
        let (units, banks, row_bytes, line_bytes) = mapping.interleave();
        let scheme = match *mapping {
            AddressMapping::Interleaved { .. } => Scheme::Interleaved,
            AddressMapping::XorInterleaved { .. } => Scheme::Xor,
            AddressMapping::Asymmetric { split, .. } => Scheme::Asymmetric {
                split: split.get(),
                high_unit: units,
            },
        };
        let (line_shift, row_shift) = (line_bytes.trailing_zeros(), row_bytes.trailing_zeros());
        Self {
            scheme,
            units: Divisor::new(units as u64),
            banks: Divisor::new(banks as u64),
            line_shift,
            row_shift,
            span_shift: if units == 1 { row_shift } else { line_shift },
        }
    }

    /// Whether the XOR unit and bank folds apply.
    #[inline]
    pub(crate) fn is_xor(&self) -> bool {
        matches!(self.scheme, Scheme::Xor)
    }

    /// [`AddressMapping::decode`], compiled.
    #[inline]
    pub(crate) fn decode(&self, addr: u64) -> Location {
        match self.scheme {
            Scheme::Interleaved => self.interleaved(addr, self.units),
            Scheme::Xor => {
                let mut loc = self.interleaved(addr, self.units);
                // The folds of `AddressMapping::decode`: the unit keys on
                // the line index above the unit selector, the bank on
                // the row.
                let hash = self.units.div(addr >> self.line_shift);
                loc.unit = self.units.rem(loc.unit as u64 ^ hash) as usize;
                loc.bank = self.banks.rem(loc.bank as u64 ^ loc.row) as usize;
                loc
            }
            Scheme::Asymmetric { split, .. } if addr < split => self.interleaved(addr, self.units),
            Scheme::Asymmetric { split, high_unit } => {
                let mut loc = self.interleaved(addr - split, Divisor::ONE);
                loc.unit = high_unit;
                loc
            }
        }
    }

    /// [`AddressMapping::contiguous_run_bytes`], compiled.
    #[inline]
    pub(crate) fn contiguous_run_bytes(&self, addr: u64) -> u64 {
        let span = |a: u64, shift: u32| (1u64 << shift) - (a & ((1u64 << shift) - 1));
        match self.scheme {
            Scheme::Asymmetric { split, .. } if addr >= split => span(addr - split, self.row_shift),
            Scheme::Asymmetric { split, .. } => span(addr, self.span_shift).min(split - addr),
            Scheme::Interleaved | Scheme::Xor => span(addr, self.span_shift),
        }
    }

    /// [`decode_interleaved`] over `units`, with shifts for the line and
    /// row sizes.
    #[inline]
    fn interleaved(&self, addr: u64, units: Divisor) -> Location {
        let line = addr >> self.line_shift;
        let line_mask = (1u64 << self.line_shift) - 1;
        let within_unit = (units.div(line) << self.line_shift) | (addr & line_mask);
        let global_row = within_unit >> self.row_shift;
        Location {
            unit: units.rem(line) as usize,
            bank: self.banks.rem(global_row) as usize,
            row: self.banks.div(global_row),
            col_byte: within_unit & ((1u64 << self.row_shift) - 1),
        }
    }
}

impl Location {
    /// Returns `true` if two locations share a bank (and therefore a row
    /// buffer).
    pub fn same_bank(&self, other: &Location) -> bool {
        self.unit == other.unit && self.bank == other.bank
    }
}

/// Convenience constructor for the interleaved dual-channel DIMM system
/// of the evaluation machine (2 channels, 8 banks, 8 KiB rows, 64 B
/// lines).
pub fn dual_channel_dimms() -> AddressMapping {
    AddressMapping::Interleaved {
        units: 2,
        banks_per_unit: 8,
        row_bytes: 8192,
        line_bytes: 64,
    }
}

/// Convenience constructor for the asymmetric-mode system of §4.2: two
/// interleaved DIMMs below `split`, one dedicated contiguous DIMM above.
pub fn asymmetric_dimms(split: PhysAddr) -> AddressMapping {
    AddressMapping::Asymmetric {
        low_units: 2,
        banks_per_unit: 8,
        row_bytes: 8192,
        line_bytes: 64,
        split,
    }
}

/// Convenience constructor for the 32-vault stacked device (256 B rows per
/// the DRAM-optimized accelerator literature the paper builds on).
pub fn hmc_vaults() -> AddressMapping {
    AddressMapping::Interleaved {
        units: 32,
        banks_per_unit: 8,
        row_bytes: 4096,
        line_bytes: 256,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_types::Bytes as B;

    #[test]
    fn consecutive_lines_alternate_channels() {
        let m = dual_channel_dimms();
        let a = m.decode(PhysAddr::new(0));
        let b = m.decode(PhysAddr::new(64));
        let c = m.decode(PhysAddr::new(128));
        assert_eq!(a.unit, 0);
        assert_eq!(b.unit, 1);
        assert_eq!(c.unit, 0);
    }

    #[test]
    fn bytes_within_a_line_stay_put() {
        let m = dual_channel_dimms();
        let a = m.decode(PhysAddr::new(64));
        let b = m.decode(PhysAddr::new(64 + 63));
        assert_eq!(a.unit, b.unit);
        assert_eq!(a.row, b.row);
        assert_eq!(b.col_byte, a.col_byte + 63);
    }

    #[test]
    fn sequential_addresses_fill_row_before_advancing() {
        let m = AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 2,
            row_bytes: 256,
            line_bytes: 64,
        };
        let first = m.decode(PhysAddr::new(0));
        let last_in_row = m.decode(PhysAddr::new(255));
        let next_row = m.decode(PhysAddr::new(256));
        assert_eq!(first.row, last_in_row.row);
        assert_eq!(first.bank, last_in_row.bank);
        // Next row rotates to the other bank.
        assert_ne!(next_row.bank, first.bank);
    }

    #[test]
    fn asymmetric_high_region_is_single_unit_and_contiguous() {
        let split = PhysAddr::new(8 << 30);
        let m = asymmetric_dimms(split);
        assert!(!m.is_single_unit(PhysAddr::new(0)));
        assert!(m.is_single_unit(split));
        let a = m.decode(split);
        let b = m.decode(split + B::from_kib(4));
        assert_eq!(a.unit, 2);
        assert_eq!(b.unit, 2);
        assert_eq!(a.row, 0);
        assert_eq!(a.col_byte, 0);
        // 4 KiB into an 8 KiB row: same row, same bank.
        assert_eq!(b.row, a.row);
        assert!(b.same_bank(&a));
    }

    #[test]
    fn asymmetric_low_region_still_interleaves() {
        let m = asymmetric_dimms(PhysAddr::new(1 << 30));
        assert_eq!(m.decode(PhysAddr::new(0)).unit, 0);
        assert_eq!(m.decode(PhysAddr::new(64)).unit, 1);
        assert_eq!(m.units(), 3);
    }

    #[test]
    fn unit_of_matches_decode() {
        let maps = [
            dual_channel_dimms(),
            asymmetric_dimms(PhysAddr::new(1 << 20)),
            hmc_vaults(),
        ];
        for m in &maps {
            for i in 0..4096u64 {
                let addr = PhysAddr::new(i * 97);
                assert_eq!(m.unit_of(addr), m.decode(addr).unit);
            }
        }
    }

    #[test]
    fn hmc_mapping_spreads_across_vaults() {
        let m = hmc_vaults();
        let units: std::collections::HashSet<usize> = (0..32u64)
            .map(|i| m.decode(PhysAddr::new(i * 256)).unit)
            .collect();
        assert_eq!(units.len(), 32, "32 consecutive blocks hit all 32 vaults");
    }

    #[test]
    fn xor_hashing_breaks_stride_aliasing() {
        // A stride equal to line*units pins the plain mapping to one
        // channel; the XOR mapping spreads it.
        let plain = dual_channel_dimms();
        let hashed = AddressMapping::XorInterleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        let stride = 64 * 2; // aliases on the plain mapping
        let plain_units: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| plain.decode(PhysAddr::new(i * stride)).unit)
            .collect();
        let hashed_units: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| hashed.decode(PhysAddr::new(i * stride)).unit)
            .collect();
        assert_eq!(plain_units.len(), 1, "plain mapping aliases to one channel");
        assert_eq!(hashed_units.len(), 2, "XOR mapping uses both channels");
    }

    #[test]
    fn xor_mapping_is_a_valid_mapping() {
        let hashed = AddressMapping::XorInterleaved {
            units: 4,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 64,
        };
        assert!(hashed.validate().is_ok());
        assert_eq!(hashed.units(), 4);
        // Decoding stays in range over a large span.
        for i in 0..10_000u64 {
            let loc = hashed.decode(PhysAddr::new(i * 191));
            assert!(loc.unit < 4);
            assert!(loc.bank < 8);
        }
    }

    #[test]
    fn contiguous_runs_decode_contiguously() {
        // The guarantee the fast engine's batched decode rests on:
        // every byte inside the advertised span shares the first
        // byte's (unit, bank, row) and advances col_byte linearly.
        let maps = [
            dual_channel_dimms(),
            hmc_vaults(),
            asymmetric_dimms(PhysAddr::new((1 << 20) + 96)), // unaligned split
            AddressMapping::Interleaved {
                units: 1,
                banks_per_unit: 4,
                row_bytes: 1024,
                line_bytes: 64,
            },
            AddressMapping::XorInterleaved {
                units: 4,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 64,
            },
            AddressMapping::XorInterleaved {
                units: 1,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 64,
            },
        ];
        for m in &maps {
            for i in 0..2048u64 {
                // Sample addresses around the asymmetric split and at
                // odd offsets, not just line-aligned ones.
                let addr = PhysAddr::new((1 << 20) - 1024 + i * 37);
                let run = m.contiguous_run_bytes(addr);
                assert!(run >= 1, "{m:?}: empty run at {addr:?}");
                let base = m.decode(addr);
                for d in [1, run / 2, run - 1] {
                    if d == 0 || d >= run {
                        continue;
                    }
                    let loc = m.decode(PhysAddr::new(addr.get() + d));
                    assert_eq!(loc.unit, base.unit, "{m:?} at {addr:?} + {d}");
                    assert_eq!(loc.bank, base.bank, "{m:?} at {addr:?} + {d}");
                    assert_eq!(loc.row, base.row, "{m:?} at {addr:?} + {d}");
                    assert_eq!(loc.col_byte, base.col_byte + d, "{m:?} at {addr:?} + {d}");
                }
            }
        }
    }

    /// A random valid mapping of each kind, with power-of-two and
    /// other unit and bank counts and an off-grid asymmetric split.
    fn mapping_strategy() -> impl proptest::strategy::Strategy<Value = AddressMapping> {
        use proptest::prelude::*;
        (
            0u8..3,
            1usize..=40,
            1usize..=17,
            6u32..=14,
            0u32..=8,
            0u64..(1 << 48),
        )
            .prop_map(|(kind, units, banks, row_shift, line_down, split)| {
                let row_bytes = 1u64 << row_shift;
                let line_bytes = row_bytes >> line_down.min(row_shift);
                match kind {
                    0 => AddressMapping::Interleaved {
                        units,
                        banks_per_unit: banks,
                        row_bytes,
                        line_bytes,
                    },
                    1 => AddressMapping::XorInterleaved {
                        units,
                        banks_per_unit: banks,
                        row_bytes,
                        line_bytes,
                    },
                    _ => AddressMapping::Asymmetric {
                        low_units: units % 5 + 1,
                        banks_per_unit: banks,
                        row_bytes,
                        line_bytes,
                        split: PhysAddr::new(split),
                    },
                }
            })
    }

    /// The compiled decode equals the reference on `addr` and on the
    /// addresses around it.
    fn assert_compiled_matches(m: &AddressMapping, addr: u64) {
        let g = AddressGeometry::new(m);
        for a in [addr, addr.saturating_sub(1), addr.saturating_add(1)] {
            let pa = PhysAddr::new(a);
            assert_eq!(g.decode(a), m.decode(pa), "{m:?} at {a:#x}");
            assert_eq!(
                g.contiguous_run_bytes(a),
                m.contiguous_run_bytes(pa),
                "{m:?} at {a:#x}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn compiled_geometry_equals_the_reference_decode(
            m in mapping_strategy(),
            addrs in proptest::collection::vec(0u64..(1 << 48), 1..32),
        ) {
            assert!(m.validate().is_ok(), "{m:?}");
            for &addr in &addrs {
                assert_compiled_matches(&m, addr);
            }
            // Straddle the asymmetric split too.
            if let AddressMapping::Asymmetric { split, .. } = m {
                assert_compiled_matches(&m, split.get());
            }
        }
    }

    #[test]
    fn compiled_geometry_equals_the_reference_on_every_preset() {
        use crate::config::MemoryConfig;
        let mut maps = vec![
            dual_channel_dimms(),
            asymmetric_dimms(PhysAddr::new((8 << 30) + 96)),
            hmc_vaults(),
        ];
        for c in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::hmc_stack_gen1(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
        ] {
            maps.push(c.mapping);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for m in &maps {
            for i in 0..4096u64 {
                // Dense low addresses, then a 64-bit LCG folded to 2^48.
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                assert_compiled_matches(m, i * 29);
                assert_compiled_matches(m, x >> 16);
            }
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let m = AddressMapping::Interleaved {
            units: 0,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 64,
        };
        assert_eq!(m.validate().unwrap_err().parameter(), "units");
        let m = AddressMapping::Interleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 8192,
        };
        assert_eq!(m.validate().unwrap_err().parameter(), "line_bytes");
        assert!(dual_channel_dimms().validate().is_ok());
        assert!(hmc_vaults().validate().is_ok());
    }
}
