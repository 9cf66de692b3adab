//! The run-granular bounds walk against the per-burst reference.
//!
//! [`per_burst_trace_bounds`] is the original certified walk: it splits
//! every request into burst-aligned chunks, decodes each chunk, and
//! steps the row automaton once per burst — the engine's own burst
//! stream, visited one burst at a time. The library's
//! [`trace_bounds`] walks same-row runs instead. The proptest below
//! holds the two equal field by field, to the bit, on random traces
//! over every mapping shape: interleaved with one unit and with many,
//! XOR-hashed, asymmetric with an unaligned split, lines that are not a
//! whole number of bursts, the HMC stack and its XOR twin, the
//! asymmetric DIMM layer; and unaligned, sub-burst, split-straddling and
//! row-stripe requests (16 KiB to 1 MiB, from a super-line boundary
//! anywhere in a row, ending mid-stripe).

use mealib_memsim::address::AddressMapping;
use mealib_memsim::bounds::{trace_bounds, BoundsWalk, TraceBounds};
use mealib_memsim::engine::{Op, Request};
use mealib_memsim::{MemoryConfig, TraceBuffer};
use mealib_types::{Interval, PhysAddr, Seconds};
use proptest::prelude::*;

/// The per-burst reference walk: one `decode` and one row-automaton
/// step per burst.
fn per_burst_trace_bounds(config: &MemoryConfig, trace: &TraceBuffer) -> TraceBounds {
    config.validate().expect("valid config");
    let t = &config.timing;
    let m = &config.mapping;
    let (units, banks) = (m.units(), m.banks_per_unit());
    let mut rows = vec![vec![None; banks]; units];
    let mut bank_misses = vec![vec![0u64; banks]; units];
    let mut unit_bursts = vec![0u64; units];
    let (mut read_bursts, mut write_bursts) = (0u64, 0u64);
    let (mut bytes_read, mut bytes_written) = (0u64, 0u64);
    for req in trace.iter() {
        let mut remaining = req.bytes;
        let mut addr = req.addr.get();
        while remaining > 0 {
            let take = (t.burst_bytes - addr % t.burst_bytes).min(remaining);
            let loc = m.decode(PhysAddr::new(addr));
            unit_bursts[loc.unit] += 1;
            match req.op {
                Op::Read => {
                    read_bursts += 1;
                    bytes_read += take;
                }
                Op::Write => {
                    write_bursts += 1;
                    bytes_written += take;
                }
            }
            if rows[loc.unit][loc.bank] != Some(loc.row) {
                bank_misses[loc.unit][loc.bank] += 1;
                rows[loc.unit][loc.bank] = Some(loc.row);
            }
            addr += take;
            remaining -= take;
        }
    }

    let delta = t.t_rc().max(t.t_faw) + t.t_rcd + t.t_cl + t.t_burst;
    let refresh_stretch = 1.0 / (1.0 - t.t_rfc as f64 / t.t_refi as f64);
    let (mut cycles_lo, mut cycles_hi, mut act_lo, mut act_hi) = (0u64, 0u64, 0u64, 0u64);
    for (u, &bursts) in unit_bursts.iter().enumerate() {
        if bursts == 0 {
            continue;
        }
        let base_misses: u64 = bank_misses[u].iter().sum();
        let lo_bus = t.t_rcd + t.t_cl + bursts * t.t_burst;
        let lo_bank = bank_misses[u]
            .iter()
            .filter(|&&mis| mis > 0)
            .map(|&mis| (mis - 1) * t.t_rc() + t.t_rcd + t.t_cl + t.t_burst)
            .max()
            .unwrap_or(0);
        cycles_lo = cycles_lo.max(lo_bus.max(lo_bank));
        let hi_u = ((bursts * delta) as f64 * refresh_stretch).ceil() as u64 + t.t_rfc;
        cycles_hi = cycles_hi.max(hi_u);
        act_lo += base_misses;
        let refresh_hi = hi_u / t.t_refi;
        act_hi += bursts.min(base_misses + refresh_hi.saturating_mul(banks as u64));
    }
    let cycles = Interval::new(cycles_lo as f64, cycles_hi as f64);
    let elapsed = cycles.scale(t.t_ck.get());
    let moved = bytes_read + bytes_written;
    let energy_lo = config
        .energy
        .trace_energy(act_lo, moved, Seconds::new(elapsed.lo));
    let energy_hi = config
        .energy
        .trace_energy(act_hi, moved, Seconds::new(elapsed.hi));
    TraceBounds {
        bytes_read: Interval::exact(bytes_read as f64),
        bytes_written: Interval::exact(bytes_written as f64),
        read_bursts: Interval::exact(read_bursts as f64),
        write_bursts: Interval::exact(write_bursts as f64),
        activations: Interval::new(act_lo as f64, act_hi as f64),
        cycles,
        elapsed,
        energy: Interval::new(energy_lo.get(), energy_hi.get()),
        unit_bursts,
    }
}

/// Every interval endpoint of `b` as raw bits, then the per-unit
/// bursts: equal vectors mean bit-identical bounds.
fn bits(b: &TraceBounds) -> Vec<u64> {
    let mut out = Vec::new();
    for i in [
        b.bytes_read,
        b.bytes_written,
        b.read_bursts,
        b.write_bursts,
        b.activations,
        b.cycles,
        b.elapsed,
        b.energy,
    ] {
        out.push(i.lo.to_bits());
        out.push(i.hi.to_bits());
    }
    out.extend(&b.unit_bursts);
    out
}

fn assert_walks_agree(config: &MemoryConfig, trace: &TraceBuffer) {
    let runs = trace_bounds(config, trace).expect("valid config");
    let bursts = per_burst_trace_bounds(config, trace);
    assert_eq!(bits(&runs), bits(&bursts), "{:?}", config.mapping);
    assert_eq!(runs, bursts);
}

/// The mapping shapes the run decoder distinguishes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    InterleavedOne,
    InterleavedMany,
    Xor,
    AsymUnaligned,
    /// Interleaved with lines that are not a whole number of bursts.
    SubBurstLines,
    /// The HMC stack preset: 32 units × 256 B lines, 4 KiB rows.
    HmcStack,
    /// The HMC stack's XOR twin.
    HmcXor,
    /// The asymmetric DIMM layer (two interleaved channels below the
    /// split, one contiguous above).
    AsymDimms,
}

/// Split point for the asymmetric shape: deliberately not aligned to a
/// line, a burst, or a row.
const SPLIT: u64 = (1 << 22) + 0x1234 + 7;

fn config_for(
    shape: Shape,
    units: usize,
    banks_per_unit: usize,
    row_bytes: u64,
    line_bytes: u64,
    base: u8,
) -> MemoryConfig {
    let mut cfg = match base {
        0 => MemoryConfig::hmc_stack(),
        1 => MemoryConfig::ddr_dual_channel(),
        _ => MemoryConfig::msas_dram(),
    };
    let line_bytes = line_bytes.min(row_bytes);
    cfg.mapping = match shape {
        Shape::InterleavedOne => AddressMapping::Interleaved {
            units: 1,
            banks_per_unit,
            row_bytes,
            line_bytes,
        },
        Shape::InterleavedMany => AddressMapping::Interleaved {
            units,
            banks_per_unit,
            row_bytes,
            line_bytes,
        },
        Shape::Xor => AddressMapping::XorInterleaved {
            units,
            banks_per_unit,
            row_bytes,
            line_bytes,
        },
        Shape::AsymUnaligned => AddressMapping::Asymmetric {
            low_units: units,
            banks_per_unit,
            row_bytes,
            line_bytes,
            split: PhysAddr::new(SPLIT),
        },
        Shape::SubBurstLines => {
            // 48-byte bursts never divide a power-of-two line; 16-byte
            // lines are shorter than any preset burst.
            if base == 0 {
                cfg.timing.burst_bytes = 48;
            }
            AddressMapping::Interleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes: if base == 0 { line_bytes } else { 16 },
            }
        }
        Shape::HmcStack => return MemoryConfig::hmc_stack(),
        Shape::HmcXor => {
            let mut cfg = MemoryConfig::hmc_stack();
            cfg.mapping = AddressMapping::XorInterleaved {
                units: 32,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 256,
            };
            return cfg;
        }
        Shape::AsymDimms => {
            let mut cfg = MemoryConfig::ddr_dual_channel();
            cfg.mapping = mealib_memsim::address::asymmetric_dimms(PhysAddr::new(SPLIT));
            return cfg;
        }
    };
    cfg
}

fn config_strategy() -> impl Strategy<Value = MemoryConfig> {
    (
        proptest::sample::select(vec![
            Shape::InterleavedOne,
            Shape::InterleavedMany,
            Shape::Xor,
            Shape::AsymUnaligned,
            Shape::SubBurstLines,
            Shape::HmcStack,
            Shape::HmcXor,
            Shape::AsymDimms,
        ]),
        proptest::sample::select(vec![2usize, 3, 4, 8, 32]),
        proptest::sample::select(vec![1usize, 2, 8]),
        proptest::sample::select(vec![256u64, 1024, 8192]),
        proptest::sample::select(vec![64u64, 128, 256]),
        0u8..3,
    )
        .prop_map(|(shape, units, banks, row, line, base)| {
            config_for(shape, units, banks, row, line, base)
        })
}

/// Where a generated request lands.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Any address, up to a few KiB.
    Scattered,
    /// Inside one burst, or just across its edge.
    SubBurst,
    /// Line-aligned and long: the bulk super-line path.
    LongAligned,
    /// Starts just below the asymmetric split and runs across it.
    StraddlesSplit,
    /// 16 KiB to 1 MiB from an 8 KiB boundary (an HMC super-line,
    /// anywhere in its row), often ending mid-stripe.
    Stripe,
    /// 1 MiB from a line boundary up to 64 KiB below the split.
    LongAcrossSplit,
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        proptest::sample::select(vec![
            Kind::Scattered,
            Kind::SubBurst,
            Kind::LongAligned,
            Kind::StraddlesSplit,
            Kind::Stripe,
            Kind::LongAcrossSplit,
        ]),
        0u64..(1 << 23),
        1u64..4096,
        any::<bool>(),
    )
        .prop_map(|(kind, addr, len, write)| {
            let (addr, bytes) = match kind {
                Kind::Scattered => (addr, len),
                Kind::SubBurst => (addr, 1 + len % 80),
                Kind::LongAligned => (addr & !1023, 1024 * (1 + len % 96)),
                Kind::StraddlesSplit => (SPLIT - 1 - addr % 600, len),
                Kind::Stripe => (addr & !8191, 16384 * (1 + len % 64) + len % 3 * 96),
                Kind::LongAcrossSplit => ((SPLIT - 1 - len * 16) & !63, 1 << 20),
            };
            if write {
                Request::write(addr, bytes)
            } else {
                Request::read(addr, bytes)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The run walk is the per-burst walk, bit for bit.
    #[test]
    fn run_walk_equals_the_per_burst_oracle(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..24),
    ) {
        assert_walks_agree(&cfg, &TraceBuffer::from(trace.as_slice()));
    }

    /// Per-unit burst counts read between pushes are the per-burst
    /// counts of the prefix walked so far.
    #[test]
    fn walk_prefix_counts_equal_prefix_oracles(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 1..12),
    ) {
        let mut walk = BoundsWalk::new(&cfg).expect("valid config");
        let mut prefix = TraceBuffer::new();
        for &req in &trace {
            walk.push(req);
            prefix.push(req);
            let want = per_burst_trace_bounds(&cfg, &prefix).unit_bursts;
            prop_assert_eq!(walk.unit_bursts(), want.as_slice());
        }
    }
}

#[test]
fn preset_streams_agree_with_the_oracle() {
    for cfg in [
        MemoryConfig::hmc_stack(),
        MemoryConfig::ddr_dual_channel(),
        MemoryConfig::msas_dram(),
        config_for(Shape::HmcXor, 0, 0, 0, 0, 0),
        config_for(Shape::AsymDimms, 0, 0, 0, 0, 0),
    ] {
        let mut trace = mealib_memsim::engine::sequential_trace(0, 1 << 20, 256, Op::Read);
        trace.extend(&mealib_memsim::engine::strided_trace(
            (1 << 22) + 3,
            8192,
            100,
            512,
            Op::Write,
        ));
        trace.push(Request::read(4093, 10));
        trace.push(Request::write(7, 0));
        // Row stripes: aligned 1 MiB, a mid-row 16 KiB, one ending
        // mid-stripe, and 1 MiB across the asymmetric split.
        trace.push(Request::read(1 << 23, 1 << 20));
        trace.push(Request::write((1 << 23) + 5 * 8192, 16 << 10));
        trace.push(Request::read((1 << 24) + 3 * 8192, (200 << 10) + 96));
        trace.push(Request::read((SPLIT - 20_000) & !255, 1 << 20));
        assert_walks_agree(&cfg, &trace);
    }
}

#[test]
fn run_hook_sees_every_burst_once() {
    let cfg = MemoryConfig::hmc_stack();
    let trace = TraceBuffer::from(&[
        Request::read(0, 1 << 16),
        Request::write(100, 3000),
        Request::read(31, 2),
    ]);
    let mut walk = BoundsWalk::new(&cfg).unwrap();
    let mut seen = vec![0u64; cfg.mapping.units()];
    let mut bytes = 0u64;
    for req in trace.iter() {
        walk.push_with(req, |run| {
            seen[run.loc.unit] += run.bursts;
            bytes += run.total;
        });
    }
    let bounds = walk.finish();
    assert_eq!(seen, bounds.unit_bursts);
    assert_eq!(bytes, trace.total_bytes());
}
