//! Event-driven epoch-skipping replay (`EngineKind::Fast`), the
//! default engine.
//!
//! The fast engine exploits an invariant of the cycle engine's steady
//! state: once a unit's data bus is the binding constraint, every
//! row-hit burst completes exactly `t_burst` cycles after the previous
//! one, and the per-bank state machines advance in lockstep with the
//! bus. Formally, a burst is **bus-limited** when, at its turn,
//!
//! 1. no refresh is owed (`bus_free / t_refi == refreshes_done`),
//! 2. its bank's open row matches (`open_row == Some(row)`), and
//! 3. the bank's column command is not the bottleneck
//!    (`cmd_ready + t_cl <= bus_free`).
//!
//! Under those conditions [`UnitEngine::burst_core`] computes
//! `done = bus_free + t_burst`, latency exactly `t_burst`, and touches
//! nothing but `bus_free`, `cmd_ready`, `issued_at`, the hit counter,
//! and the byte/burst tallies — all of which a batch of `k` such bursts
//! updates in closed form. The bursts of one same-row run share a bank
//! and row, so once a run's next burst is bus-limited, so is every
//! later burst of the run up to the next refresh epoch (the next
//! **event** that could perturb the state): the engine applies that
//! batch in one step and *skips* the `k·t_burst` dead cycles.
//!
//! A streak spanning several runs is exactly the sum of its per-run
//! batches. The refresh cap recomputed after `c` bursts is `k_max − c`,
//! because the bus pointer moved by `c·t_burst`; and a bank served
//! earlier in the streak has `cmd_ready + t_cl` equal to its last
//! completion, which is at most the bus pointer by construction, so the
//! check at the next run's start accepts it just as a whole-streak scan
//! would.
//!
//! Any burst that fails the conditions — a conflict, an idle bank, a
//! refresh boundary, a cold column path — is replayed through the
//! *shared* [`UnitEngine::burst`], so the slow path is the cycle
//! engine's code, not a reimplementation. That, plus the closed-form
//! algebra above, is why `EngineKind::DualCheck` and the determinism
//! proptests hold the two engines bit-for-bit equal on every statistic
//! (stats, vault counts, histogram buckets, energy, tenant slices).
//!
//! # Tenant attribution
//!
//! A run comes from one request, hence carries one tenant tag, and a
//! batch has no activations. A batch therefore adds its byte and
//! RD/WR burst totals to its tenant, moves the tenant's last completion
//! to the batch's end, and sets the first completion once. Slow-path
//! bursts go through the cycle engine's snapshot-delta attribution in
//! [`UnitEngine::burst`].
//!
//! # Streaming, run-granular decode
//!
//! Address decoding is the other per-burst cost. The engine consumes
//! the trace as same-row **runs** from [`crate::runs::RunDecoder`] —
//! the decoder the certified bounds walk shares — which decodes once
//! per run or per row stripe and reproduces the cycle engine's per-unit
//! burst sequence exactly. Each unit keeps one pending run that absorbs
//! column-contiguous successors of the same bank, row, op and tenant
//! ([`UnitRun::absorb`]). The serial replay applies every finished run
//! to its unit at once, so its memory is O(units × banks) whatever the
//! trace's size; the vault-sharded replay buffers each unit's runs and
//! replays them with the same per-run step. Burst counts are `u64`
//! throughout, and nothing is reserved in proportion to bytes.
//!
//! A random scalar gather is one row miss, so its state step is one
//! slow-path burst and nothing batches; what it costs beyond that is
//! decode and dispatch. A request that ends inside its first burst
//! therefore skips the run iterator: [`RunDecoder::one_burst`] decodes
//! it once, through the decoder's compiled geometry (shifts and masks,
//! no `u64` division on the presets), and the run joins its unit's
//! pending slot like any other. The refresh check in
//! [`UnitEngine::burst_core`] divides only when a refresh is owed.
//!
//! Profiled runs charge every burst to a cycle window individually,
//! which is exactly the per-burst accounting the batch elides, so they
//! run the cycle engine.

use crate::address::Location;
use crate::config::MemoryConfig;
use crate::engine::{
    finish_run, Burst, EngineRun, LatencyHistogram, Op, Tenancy, TenantAccum, UnitEngine,
};
use crate::runs::{Run, RunDecoder};
use crate::timing::DramTiming;
use crate::trace::TraceBuffer;

/// One unit's same-row run as the replay consumes it: a decoded [`Run`]
/// (grown by the column-contiguous runs it absorbed) with its op and
/// tenant. Only the slow path rebuilds individual bursts, from the
/// run's first column and burst arithmetic.
#[derive(Debug, Clone, Copy, Default)]
struct UnitRun {
    run: Run,
    write: bool,
    tenant: u16,
}

impl UnitRun {
    /// Appends `next` when the result is burst-arithmetic-equivalent to
    /// keeping the two apart: same bank, row, op and tenant;
    /// column-contiguous; this run's last burst complete; and `next`
    /// starting with a whole burst. Returns whether it did.
    fn absorb(&mut self, next: &UnitRun, burst_bytes: u64) -> bool {
        let (r, n) = (&mut self.run, &next.run);
        let fits = r.loc.bank == n.loc.bank
            && r.loc.row == n.loc.row
            && self.write == next.write
            && self.tenant == next.tenant
            && r.loc.col_byte + r.total == n.loc.col_byte
            && r.total == r.head + (r.bursts - 1) * burst_bytes
            && n.head == burst_bytes;
        if fits {
            r.total += n.total;
            r.bursts += n.bursts;
        }
        fits
    }

    /// Byte offset (within the run) where burst `j` starts; `j ==
    /// bursts` yields the run's total length.
    fn cum(&self, j: u64, burst_bytes: u64) -> u64 {
        if j == 0 {
            0
        } else {
            self.run.total.min(self.run.head + (j - 1) * burst_bytes)
        }
    }

    /// Burst `j` of the run, exactly as the cycle engine's per-burst
    /// decode produces it.
    fn burst(&self, j: u64, burst_bytes: u64) -> Burst {
        let start = self.cum(j, burst_bytes);
        Burst {
            loc: Location {
                col_byte: self.run.loc.col_byte + start,
                ..self.run.loc
            },
            bytes: self.cum(j + 1, burst_bytes) - start,
            op: if self.write { Op::Write } else { Op::Read },
            tenant: self.tenant,
        }
    }
}

/// The fast replay: streaming and serial when `jobs <= 1`,
/// vault-sharded otherwise. Profiled runs delegate to the cycle engine.
///
/// Expects a pre-validated `config` and a pre-normalized `jobs`, like
/// [`crate::engine::run_cycle`].
pub(crate) fn run_fast(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    jobs: usize,
    profile: Option<u64>,
    tags: Tenancy<'_>,
) -> EngineRun {
    if profile.is_some() {
        return crate::engine::run_cycle(config, trace, jobs, profile, tags);
    }
    let t = &config.timing;
    let make = || {
        let mut unit = UnitEngine::new(config.mapping.banks_per_unit());
        if let Some((_, n)) = tags {
            unit.tenants = Some(vec![TenantAccum::default(); n]);
        }
        unit
    };
    let units_n = config.mapping.units();
    let tag_col = tags.map(|(col, _)| col);
    let units = if jobs <= 1 {
        let mut units: Vec<UnitEngine> = (0..units_n).map(|_| make()).collect();
        for_each_unit_run(config, trace, tag_col, |unit, run| {
            replay_run(&mut units[unit], t, run)
        });
        units
    } else {
        let mut shards: Vec<Vec<UnitRun>> = vec![Vec::new(); units_n];
        for_each_unit_run(config, trace, tag_col, |unit, run| shards[unit].push(*run));
        mealib_types::par_map(&shards, jobs, |runs| {
            let mut unit = make();
            for run in runs {
                replay_run(&mut unit, t, run);
            }
            unit
        })
    };
    finish_run(config, units)
}

/// Decodes `trace` into same-row runs with the shared [`RunDecoder`]
/// and hands each unit's runs to `sink(unit, run)` in that unit's burst
/// order. Each unit holds one pending run that absorbs contiguous
/// successors ([`UnitRun::absorb`]); a run is handed on once its
/// successor on the unit does not fit, and every pending run at the end.
///
/// A request inside one burst (a scalar gather, say) is its own single
/// run: [`RunDecoder::one_burst`] decodes it once without building a
/// [`crate::runs::Runs`] iterator, and it joins the pending slot like
/// any other run, so aligned burst-sized requests still batch.
fn for_each_unit_run(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
    mut sink: impl FnMut(usize, &UnitRun),
) {
    let bb = config.timing.burst_bytes;
    let decoder = RunDecoder::new(&config.timing, &config.mapping);
    // A pending run of zero bursts is an empty slot: real runs have at
    // least one.
    let mut pending: Vec<UnitRun> = vec![UnitRun::default(); config.mapping.units()];
    let mut hand_on = |next: UnitRun| {
        let unit = next.run.loc.unit;
        let last = &mut pending[unit];
        if last.run.bursts == 0 || !last.absorb(&next, bb) {
            if last.run.bursts > 0 {
                sink(unit, last);
            }
            *last = next;
        }
    };
    let (addrs, bytes, ops) = (trace.addrs(), trace.bytes(), trace.ops());
    for i in 0..trace.len() {
        let write = ops[i] == Op::Write;
        let tenant = tags.map_or(0, |col| col[i]);
        if let Some(run) = decoder.one_burst(addrs[i], bytes[i]) {
            hand_on(UnitRun { run, write, tenant });
        } else {
            for run in decoder.runs(addrs[i], bytes[i]) {
                hand_on(UnitRun { run, write, tenant });
            }
        }
    }
    for (unit, last) in pending.iter().enumerate() {
        if last.run.bursts > 0 {
            sink(unit, last);
        }
    }
}

/// Replays one run on its unit. While the run's next burst is
/// bus-limited (see the module docs), the rest of the run up to the
/// refresh cap is one closed-form batch; any other burst takes one
/// exact step through the shared slow path.
fn replay_run(u: &mut UnitEngine, t: &DramTiming, run: &UnitRun) {
    let bb = t.burst_bytes;
    let Location { bank, row, .. } = run.run.loc;
    let n = run.run.bursts;
    let mut j = 0u64;
    while j < n {
        let next_refresh = (u.refreshes_done + 1) * t.t_refi;
        let state = &u.banks[bank];
        let bus_limited = u.bus_free < next_refresh
            && state.open_row == Some(row)
            && state.cmd_ready + t.t_cl <= u.bus_free;
        if !bus_limited {
            u.burst(t, &run.burst(j, bb));
            j += 1;
            continue;
        }
        // The burst at batch offset `c` sees the bus at
        // `bus_free + c·t_burst`, so the refresh caps the batch at
        // `ceil((next_refresh - bus_free) / t_burst)` bursts. The
        // division is only needed when the cap bites.
        let room = next_refresh - u.bus_free;
        let take = if (n - j - 1).saturating_mul(t.t_burst) < room {
            n - j
        } else {
            room.div_ceil(t.t_burst)
        };
        let bytes = if j == 0 && take == n {
            run.run.total
        } else {
            run.cum(j + take, bb) - run.cum(j, bb)
        };
        let write_bursts = if run.write { take } else { 0 };
        let first_done = u.bus_free + t.t_burst;
        // Closed-form update for `take` bus-limited bursts — each line
        // mirrors what burst_core's hit arm would have done `take` times
        // over.
        if run.write {
            u.bytes_written += bytes;
        } else {
            u.bytes_read += bytes;
        }
        u.vault.read_bursts += take - write_bursts;
        u.vault.write_bursts += write_bursts;
        u.vault.row_hits += take;
        u.latencies
            .record_n(LatencyHistogram::bucket_of(t.t_burst), take);
        u.bus_free += take * t.t_burst;
        u.issued_at = u.bus_free;
        u.banks[bank].cmd_ready = u.bus_free.saturating_sub(t.t_cl);
        if let Some(tenants) = u.tenants.as_mut() {
            let acc = &mut tenants[run.tenant as usize];
            if run.write {
                acc.bytes_written += bytes;
            } else {
                acc.bytes_read += bytes;
            }
            acc.read_bursts += take - write_bursts;
            acc.write_bursts += write_bursts;
            acc.last_done = acc.last_done.max(u.bus_free);
            if acc.first_done == 0 {
                acc.first_done = first_done;
            }
        }
        j += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use crate::engine::{
        for_each_burst_tagged, sequential_trace, simulate, strided_trace, EngineKind, Request,
        SimOptions,
    };

    fn assert_engines_agree(config: &MemoryConfig, trace: &TraceBuffer, what: &str) {
        let cycle = simulate(config, trace, &SimOptions::cycle()).unwrap();
        let fast = simulate(config, trace, &SimOptions::fast()).unwrap();
        assert_eq!(fast, cycle, "{what}");
        // DualCheck performs the same comparison internally.
        let dual = simulate(config, trace, &SimOptions::dual_check()).unwrap();
        assert_eq!(dual, cycle, "{what} (dual)");
    }

    /// Per-unit bursts of the run decode, expanded back one by one.
    fn decoded_bursts(config: &MemoryConfig, trace: &TraceBuffer) -> Vec<Vec<Burst>> {
        let bb = config.timing.burst_bytes;
        let mut got: Vec<Vec<Burst>> = vec![Vec::new(); config.mapping.units()];
        for_each_unit_run(config, trace, None, |unit, run| {
            for j in 0..run.run.bursts {
                got[unit].push(run.burst(j, bb));
            }
        });
        got
    }

    #[test]
    fn run_decode_reproduces_the_per_burst_decode() {
        // The run decomposition must concatenate back into exactly the
        // cycle engine's per-unit burst sequence: same locations, same
        // byte counts, same order.
        let mut xor_stack = MemoryConfig::hmc_stack();
        xor_stack.mapping = AddressMapping::XorInterleaved {
            units: 32,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 256,
        };
        // The asymmetric DIMM layer, split mid-row and off the line grid.
        let split = (3 << 20) + 8192 * 3 + 1000;
        let mut asym = MemoryConfig::ddr_dual_channel();
        asym.mapping = crate::address::asymmetric_dimms(mealib_types::PhysAddr::new(split));
        // hmc_stack super-lines are 32 × 256 B = 8 KiB; a 4 KiB row
        // holds 16 of them per unit, so a row stripe is 128 KiB.
        let stripe_requests = [
            Request::read(1 << 23, 1 << 20), // stripe-aligned 1 MiB
            Request::write((1 << 23) + 5 * 8192, 16 << 10), // mid-row super-line, 16 KiB
            Request::read((1 << 24) + 3 * 8192, 200 << 10), // ends mid-stripe
            Request::read((1 << 24) + 8192 + 512, 40 << 10), // mid-super-line start
            Request::write((1 << 25) + 8192 * 15, 3 * 8192 + 96), // crosses a row, ragged end
            Request::read(split - 20_000, 1 << 20), // straddles the split
            Request::write(split - 64, 16 << 10),
        ];
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
            xor_stack,
            asym,
        ] {
            let mut trace = sequential_trace(0, 1 << 20, 256, Op::Read);
            trace.extend(strided_trace(1 << 22, 8192, 64, 512, Op::Write).iter());
            trace.push(Request::read(30, 100));
            trace.push(Request::read(5, 1));
            trace.push(Request::write(4093, 10)); // straddles a row edge
            for r in stripe_requests {
                trace.push(r);
            }
            let mut expected: Vec<Vec<Burst>> = vec![Vec::new(); config.mapping.units()];
            for_each_burst_tagged(&config.timing, &config.mapping, &trace, None, |b| {
                expected[b.loc.unit].push(b)
            });
            let got = decoded_bursts(&config, &trace);
            for (unit, (got, want)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(got.len(), want.len(), "{}: unit {unit}", config.name);
                for (g, e) in got.iter().zip(want) {
                    assert_eq!(g.loc, e.loc, "{}: unit {unit}", config.name);
                    assert_eq!(g.bytes, e.bytes, "{}: unit {unit}", config.name);
                    assert_eq!(g.op, e.op, "{}: unit {unit}", config.name);
                }
            }
        }
    }

    /// The presets the one-burst path must agree on: HMC (32-byte
    /// bursts in 256-byte lines), DDR (burst = line = 64 bytes), the
    /// stack's XOR twin and the asymmetric DIMM layer split off-grid.
    fn one_burst_configs() -> Vec<MemoryConfig> {
        let mut xor = MemoryConfig::hmc_stack();
        xor.mapping = AddressMapping::XorInterleaved {
            units: 32,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 256,
        };
        let mut asym = MemoryConfig::ddr_dual_channel();
        asym.mapping =
            crate::address::asymmetric_dimms(mealib_types::PhysAddr::new((1 << 20) + 4096 + 12));
        vec![
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            xor,
            asym,
        ]
    }

    /// Both engines agree, and the run decode reproduces the per-burst
    /// decode unit by unit, in order.
    fn assert_one_burst_trace_agrees(config: &MemoryConfig, trace: &TraceBuffer, what: &str) {
        let mut expected: Vec<Vec<Burst>> = vec![Vec::new(); config.mapping.units()];
        for_each_burst_tagged(&config.timing, &config.mapping, trace, None, |b| {
            expected[b.loc.unit].push(b)
        });
        let got = decoded_bursts(config, trace);
        for (unit, (got, want)) in got.iter().zip(&expected).enumerate() {
            let got: Vec<_> = got.iter().map(|b| (b.loc, b.bytes, b.op)).collect();
            let want: Vec<_> = want.iter().map(|b| (b.loc, b.bytes, b.op)).collect();
            assert_eq!(got, want, "{}: {what}, unit {unit}", config.name);
        }
        assert_engines_agree(config, trace, &format!("{}: {what}", config.name));
    }

    #[test]
    fn scalar_gathers_take_the_one_burst_path_bit_exactly() {
        for config in one_burst_configs() {
            // Random 4-byte gathers over 2 MiB around the asymmetric
            // split, reads and writes, some landing in open rows.
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let mut trace = TraceBuffer::new();
            for i in 0..4096u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = (x % (2 << 20)) & !3;
                if i % 5 == 0 {
                    trace.push(Request::write(addr, 4));
                } else {
                    trace.push(Request::read(addr, 4));
                }
            }
            assert_one_burst_trace_agrees(&config, &trace, "4-byte gathers");
        }
    }

    #[test]
    fn one_burst_edge_cases_agree_with_the_cycle_engine() {
        for config in one_burst_configs() {
            let bb = config.timing.burst_bytes;
            let decoder = RunDecoder::new(&config.timing, &config.mapping);
            let base = 1u64 << 16;
            // A 4-byte read across a burst boundary is two bursts: it
            // must take the iterator path.
            let straddle = base + bb - 2;
            assert!(decoder.one_burst(straddle, 4).is_none());
            assert_eq!(decoder.runs(straddle, 4).map(|r| r.bursts).sum::<u64>(), 2);
            // An exact aligned burst and reads inside one burst are the
            // iterator's only run; zero bytes are no run at all.
            for (addr, n) in [(base, bb), (base + bb - 4, 4), (base + 3, 1)] {
                let one = decoder.one_burst(addr, n);
                assert_eq!(one.map(|r| r.bursts), Some(1));
                assert_eq!(one, decoder.runs(addr, n).next());
            }
            assert!(decoder.one_burst(base + 4, 0).is_none());
            let trace = TraceBuffer::from(&[
                Request::read(straddle, 4),
                Request::read(base, bb),
                Request::write(base + 2 * bb, bb),
                Request::read(base + 4, 0),
                Request::read(base + bb - 4, 4),
                Request::read(base + bb, bb),
                Request::write(base + 64 * bb + 1, 0),
                Request::read(straddle, 4),
            ]);
            assert_one_burst_trace_agrees(&config, &trace, "edge cases");
        }
    }

    #[test]
    fn one_burst_run_absorbs_its_aligned_successor() {
        // On the stack a 256-byte line holds eight 32-byte bursts, so a
        // 4-byte read at col 28 and an aligned burst at col 32 are one
        // two-burst run on one unit.
        let c = MemoryConfig::hmc_stack();
        let trace = TraceBuffer::from(&[Request::read(28, 4), Request::read(32, 32)]);
        let mut runs = Vec::new();
        for_each_unit_run(&c, &trace, None, |unit, run| runs.push((unit, run.run)));
        assert_eq!(runs.len(), 1, "{runs:?}");
        assert_eq!(
            (runs[0].1.bursts, runs[0].1.head, runs[0].1.total),
            (2, 4, 36)
        );
        assert_engines_agree(&c, &trace, "absorbed one-burst run");
    }

    #[test]
    fn one_huge_request_replays_without_a_byte_sized_reservation() {
        // Regression: a 256 GiB read inside one 2^40-byte row is one run
        // of 2^32 bursts. Burst counts past u32 must not truncate, and
        // nothing may be allocated in proportion to the bytes.
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 8,
            row_bytes: 1 << 40,
            line_bytes: 64,
        };
        let trace = TraceBuffer::from(&[Request::read(0, 256 << 30)]);
        let bounds = crate::bounds::trace_bounds(&c, &trace).unwrap();
        assert_eq!(bounds.read_bursts.lo, (1u64 << 32) as f64);
        let run = simulate(&c, &trace, &SimOptions::fast()).unwrap();
        assert_eq!(run.vaults[0].read_bursts as f64, bounds.read_bursts.lo);
        assert_eq!(run.stats.bytes_read.get(), 256 << 30);
        assert!(bounds.check_contains(&run.stats).is_none());
    }

    #[test]
    fn fast_engine_matches_cycle_on_preset_workload_shapes() {
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
            MemoryConfig::hmc_stack_gen1(),
        ] {
            let mut trace = sequential_trace(0, 4 << 20, 64, Op::Read);
            trace.extend(strided_trace(1 << 22, 8192, 64, 2048, Op::Write).iter());
            trace.extend(strided_trace(0, 8192 * 8, 64, 1024, Op::Read).iter());
            trace.push(Request::read(30, 100));
            trace.push(Request::read(0, 0));
            assert_engines_agree(&config, &trace, &config.name);
        }
    }

    #[test]
    fn fast_engine_matches_cycle_across_refresh_epochs() {
        // A stream long enough to cross many tREFI boundaries: every
        // epoch ends a streak and forces the slow path once.
        let c = MemoryConfig::ddr_dual_channel();
        let trace = sequential_trace(0, 32 << 20, 64, Op::Read);
        assert_engines_agree(&c, &trace, "32 MiB stream");
    }

    #[test]
    fn fast_engine_handles_empty_and_degenerate_traces() {
        let c = MemoryConfig::hmc_stack();
        assert_engines_agree(&c, &TraceBuffer::new(), "empty");
        let zeros = TraceBuffer::from(&[Request::read(0, 0), Request::write(64, 0)]);
        assert_engines_agree(&c, &zeros, "zero-length requests");
        let one = TraceBuffer::from(&[Request::write(12345, 1)]);
        assert_engines_agree(&c, &one, "single byte");
    }

    #[test]
    fn fast_engine_is_jobs_invariant() {
        let c = MemoryConfig::hmc_stack();
        let trace = sequential_trace(0, 2 << 20, 256, Op::Read);
        let serial = simulate(&c, &trace, &SimOptions::fast()).unwrap();
        for jobs in [0usize, 2, 4, 8] {
            let parallel = simulate(&c, &trace, &SimOptions::fast().jobs(jobs)).unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn fast_profiled_run_equals_cycle_profiled_run() {
        let c = MemoryConfig::ddr_dual_channel();
        let mut trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        trace.extend(strided_trace(1 << 22, 8192, 64, 1024, Op::Write).iter());
        let cycle = simulate(&c, &trace, &SimOptions::cycle().profile(1024)).unwrap();
        let fast = simulate(&c, &trace, &SimOptions::fast().profile(1024)).unwrap();
        assert_eq!(fast, cycle);
        assert!(fast.timeline.is_some());
    }

    #[test]
    fn streaks_actually_batch_on_sequential_streams() {
        // White-box: on a pure sequential stream the fast path must do
        // far fewer slow steps than bursts — here via the row-hit count
        // all landing in the single t_burst latency bucket.
        let c = MemoryConfig::hmc_stack();
        let trace = sequential_trace(0, 1 << 20, 256, Op::Read);
        let run = simulate(&c, &trace, &SimOptions::fast()).unwrap();
        let bucket = LatencyHistogram::bucket_of(c.timing.t_burst);
        assert!(run.stats.row_hits > 0);
        assert!(run.latencies.buckets()[bucket] >= run.stats.row_hits);
    }

    #[test]
    fn dual_check_kind_is_the_default_validation_mode() {
        let opts = SimOptions::dual_check();
        assert_eq!(opts.engine, EngineKind::DualCheck);
        assert_eq!(SimOptions::fast().engine, EngineKind::Fast);
        assert_eq!(SimOptions::cycle().engine, EngineKind::Cycle);
        assert_eq!(SimOptions::default().engine, EngineKind::Fast);
    }
}
