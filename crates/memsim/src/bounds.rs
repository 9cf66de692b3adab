//! Certified static bounds on what the cycle engine will measure.
//!
//! [`trace_bounds`] walks a request trace through exactly the burst
//! splitting and address decoding the engine uses
//! ([`crate::engine::simulate`]), but instead of replaying DRAM
//! timing it derives closed [`Interval`] bounds on every counter the
//! engine reports. The guarantee — for every valid config and every
//! trace, `lo <= measured <= hi` on bytes, RD/WR bursts, activations,
//! cycles, and energy — is what `mealib-verify::bounds` certifies and
//! what the differential harness and the soundness proptests check
//! against the engine on every corpus program and workload pipeline.
//!
//! Where the bounds come from (each anchored to an engine invariant):
//!
//! * **bytes, RD/WR bursts, per-unit traffic** — exact. The burst
//!   stream is a pure function of the trace and the mapping; no timing
//!   is involved.
//! * **activations** — the row-buffer automaton without refresh is
//!   deterministic, giving an exact miss count `base`; refresh only
//!   *closes* rows, so it can only add activations: at most
//!   `banks` per refresh window, and never more than one per burst.
//!   Hence `base <= ACT <= min(bursts, base + refresh_hi * banks)`.
//! * **cycles** — lower: each burst occupies the unit data bus for
//!   `t_burst` and the first burst of a unit pays `t_rcd + t_cl`;
//!   consecutive activations of one bank are `t_rc` apart. Upper: a
//!   burst advances the unit's bus-free pointer by at most
//!   `max(t_rc, t_faw) + t_rcd + t_cl + t_burst`, and refresh steals
//!   `t_rfc` out of every `t_refi` — a geometric fixed point that
//!   `DramTiming::validate`'s `t_refi > t_rfc` keeps finite.
//! * **energy** — `DramEnergy::trace_energy` is monotone in
//!   activations, bytes, and elapsed time, so the interval endpoints
//!   map through it soundly.
//!
//! # Cost: one tally per run, one run per row stripe
//!
//! Every quantity above is a sum over bursts or a function of the
//! per-bank miss counts, and a burst's contribution depends only on its
//! `(unit, bank, row)` and byte count. The walk ([`BoundsWalk`])
//! therefore never visits a burst: it takes each request as the same
//! same-row runs the fast engine replays ([`crate::runs::RunDecoder`],
//! one `decode` per run, per aligned super-line, or per row stripe of
//! whole super-lines — one run per unit), adds a run's bursts, bytes,
//! and RD/WR counts whole, and steps the row automaton once per run —
//! the run's first burst is the only one that can miss. On interleaved
//! layers a long aligned request therefore costs O(units) per row
//! stripe, not O(lines). The cost is O(runs) per trace, not O(bursts),
//! with results bit-identical to the per-burst walk (the
//! `bounds_oracle` proptests check every field on every mapping
//! shape). A walk is incremental:
//! callers that need per-request attribution (the MEA3xx composer's
//! per-tenant tallies and prefix snapshots) push requests themselves
//! and read [`BoundsWalk::unit_bursts`] between pushes.

use mealib_types::{Interval, Seconds};

use crate::config::MemoryConfig;
use crate::engine::{Op, Request};
use crate::runs::{Run, RunDecoder};
use crate::stats::TraceStats;
use crate::trace::TraceBuffer;

/// Certified bounds on the engine counters of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBounds {
    /// Bytes read (exact).
    pub bytes_read: Interval,
    /// Bytes written (exact).
    pub bytes_written: Interval,
    /// READ bursts issued (exact).
    pub read_bursts: Interval,
    /// WRITE bursts issued (exact).
    pub write_bursts: Interval,
    /// Row activations.
    pub activations: Interval,
    /// Device cycles busy.
    pub cycles: Interval,
    /// Wall-clock busy time in seconds.
    pub elapsed: Interval,
    /// Total energy in joules.
    pub energy: Interval,
    /// Exact burst count per unit (channel/vault) — the static vault
    /// traffic distribution the skew diagnostic inspects.
    pub unit_bursts: Vec<u64>,
}

impl TraceBounds {
    /// Total bursts across all units.
    pub fn total_bursts(&self) -> u64 {
        self.unit_bursts.iter().sum()
    }

    /// Units that receive any traffic at all.
    pub fn units_touched(&self) -> usize {
        self.unit_bursts.iter().filter(|&&n| n > 0).count()
    }

    /// Checks every certified counter against an engine measurement;
    /// returns the first violated counter by name. The differential
    /// harness fails on `Some`.
    pub fn check_contains(&self, measured: &TraceStats) -> Option<String> {
        let checks = [
            (
                "bytes_read",
                self.bytes_read,
                measured.bytes_read.get() as f64,
            ),
            (
                "bytes_written",
                self.bytes_written,
                measured.bytes_written.get() as f64,
            ),
            ("activations", self.activations, measured.activations as f64),
            ("cycles", self.cycles, measured.cycles.get() as f64),
            ("elapsed", self.elapsed, measured.elapsed.get()),
            ("energy", self.energy, measured.energy.get()),
        ];
        for (name, bound, value) in checks {
            if !bound.contains(value) {
                return Some(format!(
                    "{name}: measured {value} outside certified {bound}"
                ));
            }
        }
        None
    }
}

/// The incremental bounds walk behind [`trace_bounds`]: create it with
/// [`BoundsWalk::new`], feed requests in trace order with
/// [`push`](BoundsWalk::push), and close it with
/// [`finish`](BoundsWalk::finish). Each request is consumed as same-row
/// [`Run`]s from the engine's own [`RunDecoder`] and tallied whole: its
/// bursts, bytes, and RD/WR counts by addition, and one step of the
/// refresh-free row automaton — a run shares one `(unit, bank, row)`,
/// so its later bursts are row hits by construction.
#[derive(Debug, Clone)]
pub struct BoundsWalk<'a> {
    config: &'a MemoryConfig,
    decoder: RunDecoder,
    banks: usize,
    /// Open row per `(unit, bank)` in the refresh-free automaton.
    rows: Vec<Option<u64>>,
    /// Misses of the refresh-free automaton per `(unit, bank)`.
    bank_misses: Vec<u64>,
    unit_bursts: Vec<u64>,
    read_bursts: u64,
    write_bursts: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl<'a> BoundsWalk<'a> {
    /// An empty walk over `config`.
    ///
    /// # Errors
    ///
    /// Returns the first [`mealib_types::ConfigError`] found in
    /// `config` — the same rejection surface as
    /// [`crate::analytic::try_estimate`] and [`crate::engine::simulate`].
    pub fn new(config: &'a MemoryConfig) -> Result<Self, mealib_types::ConfigError> {
        config.validate()?;
        let m = &config.mapping;
        let (units, banks) = (m.units(), m.banks_per_unit());
        Ok(Self {
            config,
            decoder: RunDecoder::new(&config.timing, m),
            banks,
            rows: vec![None; units * banks],
            bank_misses: vec![0; units * banks],
            unit_bursts: vec![0; units],
            read_bursts: 0,
            write_bursts: 0,
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    /// Walks the next request of the trace.
    pub fn push(&mut self, req: Request) {
        self.push_with(req, |_| {});
    }

    /// Walks the next request of the trace, handing each of its runs to
    /// `on_run` after tallying it — the hook callers use to attribute
    /// runs (to a tenant, say).
    pub fn push_with(&mut self, req: Request, mut on_run: impl FnMut(&Run)) {
        match req.op {
            Op::Read => self.bytes_read += req.bytes,
            Op::Write => self.bytes_written += req.bytes,
        }
        let write = req.op == Op::Write;
        let banks = self.banks;
        let Self {
            decoder,
            rows,
            bank_misses,
            unit_bursts,
            read_bursts,
            write_bursts,
            ..
        } = self;
        for run in decoder.runs(req.addr.get(), req.bytes) {
            let loc = run.loc;
            unit_bursts[loc.unit] += run.bursts;
            if write {
                *write_bursts += run.bursts;
            } else {
                *read_bursts += run.bursts;
            }
            // Refresh-free row automaton: exact lower bound on misses.
            let slot = loc.unit * banks + loc.bank;
            if rows[slot] != Some(loc.row) {
                bank_misses[slot] += 1;
                rows[slot] = Some(loc.row);
            }
            on_run(&run);
        }
    }

    /// Exact bursts walked so far, per unit.
    pub fn unit_bursts(&self) -> &[u64] {
        &self.unit_bursts
    }

    /// Closes the walk into certified bounds on everything pushed.
    pub fn finish(self) -> TraceBounds {
        let t = &self.config.timing;
        let banks = self.banks;

        // Worst-case bus advance of a single burst (conflict + tFAW stall).
        let delta = t.t_rc().max(t.t_faw) + t.t_rcd + t.t_cl + t.t_burst;
        // Refresh steals t_rfc per t_refi; validate() guarantees the
        // denominator is positive.
        let refresh_stretch = 1.0 / (1.0 - t.t_rfc as f64 / t.t_refi as f64);

        let mut cycles_lo = 0u64;
        let mut cycles_hi = 0u64;
        let mut act_lo = 0u64;
        let mut act_hi = 0u64;
        for (unit, &bursts) in self.unit_bursts.iter().enumerate() {
            if bursts == 0 {
                continue;
            }
            let bank_misses = &self.bank_misses[unit * banks..(unit + 1) * banks];
            let base_misses: u64 = bank_misses.iter().sum();

            // Lower bound: data-bus occupancy plus the first access's
            // ACT-to-data latency...
            let lo_bus = t.t_rcd + t.t_cl + bursts * t.t_burst;
            // ...and the per-bank activation spacing (t_rc between ACTs).
            let lo_bank = bank_misses
                .iter()
                .filter(|&&mis| mis > 0)
                .map(|&mis| (mis - 1) * t.t_rc() + t.t_rcd + t.t_cl + t.t_burst)
                .max()
                .unwrap_or(0);
            cycles_lo = cycles_lo.max(lo_bus.max(lo_bank));

            // Upper bound: every burst pays the full conflict path, then
            // the whole schedule is stretched by refresh; one extra t_rfc
            // covers a refresh landing after the final burst's due
            // computation.
            let hi_u = ((bursts * delta) as f64 * refresh_stretch).ceil() as u64 + t.t_rfc;
            cycles_hi = cycles_hi.max(hi_u);

            // Activation interval (see module docs for the soundness
            // argument).
            act_lo += base_misses;
            let refresh_hi = hi_u / t.t_refi;
            act_hi += bursts.min(base_misses + refresh_hi.saturating_mul(banks as u64));
        }

        let cycles = Interval::new(cycles_lo as f64, cycles_hi as f64);
        let elapsed = cycles.scale(t.t_ck.get());
        let bytes_moved = self.bytes_read + self.bytes_written;
        // trace_energy is monotone in all three arguments, so mapping the
        // endpoints through it bounds the engine's energy.
        let energy = &self.config.energy;
        let energy_lo = energy.trace_energy(act_lo, bytes_moved, Seconds::new(elapsed.lo));
        let energy_hi = energy.trace_energy(act_hi, bytes_moved, Seconds::new(elapsed.hi));

        TraceBounds {
            bytes_read: Interval::exact(self.bytes_read as f64),
            bytes_written: Interval::exact(self.bytes_written as f64),
            read_bursts: Interval::exact(self.read_bursts as f64),
            write_bursts: Interval::exact(self.write_bursts as f64),
            activations: Interval::new(act_lo as f64, act_hi as f64),
            cycles,
            elapsed,
            energy: Interval::new(energy_lo.get(), energy_hi.get()),
            unit_bursts: self.unit_bursts,
        }
    }
}

/// Derives certified bounds for `trace` on `config`: one
/// [`BoundsWalk`] over every request.
///
/// # Errors
///
/// Returns the first [`mealib_types::ConfigError`] found in `config` —
/// the same rejection surface as [`crate::analytic::try_estimate`] and
/// [`crate::engine::simulate`].
pub fn trace_bounds(
    config: &MemoryConfig,
    trace: &TraceBuffer,
) -> Result<TraceBounds, mealib_types::ConfigError> {
    let mut walk = BoundsWalk::new(config)?;
    for req in trace.iter() {
        walk.push(req);
    }
    Ok(walk.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, SimOptions};
    use mealib_types::PhysAddr;

    fn check(config: &MemoryConfig, trace: &TraceBuffer) -> TraceBounds {
        let bounds = trace_bounds(config, trace).expect("valid config");
        let measured = engine::simulate(config, trace, &SimOptions::dual_check())
            .expect("valid config")
            .stats;
        if let Some(violation) = bounds.check_contains(&measured) {
            panic!("{}: {violation}", config.name);
        }
        bounds
    }

    #[test]
    fn bounds_contain_engine_on_presets_sequential() {
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
        ] {
            let trace = engine::sequential_trace(0, 4 << 20, 256, Op::Read);
            let b = check(&config, &trace);
            assert!(b.bytes_read.is_exact());
            assert_eq!(b.bytes_read.lo, (4u64 << 20) as f64);
            assert_eq!(b.units_touched(), config.mapping.units());
        }
    }

    #[test]
    fn bounds_contain_engine_on_strided_and_mixed() {
        let config = MemoryConfig::hmc_stack();
        let mut trace = engine::strided_trace(0, 8192, 64, 4096, Op::Read);
        trace.extend(&engine::sequential_trace(1 << 26, 1 << 20, 256, Op::Write));
        let b = check(&config, &trace);
        assert!(b.read_bursts.is_exact() && b.write_bursts.is_exact());
        assert!(b.bytes_written.contains((1u64 << 20) as f64));
    }

    #[test]
    fn burst_counts_match_engine_vault_stats() {
        let config = MemoryConfig::hmc_stack();
        let trace = engine::sequential_trace(4096, 2 << 20, 256, Op::Read);
        let bounds = trace_bounds(&config, &trace).unwrap();
        let run = engine::simulate(&config, &trace, &SimOptions::cycle()).unwrap();
        let measured: Vec<u64> = run
            .vaults
            .iter()
            .map(|v| v.read_bursts + v.write_bursts)
            .collect();
        assert_eq!(bounds.unit_bursts, measured, "per-unit traffic is exact");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let b = trace_bounds(&MemoryConfig::hmc_stack(), &TraceBuffer::new()).unwrap();
        assert_eq!(b.cycles, Interval::ZERO);
        assert_eq!(b.total_bursts(), 0);
        assert_eq!(b.energy, Interval::ZERO);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 0,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        let one = TraceBuffer::from(&[Request::read(0, 64)]);
        assert!(trace_bounds(&c, &one).is_err());
    }

    #[test]
    fn asymmetric_high_region_traffic_lands_on_one_unit() {
        let split = 1u64 << 30;
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Asymmetric {
            low_units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
            split: PhysAddr::new(split),
        };
        let trace = engine::sequential_trace(split, 1 << 20, 64, Op::Read);
        let b = check(&c, &trace);
        assert_eq!(b.units_touched(), 1, "high region is single-unit");
        assert_eq!(b.unit_bursts[2], b.total_bursts());
    }
}
