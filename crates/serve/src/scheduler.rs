//! The discrete-event serving loop: arrivals → certified admission →
//! partitioned batch replay → exact attribution.
//!
//! Time advances in *epochs*. Each epoch the scheduler
//!
//! 1. promotes due retries to the front of the wait queue (respecting
//!    the queue bound — overflow retries stay parked, delayed but
//!    never dropped) and takes fresh arrivals at the back
//!    (tail-dropping at `queue_cap`);
//! 2. fills a batch from the queue front: each candidate gets a buddy
//!    partition slot and the grown batch is re-certified through
//!    [`AdmissionGate::certify`] — ADMIT joins; REJECT and UNKNOWN free
//!    the slot and retry with exponential backoff until the retry
//!    budget terminalizes the session (a REJECT carrying its MEA3xx
//!    proof, an UNKNOWN shed as retries exhausted — never admitted);
//! 3. plans the batch's descriptors through the runtime compiler path
//!    (repeat classes batch via the plan cache) and replays the merged
//!    set through the tagged interleaved engine, crediting each tenant
//!    its exact modeled service time, bytes, and energy;
//! 4. advances the modeled clock by the replay's elapsed time and
//!    frees every partition (residency is one epoch).
//!
//! The loop holds only policy — queue, partitions, certification,
//! backoff. Every fact it establishes goes to the private `Ledger` in one
//! call, which keeps the report, the decision log, and the telemetry.
//!
//! The loop is a pure function of (catalogue, traffic, config,
//! environment): no wall-clock, no ambient randomness, `BTreeMap`
//! ordering throughout — the property the determinism harness pins
//! down to the bit.

use std::collections::{BTreeMap, VecDeque};

use mealib_memsim::{simulate_tenants, SimOptions};
use mealib_obs::Obs;
use mealib_verify::interference::{resolved_set_config, tenant_streams};
use mealib_verify::{BoundsEnv, Verdict};

use crate::admission::{AdmissionGate, Resident};
use crate::batch::DescriptorBatcher;
use crate::decision::DecisionEvent;
use crate::ledger::Ledger;
use crate::metrics::ServeReport;
use crate::partition::PartitionTable;
use crate::session::{Catalogue, CompletedSession, SessionRequest, ShedReason};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
use crate::traffic::Traffic;

/// Admission attempts past the first before a REJECT terminalizes (or
/// an UNKNOWN is shed as [`ShedReason::RetriesExhausted`]).
const MAX_RETRIES: u32 = 3;

/// Scheduler knobs. The defaults serve the standard catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Partitionable device bytes (power of two; sessions whose slot
    /// exceeds this are shed on arrival — they can never be placed).
    pub capacity: u64,
    /// Most tenants resident (replayed together) per epoch.
    pub max_resident: usize,
    /// Wait-queue depth; arrivals beyond it are tail-dropped.
    pub queue_cap: usize,
    /// Worker threads for the epoch replay (bit-exact at any value).
    pub jobs: usize,
    /// Request-slot arrival stagger between batch positions.
    pub stagger_slots: u64,
    /// Drain deadline: at this epoch everything still unserved is shed
    /// with [`ShedReason::DrainDeadline`]. `u64::MAX` disables it.
    pub max_epochs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 31,
            max_resident: 4,
            queue_cap: 64,
            jobs: 1,
            stagger_slots: 64,
            max_epochs: u64::MAX,
        }
    }
}

/// A queued session awaiting admission.
#[derive(Debug, Clone)]
struct Pending {
    req: SessionRequest,
    attempts: u32,
    arrival_clock_s: f64,
}

/// Runs the serving loop without observability.
///
/// # Panics
///
/// Panics if `traffic` names a class the catalogue does not carry, or
/// on internal invariant violations (certified batches that fail to
/// replay).
pub fn serve(
    catalogue: &Catalogue,
    traffic: &Traffic,
    config: &ServeConfig,
    env: &BoundsEnv,
) -> ServeReport {
    serve_core(catalogue, traffic, config, env, &Obs::off(), None).0
}

/// Runs the serving loop with live telemetry — streaming metric
/// sketches, the per-session lifecycle trace, and the SLO /
/// certified-bounds engines, all driven by the modeled clock — and
/// emits admission (`Verify`) and replay (`Compute`) spans into `obs`.
///
/// With [`TelemetryConfig::stream_only`] the report's per-session
/// vectors and decision log come back empty — the telemetry registry
/// is the record and run memory stays `O(classes × buckets + epochs)`.
///
/// # Panics
///
/// Panics as [`serve`] does.
pub fn serve_with_telemetry(
    catalogue: &Catalogue,
    traffic: &Traffic,
    config: &ServeConfig,
    env: &BoundsEnv,
    obs: &Obs,
    telemetry: &TelemetryConfig,
) -> (ServeReport, TelemetryReport) {
    let tele = Telemetry::new(telemetry);
    let (report, tele) = serve_core(catalogue, traffic, config, env, obs, Some(tele));
    let tele = tele.expect("the ledger hands back its telemetry");
    let tele_report = tele.finish(report.modeled_s, report.peak_queue_depth);
    (report, tele_report)
}

/// The epoch loop shared by both entry points.
fn serve_core(
    catalogue: &Catalogue,
    traffic: &Traffic,
    config: &ServeConfig,
    env: &BoundsEnv,
    obs: &Obs,
    tele: Option<Telemetry>,
) -> (ServeReport, Option<Telemetry>) {
    let gate = AdmissionGate::new(env.clone());
    let mut table = PartitionTable::new(config.capacity);
    let mut batcher = DescriptorBatcher::new(catalogue);
    let mut ledger = Ledger::new(obs, tele);

    let mut queue: VecDeque<Pending> = VecDeque::new();
    // Backoff parking: keyed (eligible epoch, id) so promotion order is
    // deterministic and oldest-first.
    let mut parked: BTreeMap<(u64, u64), Pending> = BTreeMap::new();

    let sessions = &traffic.sessions;
    let mut arr_idx = 0usize;
    let mut clock_s = 0.0f64;
    let mut peak_queue = 0usize;

    let mut epoch = 0u64;
    loop {
        if arr_idx >= sessions.len() && queue.is_empty() && parked.is_empty() {
            break;
        }
        if epoch >= config.max_epochs {
            // Drain deadline: everything unserved is shed, so every
            // generated session still gets exactly one disposition.
            let parked = std::mem::take(&mut parked).into_values();
            let unserved = queue.drain(..).chain(parked).map(|p| p.req);
            for req in unserved.chain(sessions[arr_idx..].iter().cloned()) {
                let ev = DecisionEvent::ShedDrain { epoch, id: req.id };
                ledger.decide(ev, &req.class, clock_s);
            }
            break;
        }
        ledger.open_epoch(epoch, clock_s);

        // (1a) Promote due retries to the queue front, oldest first.
        // Promotion respects the queue bound: retries past it stay
        // parked (delayed one epoch, never dropped), so the queue
        // never exceeds `queue_cap` — the hard bound the shed policy
        // promises.
        let room = config.queue_cap.saturating_sub(queue.len());
        let due: Vec<(u64, u64)> = parked
            .range(..=(epoch, u64::MAX))
            .map(|(k, _)| *k)
            .take(room)
            .collect();
        for key in due.into_iter().rev() {
            let p = parked.remove(&key).expect("key just listed");
            queue.push_front(p);
        }

        // (1b) Fresh arrivals at the back, tail-dropping at capacity.
        while arr_idx < sessions.len() && sessions[arr_idx].arrival_epoch == epoch {
            let req = sessions[arr_idx].clone();
            arr_idx += 1;
            ledger.arrive(&req, clock_s);
            let class = catalogue
                .get(&req.class)
                .unwrap_or_else(|| panic!("unknown traffic class {}", req.class));
            let id = req.id;
            if class.slot > config.capacity {
                let ev = DecisionEvent::ShedSlot { epoch, id };
                ledger.decide(ev, &req.class, clock_s);
            } else if queue.len() >= config.queue_cap {
                let ev = DecisionEvent::ShedQueueFull { epoch, id };
                ledger.decide(ev, &req.class, clock_s);
            } else {
                queue.push_back(Pending {
                    req,
                    attempts: 0,
                    arrival_clock_s: clock_s,
                });
            }
        }
        peak_queue = peak_queue.max(queue.len());

        // (2) Fill the batch from the queue front, certifying each
        // growth step.
        let mut batch: Vec<Resident> = Vec::new();
        let mut batch_meta: Vec<Pending> = Vec::new();
        let mut admitted_cert = None;
        while batch.len() < config.max_resident && !queue.is_empty() {
            let mut p = queue.pop_front().expect("non-empty queue");
            let class = catalogue.get(&p.req.class).expect("checked on arrival");
            let Some(partition) = table.alloc(class.slot) else {
                // Head-of-line waits for space; residency is one epoch,
                // so space returns next epoch.
                queue.push_front(p);
                break;
            };
            let candidate = Resident::place(
                p.req.clone(),
                &class.body,
                partition,
                batch.len() as u64 * config.stagger_slots,
            );
            let mut trial = batch.clone();
            trial.push(candidate.clone());
            let (set, cert) = gate.certify(&trial);
            p.attempts += 1;
            let (id, attempt) = (p.req.id, p.attempts);
            if cert.verdict == Verdict::Admit {
                let ev = DecisionEvent::Admit {
                    epoch,
                    id,
                    class: p.req.class.clone(),
                    part_start: partition.start().get(),
                    part_len: partition.len().get(),
                    attempt,
                };
                ledger.decide(ev, &p.req.class, clock_s);
                batch.push(candidate);
                batch_meta.push(p);
                admitted_cert = Some((set, cert));
                continue;
            }
            // REJECT and UNKNOWN alike: free the slot and back off; once
            // the retry budget is spent, a REJECT terminalizes with its
            // proof and an UNKNOWN is shed (never admitted).
            table.free(partition);
            let rejected = cert.verdict == Verdict::Reject;
            if attempt > MAX_RETRIES {
                let ev = if rejected {
                    DecisionEvent::Reject {
                        epoch,
                        id,
                        codes: cert.codes(),
                        attempts: attempt,
                    }
                } else {
                    DecisionEvent::ShedPolicy {
                        epoch,
                        id,
                        reason: ShedReason::RetriesExhausted,
                        attempts: attempt,
                    }
                };
                ledger.decide(ev, &p.req.class, clock_s);
            } else {
                // Eligible again after 2^(attempt - 1) epochs.
                let until = epoch + 1 + (1 << (attempt - 1));
                let ev = if rejected {
                    DecisionEvent::Backoff {
                        epoch,
                        id,
                        until_epoch: until,
                        attempt,
                    }
                } else {
                    DecisionEvent::UnknownRetry {
                        epoch,
                        id,
                        retry_epoch: until,
                        attempt,
                    }
                };
                ledger.decide(ev, &p.req.class, clock_s);
                parked.insert((until, id), p);
            }
        }

        // (3) Plan descriptors and replay the admitted batch.
        if let Some((set, cert)) = admitted_cert {
            for r in &batch {
                let class = catalogue.get(&r.request.class).expect("admitted class");
                batcher.plan_class(&class.body);
            }
            let cfg = resolved_set_config(&set, gate.env());
            let streams = tenant_streams(&set);
            let opts = SimOptions {
                jobs: config.jobs,
                ..SimOptions::default()
            };
            let run = simulate_tenants(&cfg, &streams, &opts).expect("certified batches replay");
            ledger.replay(&run.stats);
            for (i, (r, p)) in batch.iter().zip(&batch_meta).enumerate() {
                let t = &run.tenants[i];
                let tb = &cert.bounds.tenants[i];
                let done = CompletedSession {
                    id: r.request.id,
                    class: r.request.class.clone(),
                    admitted_epoch: epoch,
                    queue_delay_s: clock_s - p.arrival_clock_s,
                    service_s: t.elapsed.get(),
                    bytes: t.bytes_read.get() + t.bytes_written.get(),
                    energy_j: t.energy.get(),
                    partition: r.partition,
                    certified_elapsed_lo: tb.elapsed.lo,
                    certified_elapsed_hi: tb.elapsed.hi,
                    retries: p.attempts - 1,
                };
                ledger.complete(clock_s, done, tb, t.first_elapsed.get());
            }
            clock_s += run.stats.elapsed.get();
            // (4) Residency is one epoch: return every slot.
            for r in &batch {
                table.free(r.partition);
            }
        }

        ledger.close_epoch(queue.len(), clock_s);
        epoch += 1;
    }

    ledger.finish(&batcher, clock_s, peak_queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficSpec};

    fn small_spec(cat: &Catalogue, seed: u64) -> TrafficSpec {
        let mut spec = TrafficSpec::poisson(cat, seed, 6, 2.0);
        // Small classes keep the unit tests quick; the big scales are
        // exercised by the bench and the soak test. A fat impossible
        // tier makes a proved rejection all but certain per stream.
        spec.classes.retain(|c| {
            matches!(
                c.class.as_str(),
                "stap-tiny" | "sar-chain-256" | "sar-loop-256"
            )
        });
        spec.p_impossible = 0.3;
        spec
    }

    #[test]
    fn serve_disposes_every_session_and_reconciles() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let traffic = generate(&cat, &small_spec(&cat, 5));
        assert!(!traffic.sessions.is_empty());
        let report = serve(
            &cat,
            &traffic,
            &ServeConfig::default(),
            &BoundsEnv::default(),
        );
        assert_eq!(report.total_sessions(), traffic.sessions.len());
        report
            .check_conservation(&traffic, &cat)
            .expect("conservation holds");
        assert!((report.admission_soundness() - 1.0).abs() < f64::EPSILON);
        assert!(!report.completed.is_empty(), "generous sessions complete");
        assert!(!report.rejected.is_empty(), "impossible budgets reject");
        for r in &report.rejected {
            assert!(!r.codes.is_empty(), "s{}: rejection without a proof", r.id);
        }
        // Breakdown reconciles with the modeled clock exactly.
        assert_eq!(
            report.breakdown_compute_s().to_bits(),
            report.modeled_s.to_bits()
        );
        // Clock is monotone across epochs.
        for w in report.epochs.windows(2) {
            assert!(w[1].clock_s >= w[0].clock_s);
        }
    }

    #[test]
    fn shed_policy_bounds_the_queue() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut spec = small_spec(&cat, 9);
        spec.mix = crate::traffic::ArrivalMix::Poisson {
            mean_per_epoch: 12.0,
        };
        let traffic = generate(&cat, &spec);
        let config = ServeConfig {
            queue_cap: 4,
            max_resident: 2,
            ..ServeConfig::default()
        };
        let report = serve(&cat, &traffic, &config, &BoundsEnv::default());
        assert!(report.peak_queue_depth <= 4);
        assert!(
            report
                .shed
                .iter()
                .any(|s| s.reason == ShedReason::QueueFull),
            "overload must tail-drop"
        );
        report
            .check_conservation(&traffic, &cat)
            .expect("conservation holds under shed");
    }

    #[test]
    fn drain_deadline_sheds_leftovers_with_conservation() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let traffic = generate(&cat, &small_spec(&cat, 3));
        let config = ServeConfig {
            max_epochs: 2,
            ..ServeConfig::default()
        };
        let report = serve(&cat, &traffic, &config, &BoundsEnv::default());
        assert!(report
            .shed
            .iter()
            .any(|s| s.reason == ShedReason::DrainDeadline));
        report
            .check_conservation(&traffic, &cat)
            .expect("deadline preserves conservation");
    }
}
