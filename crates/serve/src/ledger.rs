//! The serving loop's one record keeper.
//!
//! The scheduler decides; the [`Ledger`] records. Every arrival,
//! decision, replay, completion and epoch end goes through exactly one
//! ledger call, which updates everything that observes it: the report
//! vectors, the decision log, the epoch counters, the `Breakdown`, the
//! host `Obs` spans, and the live [`Telemetry`] when one is attached.
//! A `RejectedSession` or `ShedSession` row is derived from its
//! decision event here and nowhere else, so the rows and the log cannot
//! disagree.

use mealib_memsim::TraceStats;
use mealib_obs::{Breakdown, Obs, Phase};
use mealib_types::{Joules, Seconds};
use mealib_verify::interference::TenantBounds;

use crate::batch::DescriptorBatcher;
use crate::decision::DecisionEvent;
use crate::metrics::{EpochStats, ServeReport};
use crate::session::{CompletedSession, RejectedSession, SessionRequest, ShedSession};
use crate::telemetry::Telemetry;

/// Everything one serving run records.
pub(crate) struct Ledger<'o> {
    obs: &'o Obs,
    tele: Option<Telemetry>,
    /// `false` in stream-only telemetry mode: the registry is the
    /// record, so the per-session vectors and the log stay empty.
    /// Epochs, clock and counters are kept either way.
    retain: bool,
    completed: Vec<CompletedSession>,
    rejected: Vec<RejectedSession>,
    shed: Vec<ShedSession>,
    log: Vec<DecisionEvent>,
    epochs: Vec<EpochStats>,
    /// The epoch being recorded. `None` between epochs: drain-deadline
    /// sheds land after the last epoch closed and count in no epoch.
    open: Option<EpochStats>,
    breakdown: Breakdown,
}

impl<'o> Ledger<'o> {
    pub(crate) fn new(obs: &'o Obs, tele: Option<Telemetry>) -> Self {
        let retain = tele.as_ref().is_none_or(|t| !t.stream_only());
        Self {
            obs,
            tele,
            retain,
            completed: Vec::new(),
            rejected: Vec::new(),
            shed: Vec::new(),
            log: Vec::new(),
            epochs: Vec::new(),
            open: None,
            breakdown: Breakdown::new(),
        }
    }

    /// Opens the ledger line for `epoch`.
    pub(crate) fn open_epoch(&mut self, epoch: u64, clock_s: f64) {
        self.open = Some(EpochStats {
            epoch,
            clock_s,
            ..EpochStats::default()
        });
    }

    fn line(&mut self) -> &mut EpochStats {
        self.open.as_mut().expect("an epoch is open")
    }

    /// A fresh session arrived (before any shed/queue decision).
    pub(crate) fn arrive(&mut self, req: &SessionRequest, clock_s: f64) {
        self.line().arrivals += 1;
        if let Some(t) = &mut self.tele {
            t.on_arrival(req, clock_s);
        }
    }

    /// Records one scheduler decision about a session of `class`: the
    /// log entry, the terminal row it implies, the epoch counter, and
    /// the telemetry hook.
    pub(crate) fn decide(&mut self, ev: DecisionEvent, class: &str, clock_s: f64) {
        if let Some(t) = &mut self.tele {
            t.on_decision(&ev, class, clock_s);
        }
        if let DecisionEvent::Reject {
            epoch,
            id,
            ref codes,
            attempts,
        } = ev
        {
            debug_assert!(!codes.is_empty(), "REJECT always carries its proof");
            if let Some(st) = &mut self.open {
                st.rejected += 1;
            }
            if self.retain {
                self.rejected.push(RejectedSession {
                    id,
                    class: class.to_string(),
                    epoch,
                    codes: codes.clone(),
                    retries: attempts,
                });
            }
        } else if let Some(reason) = ev.shed_reason() {
            if let Some(st) = &mut self.open {
                st.shed += 1;
            }
            if self.retain {
                self.shed.push(ShedSession {
                    id: ev.id(),
                    class: class.to_string(),
                    epoch: ev.epoch(),
                    reason,
                });
            }
        }
        if self.retain {
            self.log.push(ev);
        }
    }

    /// The epoch's admitted batch replayed in `stats.elapsed` modeled
    /// seconds.
    pub(crate) fn replay(&mut self, stats: &TraceStats) {
        let epoch = self.line().epoch;
        self.obs.span(
            Phase::Verify,
            &format!("admit-e{epoch}"),
            Seconds::ZERO,
            Joules::ZERO,
        );
        self.obs.span(
            Phase::Compute,
            &format!("replay-e{epoch}"),
            stats.elapsed,
            stats.energy,
        );
        self.breakdown
            .add_phase(Phase::Compute, stats.elapsed, stats.energy);
        self.line().replay_elapsed_s = stats.elapsed.get();
        if let Some(t) = &mut self.tele {
            t.on_replay(stats.elapsed.get(), stats.energy.get());
        }
    }

    /// One admitted session completed. `epoch_clock_s` is the clock when
    /// the epoch's replay started: one batch's service spans share it,
    /// so they nest in the trace.
    pub(crate) fn complete(
        &mut self,
        epoch_clock_s: f64,
        done: CompletedSession,
        certified: &TenantBounds,
        first_burst_s: f64,
    ) {
        self.line().admitted += 1;
        if let Some(t) = &mut self.tele {
            t.on_completion(epoch_clock_s, &done, certified, first_burst_s);
        }
        if self.retain {
            self.completed.push(done);
        }
    }

    /// Closes the open epoch with its end-of-epoch queue depth and clock.
    pub(crate) fn close_epoch(&mut self, queue_depth_end: usize, clock_s: f64) {
        let mut st = self.open.take().expect("an epoch is open");
        st.queue_depth_end = queue_depth_end;
        st.clock_s = clock_s;
        if let Some(t) = &mut self.tele {
            t.on_epoch_end(&st);
        }
        self.epochs.push(st);
    }

    /// Freezes the run into its report, handing back the telemetry
    /// (with the plan-cache counters exported into it) to finish.
    pub(crate) fn finish(
        mut self,
        batcher: &DescriptorBatcher,
        modeled_s: f64,
        peak_queue_depth: usize,
    ) -> (ServeReport, Option<Telemetry>) {
        if let Some(t) = &mut self.tele {
            batcher.export_metrics(t.registry_mut());
        }
        let report = ServeReport {
            completed: self.completed,
            rejected: self.rejected,
            shed: self.shed,
            epochs: self.epochs,
            decision_log: self.log,
            modeled_s,
            breakdown: self.breakdown,
            peak_queue_depth,
            plans_planned: batcher.planned(),
            plan_cache_hits: batcher.cache_hits(),
            plan_cache_len: batcher.cached_plans(),
        };
        (report, self.tele)
    }
}
