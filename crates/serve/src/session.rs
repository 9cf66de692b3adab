//! Session requests, their terminal dispositions, and the class
//! catalogue the traffic generator draws from.
//!
//! A *class* is one of the evaluation pipelines
//! ([`mealib_workloads::sessions::pipeline_sessions`]) expressed as a
//! canonical analysis session; a *session request* is one arriving
//! instance of a class with a tenant-visible time budget. The
//! admission gate parses each class's canonical body once and moves
//! its extents into whatever partition slot the candidate is offered
//! ([`Session::rebased`](mealib_verify::dataflow::Session::rebased));
//! no body is rendered or re-parsed per placement. The catalogue
//! caches per-class geometry once: the byte span a slot must cover
//! and the exact trace bytes the class emits (the conservation tests
//! reconcile scheduler output against the latter).

use std::collections::BTreeMap;

use mealib_types::{AddrRange, ErrorCode};
use mealib_verify::interference::compose;
use mealib_verify::BoundsEnv;
use mealib_workloads::sessions::{pipeline_sessions, session_span};

/// Smallest partition slot ever offered: keeps a generous guard band
/// between tenants regardless of session size (same convention as the
/// `tenant_mix` harness).
pub const MIN_SLOT: u64 = 1 << 22;

/// One class of the serving catalogue: a canonical session body plus
/// the geometry the scheduler needs to place and account for it.
#[derive(Debug, Clone)]
pub struct SessionClass {
    /// Class name (the pipeline session's name).
    pub name: String,
    /// Canonical session body (buffers laid out from the exporter's
    /// small base).
    pub body: String,
    /// Power-of-two slot size a partition must provide.
    pub slot: u64,
    /// Exact trace bytes one instance moves (read + write, over
    /// declared extents).
    pub trace_bytes: u64,
    /// Certified solo elapsed interval `[lo, hi]` in seconds: the
    /// class run alone in its slot under the default environment. The
    /// traffic generator prices budgets off these endpoints.
    pub solo_elapsed: (f64, f64),
}

/// The class catalogue: every pipeline session, keyed by name, with
/// cached geometry and solo bounds.
#[derive(Debug, Clone)]
pub struct Catalogue {
    classes: BTreeMap<String, SessionClass>,
}

impl Catalogue {
    /// Builds the catalogue from the evaluation pipelines under `env`.
    ///
    /// # Panics
    ///
    /// Panics if a pipeline session fails to parse or certify — the
    /// exporters and the environment presets are both in-tree, so
    /// that is a bug, not an input condition.
    pub fn standard(env: &BoundsEnv) -> Self {
        let mut classes = BTreeMap::new();
        for (name, body) in pipeline_sessions() {
            let slot = session_span(&body).next_power_of_two().max(MIN_SLOT);
            // Solo bounds: the class as a single-tenant set in a slot
            // at base 0 (the canonical layout already fits it).
            let manifest = format!("TENANT solo\nPARTITION 0x0 0x{slot:x}\n{body}");
            let set = mealib_verify::interference::parse_session_set(&manifest)
                .expect("catalogue sessions parse");
            let bounds = compose(&set, env).expect("preset env validates");
            let t = &bounds.tenants[0];
            let trace_bytes = t.total_bytes() as u64;
            classes.insert(
                name.clone(),
                SessionClass {
                    name,
                    body,
                    slot,
                    trace_bytes,
                    solo_elapsed: (t.elapsed.lo, t.elapsed.hi),
                },
            );
        }
        Self { classes }
    }

    /// The class named `name`.
    pub fn get(&self, name: &str) -> Option<&SessionClass> {
        self.classes.get(name)
    }

    /// All classes in name order.
    pub fn classes(&self) -> impl Iterator<Item = &SessionClass> {
        self.classes.values()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when the catalogue is empty (never for
    /// [`Catalogue::standard`]).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// One arriving session: an instance of a class with a declared
/// per-tenant time budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Unique id, assigned by the traffic generator in arrival order.
    pub id: u64,
    /// Catalogue class this session runs.
    pub class: String,
    /// Scheduling epoch the session arrives in.
    pub arrival_epoch: u64,
    /// Declared per-tenant time budget in seconds (`None` = best
    /// effort; always admitted-if-isolated, never latency-certified).
    pub time_budget_s: Option<f64>,
}

/// Why a session was shed instead of completed or rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue was at capacity when the session arrived
    /// (tail-drop: the *incoming* session is shed, residents keep
    /// their place).
    QueueFull,
    /// The session exhausted its retry budget on UNKNOWN verdicts
    /// without the certifier ever proving a violation.
    RetriesExhausted,
    /// The session can never be placed at all: its slot exceeds the
    /// partition table.
    Undecidable,
    /// The run hit its drain deadline (`max_epochs`) with the session
    /// still queued.
    DrainDeadline,
}

impl ShedReason {
    /// Stable lowercase label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RetriesExhausted => "retries_exhausted",
            ShedReason::Undecidable => "undecidable",
            ShedReason::DrainDeadline => "drain_deadline",
        }
    }
}

/// A session that ran to completion, with its exact attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSession {
    /// The request's id.
    pub id: u64,
    /// The request's class.
    pub class: String,
    /// Epoch the session was admitted (and ran) in.
    pub admitted_epoch: u64,
    /// Modeled queueing delay: clock at admission minus clock at
    /// arrival.
    pub queue_delay_s: f64,
    /// Modeled service time: the tenant's attributed completion in its
    /// epoch replay.
    pub service_s: f64,
    /// Bytes the tenant's own requests moved (exact, from the tagged
    /// engine).
    pub bytes: u64,
    /// DRAM energy attributed to the tenant, in joules.
    pub energy_j: f64,
    /// The partition slot the session ran in.
    pub partition: AddrRange,
    /// The certified elapsed floor the admission proved
    /// (`certified_elapsed_lo <= service_s` always — the telemetry's
    /// certified-bounds monitor checks both ends of the interval).
    pub certified_elapsed_lo: f64,
    /// The certified elapsed ceiling the admission proved
    /// (`service_s <= certified_elapsed_hi` always).
    pub certified_elapsed_hi: f64,
    /// Admission attempts before this one succeeded.
    pub retries: u32,
}

impl CompletedSession {
    /// End-to-end modeled latency: queueing delay plus service.
    pub fn latency_s(&self) -> f64 {
        self.queue_delay_s + self.service_s
    }

    /// Attributed bandwidth over the service interval, bytes/second.
    pub fn bandwidth(&self) -> f64 {
        if self.service_s > 0.0 {
            self.bytes as f64 / self.service_s
        } else {
            0.0
        }
    }
}

/// A session the certifier *proved* could not be admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedSession {
    /// The request's id.
    pub id: u64,
    /// The request's class.
    pub class: String,
    /// Epoch of the final (terminal) rejection.
    pub epoch: u64,
    /// The MEA3xx codes `certify_set` proved on the last attempt —
    /// never empty: a REJECT verdict always carries its proof.
    pub codes: Vec<ErrorCode>,
    /// Admission attempts made (including the terminal one).
    pub retries: u32,
}

/// A session dropped by policy rather than proof.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedSession {
    /// The request's id.
    pub id: u64,
    /// The request's class.
    pub class: String,
    /// Epoch the shed happened in.
    pub epoch: u64,
    /// Which policy shed it.
    pub reason: ShedReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_every_pipeline_with_sane_geometry() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        assert_eq!(cat.len(), pipeline_sessions().len());
        assert!(!cat.is_empty());
        for class in cat.classes() {
            assert!(class.slot.is_power_of_two());
            assert!(class.slot >= MIN_SLOT);
            assert!(class.slot >= session_span(&class.body));
            assert!(class.trace_bytes > 0, "{}", class.name);
            let (lo, hi) = class.solo_elapsed;
            assert!(0.0 < lo && lo <= hi, "{}: [{lo}, {hi}]", class.name);
        }
        assert!(cat.get("stap-tiny").is_some());
        assert!(cat.get("no-such-class").is_none());
    }

    #[test]
    fn catalogue_trace_bytes_equal_the_elaborated_body() {
        // The catalogue reads each class's bytes off its composed solo
        // bounds; they must be exactly what the body elaborates to.
        let cat = Catalogue::standard(&BoundsEnv::default());
        for class in cat.classes() {
            let session = mealib_verify::dataflow::parse_session(&class.body).unwrap();
            let e = mealib_verify::bounds::elaborate(&session);
            assert_eq!(class.trace_bytes, e.trace.total_bytes(), "{}", class.name);
        }
    }

    #[test]
    fn completed_session_derives_latency_and_bandwidth() {
        let done = CompletedSession {
            id: 1,
            class: "stap-tiny".into(),
            admitted_epoch: 3,
            queue_delay_s: 0.5,
            service_s: 0.25,
            bytes: 1 << 20,
            energy_j: 0.1,
            partition: AddrRange::new(
                mealib_types::PhysAddr::new(0),
                mealib_types::Bytes::new(MIN_SLOT),
            ),
            certified_elapsed_lo: 0.1,
            certified_elapsed_hi: 0.3,
            retries: 0,
        };
        assert!((done.latency_s() - 0.75).abs() < 1e-12);
        assert!((done.bandwidth() - (1u64 << 20) as f64 / 0.25).abs() < 1e-6);
    }

    #[test]
    fn shed_reason_labels_are_stable() {
        assert_eq!(ShedReason::QueueFull.label(), "queue_full");
        assert_eq!(ShedReason::DrainDeadline.label(), "drain_deadline");
    }
}
