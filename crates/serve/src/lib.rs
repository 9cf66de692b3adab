//! `mealib-serve`: a certified-admission multi-tenant session
//! scheduler over the MEALib stack.
//!
//! The serving layer closes the loop the interference certifier
//! (`mealib-verify::interference`) opened: instead of certifying
//! hand-built tenant mixes, it runs a discrete-event scheduler whose
//! *only* admission authority is [`certify_set`]'s verdict. Arriving
//! TDL sessions ([`traffic`]) are placed into buddy-allocated vault
//! partitions ([`partition`]), built into session sets from each
//! class body parsed once and certified against the
//! currently-forming batch ([`admission`]),
//! planned through the runtime's cached compiler path ([`batch`]),
//! and replayed through the tagged interleaved engine for exact
//! per-tenant attribution ([`scheduler`]). REJECT verdicts retry with
//! exponential backoff until their MEA3xx proof terminalizes them;
//! UNKNOWN verdicts retry the same way, are shed once the retry budget
//! is spent, and are never admitted. The scheduler holds only that
//! policy: a private ledger records each arrival, [`DecisionEvent`],
//! replay and completion once, deriving the report rows and feeding
//! the optional [`telemetry`] from the same call.
//!
//! Two entry points: [`serve`] returns the [`ServeReport`];
//! [`serve_with_telemetry`] also returns the [`TelemetryReport`] and
//! emits host spans into an `Obs` recorder.
//!
//! Everything is a pure function of (catalogue, traffic spec, config,
//! environment): the same seed reproduces the same admission
//! decisions, queue orders, and per-tenant latency histograms to the
//! bit, at any worker count — the property the determinism and QoS
//! test harnesses pin down.
//!
//! [`certify_set`]: mealib_verify::interference::certify_set

#![forbid(unsafe_code)]

pub mod admission;
pub mod batch;
pub mod decision;
mod ledger;
pub mod metrics;
pub mod partition;
pub mod scheduler;
pub mod session;
pub mod telemetry;
pub mod traffic;

pub use admission::{AdmissionGate, Resident};
pub use batch::DescriptorBatcher;
pub use decision::DecisionEvent;
pub use metrics::{ClassStats, EpochStats, ServeReport};
pub use partition::PartitionTable;
pub use scheduler::{serve, serve_with_telemetry, ServeConfig};
pub use session::{
    Catalogue, CompletedSession, RejectedSession, SessionClass, SessionRequest, ShedReason,
    ShedSession, MIN_SLOT,
};
pub use telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
pub use traffic::{generate, ArrivalMix, ClassShare, Traffic, TrafficSpec};
