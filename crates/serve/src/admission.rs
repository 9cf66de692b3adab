//! The admission gate: `certify_set` as the scheduler's only door.
//!
//! Every epoch the scheduler proposes a batch of resident candidates;
//! the gate builds them into a session set (one tenant per candidate:
//! its partition, its arrival stagger, its declared time budget, and
//! its class body rebased into the slot) and asks [`certify_set`] for
//! a verdict. The scheduler never admits on its own authority: ADMIT
//! means the certifier *proved* isolation and every declared ceiling,
//! REJECT comes with the MEA3xx proof attached, and UNKNOWN is never
//! admitted: the scheduler retries it in a later batch and sheds it
//! once the retry budget is spent.
//!
//! The set is built structurally, not from text: the gate parses each
//! distinct class body once, on first sight, and places a tenant by
//! moving the parsed session's extents into its slot
//! ([`Session::rebased`]). [`AdmissionGate::manifest`] renders the same
//! batch as a session-set manifest for export; parsing that manifest
//! gives the same verdict, proof, report and bounds as
//! [`AdmissionGate::certify`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use mealib_verify::dataflow::{parse_session, MemLayer, Session};
use mealib_verify::interference::{certify_set, Certification, SessionSet, TenantDecl};
use mealib_verify::BoundsEnv;
use mealib_workloads::sessions::rebase_session;

use mealib_types::AddrRange;

use crate::session::SessionRequest;

/// One candidate (or already-accepted member) of an epoch batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Resident {
    /// The session being placed.
    pub request: SessionRequest,
    /// The partition slot offered to it.
    pub partition: AddrRange,
    /// Request-slot arrival offset inside the epoch's merged replay.
    pub arrival_slot: u64,
    /// The class's canonical body, not rebased: the gate moves its
    /// parsed extents to the partition base. Shared, so cloning a batch
    /// copies no text.
    pub body: Arc<str>,
}

impl Resident {
    /// Places `request` into `partition` with the given stagger; its
    /// class body `canonical_body` is rebased to the slot base when the
    /// batch is certified or rendered.
    pub fn place(
        request: SessionRequest,
        canonical_body: &str,
        partition: AddrRange,
        arrival_slot: u64,
    ) -> Self {
        Self {
            request,
            partition,
            arrival_slot,
            body: canonical_body.into(),
        }
    }

    /// The manifest tenant name: stable, unique per session id.
    pub fn tenant_name(&self) -> String {
        format!("s{}", self.request.id)
    }

    /// The manifest lines this resident's tenant section takes before
    /// its body: `TENANT`, `PARTITION`, and `ARRIVAL`/`BUDGET TIME`
    /// when present.
    fn header_lines(&self) -> usize {
        2 + usize::from(self.arrival_slot > 0) + usize::from(self.request.time_budget_s.is_some())
    }
}

/// A class body parsed once: the session every placement of the class
/// is rebased from, and the manifest lines the body takes.
#[derive(Debug, Clone)]
struct ParsedClass {
    session: Session,
    lines: usize,
}

impl ParsedClass {
    /// # Panics
    ///
    /// Panics if `body` fails to parse or carries its own `MEM`
    /// directive (the layer is the gate's): class bodies are in-tree,
    /// so either is a scheduler bug, not an input condition.
    fn parse(body: &str) -> Self {
        let session = parse_session(body).expect("class bodies parse");
        assert!(
            session.mem_layer.is_none(),
            "class bodies leave the memory layer to the gate"
        );
        Self {
            session,
            lines: body.lines().count(),
        }
    }
}

/// The admission gate: environment, the optional §4.2 asymmetric
/// boundary every batch shares, and every class body it has parsed.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    env: BoundsEnv,
    /// When set, every batch runs on the asymmetric layer split at
    /// `split` (a manifest opens with `MEM ASYM <split>`): the shared
    /// layer carves a dedicated high region at `split`, so tenants
    /// placed above it own their unit outright.
    asym_split: Option<u64>,
    /// Canonical class body → its parse, filled on first sight and
    /// bounded by the number of distinct bodies.
    classes: RefCell<HashMap<Arc<str>, ParsedClass>>,
}

impl AdmissionGate {
    /// A gate over `env` with the interleaved shared layer.
    pub fn new(env: BoundsEnv) -> Self {
        Self {
            env,
            asym_split: None,
            classes: RefCell::default(),
        }
    }

    /// Switches every batch to the asymmetric layer split at `split`
    /// (callers should pick a power of two at least as large as the
    /// biggest partition slot, so no slot straddles the boundary —
    /// buddy slots are self-aligned).
    pub fn with_asym_split(mut self, split: u64) -> Self {
        self.asym_split = Some(split);
        self
    }

    /// The environment verdicts are judged against.
    pub fn env(&self) -> &BoundsEnv {
        &self.env
    }

    /// Renders the session-set manifest for `batch`: the text form of
    /// the set [`AdmissionGate::certify`] builds. Float budgets
    /// round-trip exactly (Rust float formatting is shortest-exact).
    pub fn manifest(&self, batch: &[Resident]) -> String {
        let mut src = String::new();
        if let Some(split) = self.asym_split {
            src.push_str(&format!("MEM ASYM 0x{split:x}\n"));
        }
        for r in batch {
            src.push_str(&format!("TENANT {}\n", r.tenant_name()));
            src.push_str(&format!(
                "PARTITION 0x{:x} 0x{:x}\n",
                r.partition.start().get(),
                r.partition.len().get()
            ));
            if r.arrival_slot > 0 {
                src.push_str(&format!("ARRIVAL {}\n", r.arrival_slot));
            }
            if let Some(b) = r.request.time_budget_s {
                src.push_str(&format!("BUDGET TIME {b}\n"));
            }
            src.push_str(&rebase_session(&r.body, r.partition.start().get()));
        }
        src
    }

    /// Certifies `batch`, returning the session set (the replay input)
    /// and the certification (verdict + proof + bounds).
    ///
    /// The set is what parsing [`AdmissionGate::manifest`] gives, down
    /// to the tenant and partition lines the report cites; only each
    /// tenant session's own spans stay relative to its class body.
    ///
    /// # Panics
    ///
    /// Panics if a class body fails to parse, a rebased extent wraps
    /// the address space, or the preset environment fails validation —
    /// all scheduler bugs, not input conditions.
    pub fn certify(&self, batch: &[Resident]) -> (SessionSet, Certification) {
        let mut classes = self.classes.borrow_mut();
        let mut line = 1 + usize::from(self.asym_split.is_some());
        let mut tenants = Vec::with_capacity(batch.len());
        for r in batch {
            let class = classes
                .entry(Arc::clone(&r.body))
                .or_insert_with(|| ParsedClass::parse(&r.body));
            let mut session = class
                .session
                .rebased(r.partition.start().get())
                .expect("partition slots lie inside the address space");
            // The manifest's `BUDGET TIME` line precedes the body, so a
            // budget the body declares itself would win.
            session.budgets.time_s = session.budgets.time_s.or(r.request.time_budget_s);
            tenants.push(TenantDecl {
                name: r.tenant_name(),
                line,
                partition: Some((line + 1, r.partition)),
                arrival: r.arrival_slot,
                session,
            });
            line += r.header_lines() + class.lines;
        }
        let set = SessionSet {
            tenants,
            budgets: Default::default(),
            mem_layer: self.asym_split.map(|split| (1, MemLayer::Asym(split))),
        };
        let cert = certify_set(&set, &self.env).expect("preset env validates");
        (set, cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Catalogue;
    use mealib_types::{Bytes, PhysAddr};
    use mealib_verify::Verdict;

    fn place(cat: &Catalogue, id: u64, class: &str, base: u64, budget: Option<f64>) -> Resident {
        let c = cat.get(class).unwrap();
        Resident::place(
            SessionRequest {
                id,
                class: class.into(),
                arrival_epoch: 0,
                time_budget_s: budget,
            },
            &c.body,
            AddrRange::new(PhysAddr::new(base), Bytes::new(c.slot)),
            id * 64,
        )
    }

    #[test]
    fn disjoint_generous_batch_admits() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let gate = AdmissionGate::new(BoundsEnv::default());
        let slot = cat.get("stap-tiny").unwrap().slot;
        let hi = cat.get("stap-tiny").unwrap().solo_elapsed.1;
        let batch = vec![
            place(&cat, 0, "stap-tiny", 0, Some(hi * 100.0)),
            place(&cat, 1, "stap-tiny", slot, None),
        ];
        let (set, cert) = gate.certify(&batch);
        assert_eq!(cert.verdict, Verdict::Admit, "{}", cert.report.render());
        assert_eq!(set.tenants.len(), 2);
        assert_eq!(set.tenants[0].name, "s0");
        assert_eq!(set.tenants[1].arrival, 64);
        assert!(cert.codes().is_empty());
    }

    #[test]
    fn each_class_body_is_parsed_once() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let gate = AdmissionGate::new(BoundsEnv::default());
        let slot = cat.get("stap-tiny").unwrap().slot;
        let batch = vec![
            place(&cat, 0, "stap-tiny", 0, None),
            place(&cat, 1, "sar-chain-256", slot, None),
            place(&cat, 2, "stap-tiny", 2 * slot, None),
        ];
        let (set, _) = gate.certify(&batch);
        gate.certify(&batch[..1]);
        assert_eq!(gate.classes.borrow().len(), 2);
        // Each tenant's extents moved to its own slot.
        for (t, r) in set.tenants.iter().zip(&batch) {
            for ext in t.session.extents.values() {
                assert!(r.partition.start() <= ext.start() && ext.end() <= r.partition.end());
            }
        }
    }

    #[test]
    fn impossible_budget_rejects_with_a_proof() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let gate = AdmissionGate::new(BoundsEnv::default());
        let lo = cat.get("stap-tiny").unwrap().solo_elapsed.0;
        let batch = vec![place(&cat, 0, "stap-tiny", 0, Some(lo * 0.5))];
        let (_, cert) = gate.certify(&batch);
        assert_eq!(cert.verdict, Verdict::Reject);
        let codes = cert.codes();
        assert!(!codes.is_empty(), "a REJECT always carries its proof");
        assert!(codes.contains(&mealib_types::ErrorCode::InterfereLatencyBudget));
    }

    #[test]
    fn budget_text_round_trips_exactly() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let gate = AdmissionGate::new(BoundsEnv::default());
        // An awkward, non-terminating mantissa: exercises the full
        // float-to-text-to-float path, not a round decimal.
        let budget = std::f64::consts::FRAC_PI_3 * 1e-3;
        let batch = vec![place(&cat, 7, "sar-chain-256", 0, Some(budget))];
        let (set, _) = gate.certify(&batch);
        assert_eq!(set.tenants[0].session.budgets.time_s, Some(budget));
    }

    #[test]
    fn asym_split_selects_the_shared_asymmetric_layer() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let split = 1u64 << 29;
        let gate = AdmissionGate::new(BoundsEnv::default()).with_asym_split(split);
        let batch = vec![place(&cat, 0, "stap-tiny", 0, None)];
        let src = gate.manifest(&batch);
        assert!(src.starts_with(&format!("MEM ASYM 0x{split:x}\n")));
        let (set, cert) = gate.certify(&batch);
        assert!(set.mem_layer.is_some());
        // Isolation still provable under the asymmetric layer.
        assert_ne!(cert.verdict, Verdict::Reject, "{}", cert.report.render());
    }
}
