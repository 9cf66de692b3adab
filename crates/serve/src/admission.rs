//! The admission gate: manifest rendering and `certify_set` as the
//! scheduler's only door.
//!
//! Every epoch the scheduler proposes a batch of resident candidates;
//! the gate renders them as a PR-8 session-set manifest (one `TENANT`
//! section per candidate: its partition, its arrival stagger, its
//! declared `BUDGET TIME`, and its class body rebased into the slot)
//! and asks [`certify_set`] for a verdict. The scheduler never admits
//! on its own authority: ADMIT means the certifier *proved* isolation
//! and every declared ceiling, REJECT comes with the MEA3xx proof
//! attached, and UNKNOWN is never admitted: the scheduler retries it
//! in a later batch and sheds it once the retry budget is spent.

use mealib_verify::interference::{certify_set, parse_session_set, Certification, SessionSet};
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
    /// The class body rebased into the partition slot.
    pub body: String,
}

impl Resident {
    /// Places `request` into `partition` with the given stagger,
    /// rebasing `canonical_body` to the slot base.
    pub fn place(
        request: SessionRequest,
        canonical_body: &str,
        partition: AddrRange,
        arrival_slot: u64,
    ) -> Self {
        let body = rebase_session(canonical_body, partition.start().get());
        Self {
            request,
            partition,
            arrival_slot,
            body,
        }
    }

    /// The manifest tenant name: stable, unique per session id.
    pub fn tenant_name(&self) -> String {
        format!("s{}", self.request.id)
    }
}

/// The admission gate: environment plus the optional §4.2 asymmetric
/// boundary every manifest shares.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    env: BoundsEnv,
    /// When set, every manifest opens with `MEM ASYM <split>`: the
    /// shared layer carves a dedicated high region at `split`, so
    /// tenants placed above it own their unit outright.
    asym_split: Option<u64>,
}

impl AdmissionGate {
    /// A gate over `env` with the interleaved shared layer.
    pub fn new(env: BoundsEnv) -> Self {
        Self {
            env,
            asym_split: None,
        }
    }

    /// Switches every manifest to the asymmetric layer split at
    /// `split` (callers should pick a power of two at least as large
    /// as the biggest partition slot, so no slot straddles the
    /// boundary — buddy slots are self-aligned).
    pub fn with_asym_split(mut self, split: u64) -> Self {
        self.asym_split = Some(split);
        self
    }

    /// The environment verdicts are judged against.
    pub fn env(&self) -> &BoundsEnv {
        &self.env
    }

    /// Renders the session-set manifest for `batch`. Float budgets
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
            src.push_str(&r.body);
        }
        src
    }

    /// Certifies `batch`, returning the parsed set (the replay input)
    /// and the certification (verdict + proof + bounds).
    ///
    /// # Panics
    ///
    /// Panics if the rendered manifest fails to parse or the preset
    /// environment fails validation — both are scheduler bugs, not
    /// input conditions.
    pub fn certify(&self, batch: &[Resident]) -> (SessionSet, Certification) {
        let src = self.manifest(batch);
        let set = parse_session_set(&src).expect("rendered manifests parse");
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
