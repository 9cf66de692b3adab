//! Descriptor batching through the runtime's compiler path.
//!
//! Admitted sessions do not bypass the library: each batch member's
//! TDL items are planned through [`Runtime::acc_plan_cached`], so
//! repeated classes reuse compiled descriptor chains instead of
//! re-planning. Partition rebasing only moves `BUF` directives — the
//! TDL text itself is canonical per class — so the plan cache hits on
//! every repeat admission of a class, which is exactly the batching
//! economy the serving layer claims. Each class body is parsed once,
//! into the per-item plan keys (program text and parameter bag) every
//! later admission of the class reuses. The scheduler reads the
//! hit/build counters back out of here for the report.

use std::collections::{BTreeSet, HashMap};

use mealib_runtime::{Runtime, VerifyMode};
use mealib_sim::plausible_params;
use mealib_tdl::{ParamBag, TdlItem, TdlProgram};
use mealib_types::Bytes;
use mealib_verify::dataflow::{parse_session, HostOp, Session};

use crate::session::Catalogue;

/// Plans admitted sessions' descriptors through a shared [`Runtime`],
/// batching repeats via the plan cache.
pub struct DescriptorBatcher {
    rt: Runtime,
    planned: u64,
    /// Canonical class body → one plan key per top-level TDL item.
    keys: HashMap<String, Vec<(String, ParamBag)>>,
}

/// One plan key per top-level item of `session`: the item alone as a
/// program text, and a plausible parameter blob for each of its comps.
fn plan_keys(session: &Session) -> Vec<(String, ParamBag)> {
    session
        .program
        .items
        .iter()
        .map(|item| {
            let mut bag = ParamBag::new();
            let passes = match item {
                TdlItem::Pass(p) => std::slice::from_ref(p),
                TdlItem::Loop(l) => l.body.as_slice(),
            };
            for comp in passes.iter().flat_map(|p| &p.comps) {
                bag.insert(comp.params.clone(), plausible_params(comp.accel).to_bytes());
            }
            (TdlProgram::new(vec![item.clone()]).to_string(), bag)
        })
        .collect()
}

impl DescriptorBatcher {
    /// A batcher with every catalogue buffer pre-allocated (token
    /// sizes: planning checks the descriptor path, not the dataset)
    /// and every catalogue class's plan keys computed.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue session fails to parse or a buffer fails
    /// to allocate — both in-tree invariants.
    pub fn new(catalogue: &Catalogue) -> Self {
        let mut rt = Runtime::new();
        // Admission already certified the batch; static re-verification
        // of each descriptor would double-charge the gate.
        rt.set_verify_mode(VerifyMode::Off);
        let mut names: BTreeSet<String> = BTreeSet::new();
        let mut keys = HashMap::new();
        for class in catalogue.classes() {
            let session = parse_session(&class.body).expect("catalogue sessions parse");
            for pass in session.program.passes() {
                names.insert(pass.input.clone());
                names.insert(pass.output.clone());
            }
            for (_, op) in &session.host_ops {
                if let HostOp::Write(b) | HostOp::Read(b) = op {
                    names.insert(b.clone());
                }
            }
            keys.insert(class.body.clone(), plan_keys(&session));
        }
        for name in &names {
            rt.mem_alloc(name, Bytes::from_mib(1))
                .expect("batcher buffers fit the default stack");
        }
        Self {
            rt,
            planned: 0,
            keys,
        }
    }

    /// Plans every top-level TDL item of `canonical_body` through the
    /// cached compiler path. Returns the number of items planned.
    ///
    /// # Panics
    ///
    /// Panics if the body fails to parse or planning it fails — the
    /// bodies are in-tree and the buffers pre-allocated, so that is a
    /// bug.
    pub fn plan_class(&mut self, canonical_body: &str) -> usize {
        if !self.keys.contains_key(canonical_body) {
            let session = parse_session(canonical_body).expect("catalogue sessions parse");
            self.keys
                .insert(canonical_body.to_string(), plan_keys(&session));
        }
        let keys = &self.keys[canonical_body];
        for (program, bag) in keys {
            self.rt
                .acc_plan_cached(program, bag)
                .expect("catalogue sessions plan");
        }
        self.planned += keys.len() as u64;
        keys.len()
    }

    /// Total top-level items planned (cached or not).
    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// Plans served straight from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.rt.counters().plan_cache_hits
    }

    /// Distinct descriptor chains resident in the cache.
    pub fn cached_plans(&self) -> usize {
        self.rt.plan_cache_len()
    }

    /// Exports the runtime's cumulative counters (plans, executions,
    /// cache hits) plus the resident-cache size into `reg` — the
    /// telemetry surface for the batching economy.
    pub fn export_metrics(&self, reg: &mut mealib_obs::MetricsRegistry) {
        self.rt.counters().export_into(reg);
        reg.describe("serve_plans_planned_total", "Top-level TDL items planned");
        reg.store("serve_plans_planned_total", &[], self.planned);
        reg.describe(
            "runtime_plan_cache_len",
            "Descriptor chains resident in the plan cache",
        );
        reg.store(
            "runtime_plan_cache_len",
            &[],
            self.rt.plan_cache_len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_verify::BoundsEnv;

    #[test]
    fn repeat_classes_hit_the_plan_cache() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut b = DescriptorBatcher::new(&cat);
        let body = cat.get("sar-chain-256").unwrap().body.clone();
        let items = b.plan_class(&body);
        assert!(items > 0);
        assert_eq!(b.cache_hits(), 0, "first plan builds");
        b.plan_class(&body);
        assert_eq!(b.cache_hits(), items as u64, "second plan is all hits");
        assert_eq!(b.planned(), 2 * items as u64);
        assert_eq!(b.cached_plans(), items);
    }

    #[test]
    fn every_catalogue_class_plans_cleanly() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut b = DescriptorBatcher::new(&cat);
        for class in cat.classes() {
            assert!(b.plan_class(&class.body) > 0, "{}", class.name);
        }
        // All four stap scales share one canonical TDL shape, so the
        // cache holds fewer chains than the catalogue has classes.
        assert!(b.cached_plans() <= b.planned() as usize);
        assert!(b.cache_hits() > 0, "stap scales share descriptor chains");
    }
}
