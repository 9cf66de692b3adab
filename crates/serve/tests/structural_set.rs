//! The admission gate's structurally built session set is the set its
//! rendered manifest parses to.
//!
//! [`AdmissionGate::certify`] parses each class body once and builds
//! the tenant set directly; [`AdmissionGate::manifest`] renders the same
//! batch as text. For random batches of catalogue classes, partition
//! slots (overlapping ones included), arrival staggers and budgets, on
//! the interleaved and the asymmetric layer, certifying the structural
//! set and certifying the parsed manifest must agree on the verdict,
//! the proof, the rendered report, every bound to the bit, and the
//! replay input.

use std::sync::OnceLock;

use mealib_serve::{AdmissionGate, Catalogue, Resident, SessionRequest};
use mealib_types::{AddrRange, Bytes, Interval, PhysAddr};
use mealib_verify::interference::{
    certify_set, parse_session_set, resolved_set_config, tenant_streams, SetBounds,
};
use mealib_verify::BoundsEnv;
use proptest::prelude::*;

fn catalogue() -> &'static Catalogue {
    static CAT: OnceLock<Catalogue> = OnceLock::new();
    CAT.get_or_init(|| Catalogue::standard(&BoundsEnv::default()))
}

/// Every number in `b` as raw bits, in a fixed order.
fn set_bits(b: &SetBounds) -> Vec<u64> {
    let mut out = vec![b.peak_bandwidth.get().to_bits()];
    let mut push = |intervals: &[Interval]| {
        for i in intervals {
            out.push(i.lo.to_bits());
            out.push(i.hi.to_bits());
        }
    };
    let s = &b.set;
    push(&[
        s.bytes_read,
        s.bytes_written,
        s.read_bursts,
        s.write_bursts,
        s.activations,
        s.cycles,
        s.elapsed,
        s.energy,
    ]);
    for t in &b.tenants {
        push(&[
            t.bytes_read,
            t.bytes_written,
            t.read_bursts,
            t.write_bursts,
            t.activations,
            t.cycles,
            t.elapsed,
            t.energy,
            t.accel_energy,
        ]);
    }
    out.extend(&b.set.unit_bursts);
    out
}

/// One generated batch member: class pick, slot index, stagger and
/// budget (as a multiple of the class's solo ceiling).
#[derive(Debug, Clone)]
struct GenResident {
    class: usize,
    slot: u64,
    stagger: u64,
    budget: Option<f64>,
}

fn gen_resident() -> impl Strategy<Value = GenResident> {
    (
        0usize..64,
        0u64..6,
        prop_oneof![Just(0u64), 1u64..512],
        prop_oneof![
            Just(None),
            (25u32..400).prop_map(|pct| Some(f64::from(pct) / 97.0))
        ],
    )
        .prop_map(|(class, slot, stagger, budget)| GenResident {
            class,
            slot,
            stagger,
            budget,
        })
}

/// The batch `gen` describes, drawn from the catalogue classes whose
/// slot is at most `max_slot`.
fn build(gen: &[GenResident], max_slot: u64) -> Vec<Resident> {
    let cat = catalogue();
    let classes: Vec<_> = cat.classes().filter(|c| c.slot <= max_slot).collect();
    gen.iter()
        .enumerate()
        .map(|(id, g)| {
            let c = classes[g.class % classes.len()];
            Resident::place(
                SessionRequest {
                    id: id as u64,
                    class: c.name.clone(),
                    arrival_epoch: 0,
                    time_budget_s: g.budget.map(|m| m * c.solo_elapsed.1),
                },
                &c.body,
                // Slot indices may collide: overlapping partitions
                // exercise the MEA300 proof.
                AddrRange::new(PhysAddr::new(g.slot * c.slot), Bytes::new(c.slot)),
                g.stagger,
            )
        })
        .collect()
}

/// Certifies `batch` structurally (twice: the second call answers
/// from the gate's parsed classes) and through its parsed manifest.
fn assert_structural_equals_parsed(gate: &AdmissionGate, batch: &[Resident]) {
    let env = gate.env();
    let parsed = parse_session_set(&gate.manifest(batch)).expect("rendered manifests parse");
    let want = certify_set(&parsed, env).expect("preset env validates");
    let want_streams = tenant_streams(&parsed);
    for _ in 0..2 {
        let (set, cert) = gate.certify(batch);
        assert_eq!(cert.verdict, want.verdict);
        assert_eq!(cert.codes(), want.codes());
        assert_eq!(cert.report.render(), want.report.render());
        assert_eq!(cert.bounds.config_name, want.bounds.config_name);
        assert_eq!(set_bits(&cert.bounds), set_bits(&want.bounds));
        assert_eq!(cert.bounds.budgets, want.bounds.budgets);
        for (got, want) in cert.bounds.tenants.iter().zip(&want.bounds.tenants) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.budgets, want.budgets);
            assert_eq!(got.missing_extents, want.missing_extents);
        }

        assert_eq!(set.mem_layer, parsed.mem_layer);
        assert_eq!(set.tenants.len(), parsed.tenants.len());
        for (s, p) in set.tenants.iter().zip(&parsed.tenants) {
            assert_eq!((&s.name, s.line), (&p.name, p.line));
            assert_eq!(s.partition, p.partition);
            assert_eq!(s.arrival, p.arrival);
            assert_eq!(s.session.extents, p.session.extents);
            assert_eq!(s.session.budgets, p.session.budgets);
            assert_eq!(s.session.program, p.session.program);
            assert_eq!(s.session.host_ops.len(), p.session.host_ops.len());
        }
        assert_eq!(
            resolved_set_config(&set, env),
            resolved_set_config(&parsed, env)
        );
        for (g, w) in tenant_streams(&set).iter().zip(&want_streams) {
            assert_eq!((&g.trace, g.arrival), (&w.trace, w.arrival));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn structural_set_certifies_like_its_parsed_manifest(
        gen in proptest::collection::vec(gen_resident(), 1..5),
        asym in prop_oneof![Just(None), (22u32..26).prop_map(Some)],
    ) {
        let gate = AdmissionGate::new(BoundsEnv::default());
        let (gate, max_slot) = match asym {
            None => (gate, u64::MAX),
            // Slot indices reach past a 4–32 MiB split, so some tenants
            // own the dedicated high unit. That unit is one channel,
            // which prices the big classes slowly in a debug build, so
            // this arm draws the 4 MiB classes only.
            Some(shift) => (gate.with_asym_split(1 << shift), 1 << 22),
        };
        let batch = build(&gen, max_slot);
        assert_structural_equals_parsed(&gate, &batch);
    }
}
