//! The one-pass composer against the multi-walk reference.
//!
//! [`reference_compose`] is the composition arithmetic written the
//! direct way, from public [`trace_bounds`] calls: one walk over the
//! merged trace for the set-level bounds, one over each tenant's own
//! trace for its exact bytes, bursts, and per-unit occupancy, and one
//! over each merged prefix ending at a tenant's last request for its
//! interference floor — 2N+1 walks for N tenants. [`compose`] gets the
//! same numbers from a single walk. These tests hold the two
//! bit-identical (`to_bits` on every interval endpoint), and hold the
//! verdicts and MEA3xx codes judged from them equal, on every corpus
//! manifest, the `tenant_mix` grid, and random mixes.

use std::fs;
use std::path::PathBuf;

use mealib_accel::power;
use mealib_memsim::bounds::{trace_bounds, TraceBounds};
use mealib_memsim::{interleave_tenants, TraceBuffer};
use mealib_types::{Interval, PhysAddr, Seconds};
use mealib_verify::bounds::elaborate;
use mealib_verify::interference::{
    certify_bounds, certify_set, compose, parse_session_set, resolved_set_config, tenant_streams,
    SessionSet, SetBounds, TenantBounds,
};
use mealib_verify::BoundsEnv;
use mealib_workloads::sessions::{pipeline_sessions, rebase_session, session_span};
use proptest::prelude::*;

/// The composition arithmetic over 2N+1 separate bounds walks.
fn reference_compose(set: &SessionSet, env: &BoundsEnv) -> SetBounds {
    let cfg = resolved_set_config(set, env);
    let streams = tenant_streams(set);
    let (merged, tags) = interleave_tenants(&streams);
    let set_tb = trace_bounds(&cfg, &merged).expect("preset env validates");
    let t_ck = cfg.timing.t_ck.get();
    let t_burst = cfg.timing.t_burst as f64;
    let cold = (cfg.timing.t_rcd + cfg.timing.t_cl) as f64;

    let mut tenants = Vec::new();
    for (i, decl) in set.tenants.iter().enumerate() {
        let e = elaborate(&decl.session);
        let own_tb = trace_bounds(&cfg, &streams[i].trace).expect("validated");
        let own_bursts = own_tb.read_bursts.lo + own_tb.write_bursts.lo;
        let own_occ = own_tb.unit_bursts.iter().copied().max().unwrap_or(0) as f64 * t_burst;
        let mut prefix_occ = 0.0f64;
        if let Some(pos) = tags.iter().rposition(|&t| t as usize == i) {
            let last = merged.get(pos).expect("tag position in bounds");
            let final_byte = last.addr.get() + last.bytes.saturating_sub(1);
            let u_final = cfg.mapping.decode(PhysAddr::new(final_byte)).unit;
            let prefix: TraceBuffer = merged.iter().take(pos + 1).collect();
            let prefix_tb = trace_bounds(&cfg, &prefix).expect("validated");
            prefix_occ = cold + prefix_tb.unit_bursts[u_final] as f64 * t_burst;
        }
        let cycles = if own_bursts == 0.0 {
            Interval::ZERO
        } else {
            Interval::new(own_occ.max(prefix_occ), set_tb.cycles.hi)
        };
        let elapsed = Interval::new(cycles.lo * t_ck, set_tb.elapsed.hi.min(cycles.hi * t_ck));
        let own_bytes = (own_tb.bytes_read.lo + own_tb.bytes_written.lo) as u64;
        let energy = if own_bursts == 0.0 {
            Interval::ZERO
        } else {
            Interval::new(
                cfg.energy
                    .trace_energy(0, own_bytes, Seconds::new(elapsed.lo))
                    .get(),
                cfg.energy
                    .trace_energy(own_bursts as u64, own_bytes, Seconds::new(elapsed.hi))
                    .get(),
            )
        };
        let mut datapath_j = 0.0;
        let mut leakage_w = 0.0;
        let mut seen = std::collections::BTreeSet::new();
        for phase in &e.phases {
            for &accel in &phase.accels {
                let prof = power::profile(accel);
                datapath_j += prof.e_byte_datapath.get() * phase.bytes as f64;
                if seen.insert(accel) {
                    leakage_w += prof.p_leakage.get();
                }
            }
        }
        tenants.push(TenantBounds {
            name: decl.name.clone(),
            bytes_read: own_tb.bytes_read,
            bytes_written: own_tb.bytes_written,
            read_bursts: own_tb.read_bursts,
            write_bursts: own_tb.write_bursts,
            activations: Interval::new(0.0, own_bursts),
            cycles,
            elapsed,
            energy,
            accel_energy: Interval::new(datapath_j, datapath_j + leakage_w * set_tb.elapsed.hi),
            budgets: decl.session.budgets,
            missing_extents: e.missing_extents,
        });
    }
    SetBounds {
        config_name: cfg.name.clone(),
        peak_bandwidth: cfg.peak_bandwidth(),
        set: set_tb,
        tenants,
        budgets: set.budgets,
    }
}

fn interval_bits(out: &mut Vec<u64>, intervals: &[Interval]) {
    for i in intervals {
        out.push(i.lo.to_bits());
        out.push(i.hi.to_bits());
    }
}

fn trace_bits(out: &mut Vec<u64>, b: &TraceBounds) {
    interval_bits(
        out,
        &[
            b.bytes_read,
            b.bytes_written,
            b.read_bursts,
            b.write_bursts,
            b.activations,
            b.cycles,
            b.elapsed,
            b.energy,
        ],
    );
    out.extend(&b.unit_bursts);
}

/// Every number in `b` as raw bits, in a fixed order.
fn set_bits(b: &SetBounds) -> Vec<u64> {
    let mut out = vec![b.peak_bandwidth.get().to_bits()];
    trace_bits(&mut out, &b.set);
    for t in &b.tenants {
        interval_bits(
            &mut out,
            &[
                t.bytes_read,
                t.bytes_written,
                t.read_bursts,
                t.write_bursts,
                t.activations,
                t.cycles,
                t.elapsed,
                t.energy,
                t.accel_energy,
            ],
        );
    }
    out
}

/// Asserts the one-pass composer, and the certification built on it,
/// equal the reference bit for bit.
fn assert_matches_reference(name: &str, set: &SessionSet) {
    let env = BoundsEnv::default();
    let fast = compose(set, &env).expect("preset env validates");
    let slow = reference_compose(set, &env);
    assert_eq!(fast.config_name, slow.config_name, "{name}");
    assert_eq!(set_bits(&fast), set_bits(&slow), "{name}");
    assert_eq!(fast.budgets, slow.budgets, "{name}");
    for (f, s) in fast.tenants.iter().zip(&slow.tenants) {
        assert_eq!(f.name, s.name, "{name}");
        assert_eq!(f.budgets, s.budgets, "{name}/{}", f.name);
        assert_eq!(f.missing_extents, s.missing_extents, "{name}/{}", f.name);
    }
    assert_eq!(fast.tenants.len(), slow.tenants.len(), "{name}");

    let got = certify_set(set, &env).expect("preset env validates");
    let want = certify_bounds(set, slow);
    assert_eq!(got.verdict, want.verdict, "{name}");
    assert_eq!(got.codes(), want.codes(), "{name}");
    assert_eq!(got.report.render(), want.report.render(), "{name}");
}

#[test]
fn every_corpus_manifest_matches_the_reference() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut checked = 0;
    for dir in ["bad", "clean"] {
        let mut files: Vec<PathBuf> = fs::read_dir(root.join(dir))
            .expect("corpus dir reads")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("set"))
            .collect();
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path).expect("corpus file reads");
            let set = parse_session_set(&src).expect("corpus manifests parse");
            assert_matches_reference(&path.display().to_string(), &set);
            checked += 1;
        }
    }
    assert!(checked >= 16, "only {checked} corpus manifests found");
}

/// The `tenant_mix` harness grid: pipeline sessions rebased into
/// disjoint slots, arrivals staggered by 97 request slots, one mix
/// with an impossible set envelope and one with a withheld partition.
#[test]
fn tenant_mix_grid_matches_the_reference() {
    let catalogue = pipeline_sessions();
    let body = |name: &str| {
        catalogue
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.clone())
            .unwrap_or_else(|| panic!("unknown pipeline session {name}"))
    };
    const TINY: &[&str] = &["stap-tiny", "sar-chain-256"];
    const QUAD: &[&str] = &["stap-tiny", "sar-chain-256", "sar-loop-256", "stap-tiny"];
    const HEX: &[&str] = &[
        "stap-tiny",
        "stap-small",
        "sar-chain-256",
        "sar-chain-1024",
        "sar-loop-256",
        "stap-tiny",
    ];
    const OCT: &[&str] = &[
        "stap-tiny",
        "stap-small",
        "sar-chain-256",
        "sar-chain-1024",
        "sar-loop-256",
        "stap-tiny",
        "sar-chain-256",
        "sar-loop-256",
    ];
    // (name, tenant sessions, set time envelope, tenant without a
    // partition)
    let grid = [
        ("pair-tiny", TINY, None, None),
        ("quad", QUAD, None, None),
        ("flood", QUAD, Some(1e-9), None),
        ("opaque", TINY, None, Some(1)),
        ("hex", HEX, None, None),
        ("oct", OCT, None, None),
    ];
    for (name, tenants, set_time_s, undeclared) in grid {
        let mut src = String::new();
        if let Some(t) = set_time_s {
            src.push_str(&format!("BUDGET TIME {t}\n"));
        }
        let mut cursor = 0u64;
        for (i, session) in tenants.iter().enumerate() {
            let b = body(session);
            let slot = session_span(&b).next_power_of_two().max(1 << 22);
            src.push_str(&format!("TENANT {session}.{i}\n"));
            if undeclared != Some(i) {
                src.push_str(&format!("PARTITION 0x{cursor:x} 0x{slot:x}\n"));
            }
            if i > 0 {
                src.push_str(&format!("ARRIVAL {}\n", i as u64 * 97));
            }
            src.push_str(&rebase_session(&b, cursor));
            cursor += slot;
        }
        let set = parse_session_set(&src).expect("grid manifests parse");
        assert_matches_reference(name, &set);
    }
}

#[test]
fn empty_tenant_and_unit_straddling_last_request_match_the_reference() {
    // Tenant `b`'s last request (its output write) starts mid-line and
    // ends several lines later, so its first and final bytes land on
    // different units; tenant `idle` has no traffic at all.
    let src = "TENANT a\nPARTITION 0x0 0x1000000\nBUF in 0x1000 0x10000\nBUF out 0x40000 \
               0x10000\nPASS in=in out=out {\n  COMP FFT params=\"f\"\n}\nTENANT idle\nTENANT \
               b\nPARTITION 0x1000000 0x1000000\nARRIVAL 3\nBUF p 0x1000010 0x5000\nBUF q \
               0x1100021 0x3ff\nLOOP 2 {\n  PASS in=p out=q {\n    COMP AXPY params=\"x\"\n  \
               }\n}\n";
    let set = parse_session_set(src).unwrap();
    let cfg = resolved_set_config(&set, &BoundsEnv::default());
    let (first, last) = (0x1100021u64, 0x1100021u64 + 0x3ff - 1);
    assert_ne!(
        cfg.mapping.decode(PhysAddr::new(first)).unit,
        cfg.mapping.decode(PhysAddr::new(last)).unit,
        "the last request must straddle units"
    );
    assert_matches_reference("straddle", &set);
    let bounds = compose(&set, &BoundsEnv::default()).unwrap();
    assert_eq!(bounds.tenants[1].cycles, Interval::ZERO);
}

/// One random tenant: optional partition, arrival, unaligned buffer
/// geometry, loop count, accelerator, and optional budget.
#[derive(Debug, Clone)]
struct GenTenant {
    empty: bool,
    partition: bool,
    arrival: u64,
    in_off: u64,
    in_len: u64,
    out_off: u64,
    out_len: u64,
    loops: u64,
    accel: &'static str,
    budget: Option<f64>,
}

fn gen_tenant() -> impl Strategy<Value = GenTenant> {
    (
        (0u8..6, 0u8..8, 0u64..3000),
        (0u64..0x4000, 1u64..0x30000, 0u64..0x4000, 1u64..0x30000),
        (
            1u64..=3,
            proptest::sample::select(vec!["FFT", "AXPY", "RESHP", "DOT"]),
            proptest::sample::select(vec![None, Some(1e-9), Some(1e-5), Some(1.0)]),
        ),
    )
        .prop_map(
            |(
                (empty, partition, arrival),
                (in_off, in_len, out_off, out_len),
                (loops, accel, budget),
            )| {
                GenTenant {
                    empty: empty == 0,
                    partition: partition != 0,
                    arrival,
                    in_off,
                    in_len,
                    out_off,
                    out_len,
                    loops,
                    accel,
                    budget,
                }
            },
        )
}

/// Renders tenants into 16 MiB slots; buffers start and end anywhere.
fn render(layer: &str, tenants: &[GenTenant]) -> String {
    const SLOT: u64 = 0x100_0000;
    let mut src = format!("{layer}\n");
    for (i, t) in tenants.iter().enumerate() {
        let base = i as u64 * SLOT;
        src.push_str(&format!("TENANT t{i}\n"));
        if t.partition {
            src.push_str(&format!("PARTITION 0x{base:x} 0x{SLOT:x}\n"));
        }
        src.push_str(&format!("ARRIVAL {}\n", t.arrival));
        if let Some(b) = t.budget {
            src.push_str(&format!("BUDGET TIME {b}\n"));
        }
        if t.empty {
            continue;
        }
        let a = base + t.in_off;
        let b = base + SLOT / 2 + t.out_off;
        src.push_str(&format!(
            "BUF in{i} 0x{a:x} 0x{:x}\nBUF out{i} 0x{b:x} 0x{:x}\n",
            t.in_len, t.out_len
        ));
        src.push_str(&format!(
            "LOOP {} {{\n  PASS in=in{i} out=out{i} {{\n    COMP {} params=\"p.para\"\n  }}\n}}\n",
            t.loops, t.accel
        ));
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 1–5-tenant mixes on every shared layer, empty tenants and
    /// undeclared partitions included.
    #[test]
    fn random_mixes_match_the_reference(
        tenants in proptest::collection::vec(gen_tenant(), 1..=5),
        layer in proptest::sample::select(vec![
            "MEM INTERLEAVED",
            "MEM XOR",
            "MEM ASYM 0x1800123",
            "MEM HOST",
        ]),
    ) {
        let src = render(layer, &tenants);
        let set = parse_session_set(&src).expect("generated manifests parse");
        assert_matches_reference("random-mix", &set);
    }
}
