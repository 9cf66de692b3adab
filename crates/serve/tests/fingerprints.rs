//! The benchmark's serving traffic, pinned bit for bit.
//!
//! `perfbench`'s `serve-heavy` and `serve-many` workloads serve two
//! seeded streams; this test rebuilds both streams the same way (same
//! generator spec, same cut to a fixed session count) at seeds 42 and 7
//! and pins the FNV-1a-64 digest and byte length of
//! [`ServeReport::fingerprint`]. A change to admission, planning or
//! replay that moves any modeled bit of those runs fails here, so
//! "behaviour unchanged" is a check rather than a claim.
//!
//! The full-size runs are slow in a debug build; run with
//! `cargo test --release -p mealib-serve --test fingerprints -- --ignored`.

use std::collections::BTreeMap;

use mealib_obs::Obs;
use mealib_serve::{
    generate, serve, serve_with_telemetry, Catalogue, ServeConfig, ServeReport, TelemetryConfig,
    Traffic, TrafficSpec,
};
use mealib_verify::BoundsEnv;

/// FNV-1a over the fingerprint text: stable across toolchains, unlike
/// the std hasher.
fn digest(report: &ServeReport) -> (u64, usize) {
    let fp = report.fingerprint();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fp.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h, fp.len())
}

/// `serve-heavy`: Poisson 8/epoch of `stap-small`, no impossible
/// budgets, cut to 24 sessions.
fn heavy_traffic(cat: &Catalogue, seed: u64) -> Traffic {
    const SESSIONS: usize = 24;
    let mut spec = TrafficSpec::poisson(cat, seed, 4, 8.0);
    spec.classes.retain(|c| c.class == "stap-small");
    spec.p_impossible = 0.0;
    let mut traffic = generate(cat, &spec);
    while traffic.sessions.len() < SESSIONS {
        spec.epochs *= 2;
        traffic = generate(cat, &spec);
    }
    traffic.sessions.truncate(SESSIONS);
    let mut emitted: BTreeMap<String, u64> = BTreeMap::new();
    for s in &traffic.sessions {
        *emitted.entry(s.class.clone()).or_default() += cat.get(&s.class).unwrap().trace_bytes;
    }
    traffic.emitted_bytes = emitted;
    traffic
}

/// `serve-many`: Poisson 3.5/epoch over 400 epochs of `stap-tiny` and
/// `sar-chain-256`.
fn many_traffic(cat: &Catalogue, seed: u64) -> Traffic {
    let mut spec = TrafficSpec::poisson(cat, seed, 400, 3.5);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    generate(cat, &spec)
}

#[test]
#[ignore = "full benchmark traffic; run in release with --ignored"]
fn benchmark_serving_traffic_fingerprints_are_pinned() {
    let env = BoundsEnv::default();
    let cat = Catalogue::standard(&env);
    let cfg = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let mut got = Vec::new();
    for seed in [42, 7] {
        let heavy = serve(&cat, &heavy_traffic(&cat, seed), &cfg, &env);
        got.push((format!("serve-heavy s{seed}"), digest(&heavy)));
        // The benchmark serves this mix telemetered.
        let (many, _) = serve_with_telemetry(
            &cat,
            &many_traffic(&cat, seed),
            &cfg,
            &env,
            &Obs::off(),
            &TelemetryConfig::standard(&cat),
        );
        got.push((format!("serve-many s{seed}"), digest(&many)));
    }
    let want = [
        ("serve-heavy s42", (0xc22f_7c75_9a4f_0aab, 5220)),
        ("serve-many s42", (0x0c7e_fe9a_5ea3_b4c5, 327_293)),
        ("serve-heavy s7", (0x8743_6967_d1b3_922b, 5217)),
        ("serve-many s7", (0xd811_cb63_0a97_178c, 351_074)),
    ];
    for ((name, got), (want_name, want)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(
            *got, want,
            "{name}: fingerprint digest {:#018x}/{} moved",
            got.0, got.1
        );
    }
}
