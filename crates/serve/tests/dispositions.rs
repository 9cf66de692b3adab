//! Every disposition path of the serving loop, driven through the
//! public API and pinned bit for bit.
//!
//! Each case runs three ways — `serve`, `serve_with_telemetry` with the
//! retained ledger, and `serve_with_telemetry` in stream-only mode — and
//! checks that:
//!
//! * the plain and retained reports are equal, and their fingerprint
//!   digest matches the golden value;
//! * the stream-only run keeps everything but the per-session vectors
//!   and the decision log, and exports the same Prometheus text;
//! * the `rejected` and `shed` rows are exactly the REJECT and shed
//!   events of the decision log (same id, epoch, codes and reason);
//! * telemetry reconciles with the retained ledger, and the run
//!   conserves every generated session and byte.
//!
//! The goldens are FNV-1a-64 digests (plus byte length) of
//! [`ServeReport::fingerprint`], so a change that moves any modeled bit
//! of any disposition path fails here.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use mealib_obs::Obs;
use mealib_serve::{
    generate, serve, serve_with_telemetry, Catalogue, DecisionEvent, ServeConfig, ServeReport,
    TelemetryConfig, Traffic, TrafficSpec,
};
use mealib_verify::BoundsEnv;

fn catalogue() -> &'static Catalogue {
    static CAT: OnceLock<Catalogue> = OnceLock::new();
    CAT.get_or_init(|| Catalogue::standard(&BoundsEnv::default()))
}

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

/// The small two-class mix the scheduler tests start from.
fn small_spec(seed: u64, epochs: u64, rate: f64) -> TrafficSpec {
    let mut spec = TrafficSpec::poisson(catalogue(), seed, epochs, rate);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    spec
}

/// Every REJECT and shed row is its decision-log event, in order.
fn ledger_matches_log(report: &ServeReport, traffic: &Traffic) {
    let class_of = |id: u64| traffic.sessions[id as usize].class.as_str();
    let rejects: Vec<&DecisionEvent> = report
        .decision_log
        .iter()
        .filter(|ev| matches!(ev, DecisionEvent::Reject { .. }))
        .collect();
    assert_eq!(rejects.len(), report.rejected.len(), "one row per REJECT");
    for (row, ev) in report.rejected.iter().zip(rejects) {
        let DecisionEvent::Reject {
            epoch,
            id,
            codes,
            attempts,
        } = ev
        else {
            unreachable!("filtered to REJECT events");
        };
        assert_eq!(row.id, *id);
        assert_eq!(row.epoch, *epoch);
        assert_eq!(&row.codes, codes);
        assert_eq!(row.retries, *attempts);
        assert_eq!(row.class, class_of(row.id));
    }
    let sheds: Vec<&DecisionEvent> = report
        .decision_log
        .iter()
        .filter(|ev| ev.shed_reason().is_some())
        .collect();
    assert_eq!(sheds.len(), report.shed.len(), "one row per shed event");
    for (row, ev) in report.shed.iter().zip(sheds) {
        assert_eq!(row.id, ev.id());
        assert_eq!(row.epoch, ev.epoch());
        assert_eq!(row.class, class_of(row.id));
        // The legacy log line names the reason by its label.
        let line = ev.to_string();
        assert!(
            line.contains(&format!(" reason={}", row.reason.label())),
            "s{}: row reason {:?} vs event `{line}`",
            row.id,
            row.reason
        );
    }
}

/// Runs one case all three ways, checks every cross-run invariant, and
/// returns the retained report.
fn run_case(traffic: &Traffic, config: &ServeConfig) -> ServeReport {
    let cat = catalogue();
    let env = BoundsEnv::default();
    let plain = serve(cat, traffic, config, &env);
    let (retained, tele) = serve_with_telemetry(
        cat,
        traffic,
        config,
        &env,
        &Obs::off(),
        &TelemetryConfig::default(),
    );
    let stream_cfg = TelemetryConfig {
        stream_only: true,
        ..TelemetryConfig::default()
    };
    let (stream, stream_tele) =
        serve_with_telemetry(cat, traffic, config, &env, &Obs::off(), &stream_cfg);

    assert_eq!(plain.fingerprint(), retained.fingerprint());
    assert_eq!(plain, retained);
    tele.reconcile(&retained).expect("telemetry reconciles");
    retained
        .check_conservation(traffic, cat)
        .expect("every session disposed once");
    ledger_matches_log(&retained, traffic);

    // Streaming drops the per-session record and nothing else.
    assert!(stream.completed.is_empty());
    assert!(stream.rejected.is_empty());
    assert!(stream.shed.is_empty());
    assert!(stream.decision_log.is_empty());
    assert_eq!(stream.epochs, retained.epochs);
    assert_eq!(stream.modeled_s.to_bits(), retained.modeled_s.to_bits());
    assert_eq!(stream.breakdown, retained.breakdown);
    assert_eq!(stream.peak_queue_depth, retained.peak_queue_depth);
    assert_eq!(stream.plans_planned, retained.plans_planned);
    assert_eq!(stream.plan_cache_hits, retained.plan_cache_hits);
    assert_eq!(stream.plan_cache_len, retained.plan_cache_len);
    assert_eq!(stream_tele.prometheus(), tele.prometheus());
    assert_eq!(stream_tele.snapshots, tele.snapshots);
    retained
}

fn kinds(report: &ServeReport) -> BTreeSet<&'static str> {
    report
        .decision_log
        .iter()
        .map(DecisionEvent::kind)
        .collect()
}

/// Runs a case, checks it reached `expect`, and pins its digest.
fn check(
    name: &str,
    traffic: &Traffic,
    config: &ServeConfig,
    expect: &[&str],
    golden: (u64, usize),
) {
    let report = run_case(traffic, config);
    let reached = kinds(&report);
    eprintln!("{name}: reached {reached:?}");
    for kind in expect {
        assert!(reached.contains(kind), "{name}: never reached {kind}");
    }
    let got = digest(&report);
    assert_eq!(
        got, golden,
        "{name}: fingerprint digest {:#018x}/{} moved",
        got.0, got.1
    );
}

#[test]
fn impossible_budgets_admit_back_off_and_reject() {
    let mut spec = small_spec(5, 6, 2.0);
    spec.p_impossible = 0.3;
    let traffic = generate(catalogue(), &spec);
    check(
        "reject",
        &traffic,
        &ServeConfig::default(),
        &["admit", "backoff", "reject"],
        (0x271d_71d4_5c35_6c06, 3343),
    );
}

#[test]
fn overload_tail_drops_at_the_queue_bound() {
    let traffic = generate(catalogue(), &small_spec(9, 4, 12.0));
    let config = ServeConfig {
        queue_cap: 2,
        ..ServeConfig::default()
    };
    check(
        "queue_full",
        &traffic,
        &config,
        &["admit", "shed_queue_full"],
        (0x10e6_ad02_9031_b487, 3615),
    );
}

#[test]
fn classes_larger_than_the_device_shed_on_arrival() {
    let cat = catalogue();
    let largest = cat.classes().map(|c| c.slot).max().expect("classes");
    let smallest = cat.classes().map(|c| c.slot).min().expect("classes");
    // Room for the smallest classes only: the big ones can never be
    // placed and shed on arrival.
    let capacity = (smallest * 4).min(largest / 2);
    let traffic = generate(cat, &TrafficSpec::poisson(cat, 21, 3, 2.0));
    let config = ServeConfig {
        capacity,
        ..ServeConfig::default()
    };
    check(
        "slot",
        &traffic,
        &config,
        &["admit", "shed_slot"],
        (0xcff4_102a_b282_fa68, 867),
    );
}

#[test]
fn drain_deadline_sheds_everything_unserved() {
    let mut spec = small_spec(3, 6, 3.0);
    spec.p_impossible = 0.3;
    let traffic = generate(catalogue(), &spec);
    let config = ServeConfig {
        max_epochs: 3,
        ..ServeConfig::default()
    };
    check(
        "drain",
        &traffic,
        &config,
        &["admit", "shed_drain"],
        (0x16df_3fd1_5555_a7a0, 2091),
    );
}

#[test]
fn budgets_at_the_solo_ceiling_probe_the_unknown_path() {
    let mut spec = small_spec(11, 6, 3.0);
    spec.slack = 0.99;
    spec.p_impossible = 0.0;
    spec.p_best_effort = 0.0;
    let traffic = generate(catalogue(), &spec);
    check(
        "unknown",
        &traffic,
        &ServeConfig::default(),
        &["unknown_retry", "shed_policy"],
        (0x3adb_bf74_6d22_6bdc, 3587),
    );
}
