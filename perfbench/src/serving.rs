//! The `serve-heavy` and `serve-many` workloads: the certified-admission
//! serving loop of `mealib-serve`, measured end to end, then re-driven
//! call by call from its decision log to attribute host time to layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mealib_memsim::bounds::trace_bounds;
use mealib_memsim::{interleave_tenants, simulate_tenants, EngineRun, SimOptions};
use mealib_obs::{Obs, Phase};
use mealib_serve::{
    generate, serve, serve_with_telemetry, AdmissionGate, Catalogue, CompletedSession,
    DecisionEvent, DescriptorBatcher, PartitionTable, Resident, ServeConfig, ServeReport,
    TelemetryConfig, TelemetryReport, Traffic, TrafficSpec,
};
use mealib_verify::interference::{
    compose, parse_session_set, resolved_set_config, tenant_streams,
};
use mealib_verify::{BoundsEnv, Verdict};

use crate::trace::Tracer;
use crate::{median, nearest_rank, repeat_for, Checks, Metric, Outcome, Size};

/// Which traffic mix to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// An overload burst of 64 MiB `stap-small` sessions: per-byte
    /// certification and tagged replay dominate.
    Heavy,
    /// Hundreds of epochs of the two tiniest classes near saturation:
    /// per-call admission, backoff, the plan cache and telemetry.
    Many,
}

/// The generated inputs of one run.
struct Inputs {
    /// The standard class catalogue.
    catalogue: Catalogue,
    /// The seeded session stream.
    traffic: Traffic,
}

/// Sessions in one `serve-heavy` pass: six full epochs of four residents.
const HEAVY_SESSIONS: usize = 24;
const HEAVY_SESSIONS_TINY: usize = 3;
/// `serve-many` arrival rate per epoch: near saturation, so the queue and
/// backoff paths are busy but the queue rarely reaches `queue_cap`.
const MANY_RATE: f64 = 3.5;
const MANY_EPOCHS: u64 = 400;
const MANY_EPOCHS_TINY: u64 = 12;

/// Builds the `serve-heavy` stream: Poisson arrivals at 8 per epoch, far
/// above the 4 sessions an epoch admits, so the queue stays full and
/// every epoch certifies and replays the same amount of work whatever the
/// seed. The stream is cut to a fixed session count, so each run does the
/// same work; no budget is impossible, so no session is retried.
fn heavy_traffic(catalogue: &Catalogue, seed: u64, sessions: usize) -> Traffic {
    let mut spec = TrafficSpec::poisson(catalogue, seed, 4, 8.0);
    spec.classes.retain(|c| c.class == "stap-small");
    spec.p_impossible = 0.0;
    let mut traffic = generate(catalogue, &spec);
    // One generator stream per seed: more epochs only append arrivals.
    while traffic.sessions.len() < sessions {
        spec.epochs *= 2;
        traffic = generate(catalogue, &spec);
    }
    traffic.sessions.truncate(sessions);
    let mut emitted: BTreeMap<String, u64> = BTreeMap::new();
    for s in &traffic.sessions {
        let class = catalogue.get(&s.class).expect("generated class");
        *emitted.entry(s.class.clone()).or_default() += class.trace_bytes;
    }
    traffic.emitted_bytes = emitted;
    traffic
}

fn many_traffic(catalogue: &Catalogue, seed: u64, epochs: u64) -> Traffic {
    let mut spec = TrafficSpec::poisson(catalogue, seed, epochs, MANY_RATE);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    generate(catalogue, &spec)
}

/// The seeded traffic of `mix` at `size`.
fn traffic(mix: Mix, size: Size, catalogue: &Catalogue, seed: u64) -> Traffic {
    match (mix, size) {
        (Mix::Heavy, Size::Full) => heavy_traffic(catalogue, seed, HEAVY_SESSIONS),
        (Mix::Heavy, Size::Tiny) => heavy_traffic(catalogue, seed, HEAVY_SESSIONS_TINY),
        (Mix::Many, Size::Full) => many_traffic(catalogue, seed, MANY_EPOCHS),
        (Mix::Many, Size::Tiny) => many_traffic(catalogue, seed, MANY_EPOCHS_TINY),
    }
}

/// Builds the catalogue and the traffic; returns them with the host
/// seconds both took.
fn setup(mix: Mix, seed: u64, size: Size, env: &BoundsEnv) -> (Inputs, f64) {
    let t0 = Instant::now();
    let catalogue = Catalogue::standard(env);
    let traffic = traffic(mix, size, &catalogue, seed);
    (Inputs { catalogue, traffic }, t0.elapsed().as_secs_f64())
}

/// Serving runs single-threaded: the replay is bit-exact at any `jobs`,
/// and one worker keeps the host measurement free of scheduling noise.
fn config() -> ServeConfig {
    ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    }
}

/// One serve call. `serve-many` runs telemetered; its export is timed
/// separately because it is its own layer.
fn serve_once(
    mix: Mix,
    inputs: &Inputs,
    env: &BoundsEnv,
) -> (ServeReport, Option<TelemetryReport>) {
    let cfg = config();
    match mix {
        Mix::Heavy => (serve(&inputs.catalogue, &inputs.traffic, &cfg, env), None),
        Mix::Many => {
            let tcfg = TelemetryConfig::standard(&inputs.catalogue);
            let (report, tele) = serve_with_telemetry(
                &inputs.catalogue,
                &inputs.traffic,
                &cfg,
                env,
                &Obs::off(),
                &tcfg,
            );
            (report, Some(tele))
        }
    }
}

/// Renders every telemetry export a telemetered run produces.
fn export(tele: &TelemetryReport) -> usize {
    tele.prometheus().len()
        + tele.snapshots_jsonl().len()
        + tele.alerts_jsonl().len()
        + tele.chrome_trace().len()
}

/// The output checks every serve pass gets.
fn check_report(checks: &mut Checks, inputs: &Inputs, report: &ServeReport) {
    let conservation = report.check_conservation(&inputs.traffic, &inputs.catalogue);
    checks.check(conservation.is_ok(), || {
        format!("conservation: {}", conservation.clone().unwrap_err())
    });
    let soundness = report.admission_soundness();
    checks.check(soundness == 1.0, || {
        format!("admission_soundness = {soundness}, want 1")
    });
    for r in &report.rejected {
        checks.check(!r.codes.is_empty(), || {
            format!("session s{} rejected without its MEA3xx proof", r.id)
        });
    }
    for ev in &report.decision_log {
        if let DecisionEvent::Reject { id, codes, .. } = ev {
            checks.check(!codes.is_empty(), || {
                format!("REJECT of s{id} logged without codes")
            });
        }
    }
}

/// Modeled outcome of one serve run; identical for a given seed.
struct Modeled {
    admitted_frac: f64,
    makespan_s: f64,
    slowdown_p50: f64,
    /// `None` when fewer than ten completions lie beyond the 99th
    /// percentile, so the sample does not support it.
    slowdown_p99: Option<f64>,
    samples: usize,
}

fn modeled(inputs: &Inputs, report: &ServeReport) -> Modeled {
    let mut slowdowns: Vec<f64> = report
        .completed
        .iter()
        .map(|c| {
            let ceiling = inputs
                .catalogue
                .get(&c.class)
                .expect("completed class")
                .solo_elapsed
                .1;
            c.latency_s() / ceiling
        })
        .collect();
    slowdowns.sort_by(f64::total_cmp);
    let n = slowdowns.len();
    Modeled {
        admitted_frac: n as f64 / report.total_sessions().max(1) as f64,
        makespan_s: report.modeled_s,
        slowdown_p50: nearest_rank(&slowdowns, 0.50),
        slowdown_p99: (n >= 1000).then(|| nearest_rank(&slowdowns, 0.99)),
        samples: n,
    }
}

fn print_modeled(m: &Modeled, report: &ServeReport) {
    println!(
        "modeled: admitted_frac={} modeled_makespan_s={} slowdown_p50={} (n={})",
        m.admitted_frac, m.makespan_s, m.slowdown_p50, m.samples
    );
    match m.slowdown_p99 {
        Some(p99) => println!("modeled: slowdown_p99={p99} (n={})", m.samples),
        None => println!(
            "modeled: slowdown_p99 not reported: {} completions leave fewer than 10 beyond it",
            m.samples
        ),
    }
    println!(
        "modeled: completed={} rejected={} shed={} epochs={} peak_queue={}",
        report.completed.len(),
        report.rejected.len(),
        report.shed.len(),
        report.epochs.len(),
        report.peak_queue_depth
    );
}

fn modeled_metrics(m: &Modeled) -> Vec<Metric> {
    vec![
        Metric::new("serve.report.admitted_frac", m.admitted_frac, "ratio"),
        Metric::new("serve.report.modeled_makespan_s", m.makespan_s, "s"),
        Metric::new("serve.report.slowdown_p50", m.slowdown_p50, "ratio"),
        Metric::new(
            "serve.report.slowdown_p99",
            m.slowdown_p99.unwrap_or(0.0),
            "ratio",
        ),
    ]
}

/// Untraced run: set-up three times, then serve passes for `seconds`.
pub fn run(mix: Mix, seed: u64, seconds: f64, size: Size) -> Outcome {
    let env = BoundsEnv::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        let (i, secs) = setup(mix, seed, size, &env);
        setups.push(secs);
        inputs = Some(i);
    }
    let inputs = inputs.expect("three set-ups ran");
    let mut checks = Checks::default();
    let mut first: Option<(String, ServeReport)> = None;
    let mut disposed = 0u64;
    let timed = repeat_for(
        seconds,
        || {
            let (report, tele) = serve_once(mix, &inputs, &env);
            if let Some(tele) = &tele {
                black_box(export(tele));
            }
            report
        },
        |report| {
            check_report(&mut checks, &inputs, &report);
            disposed += report.total_sessions() as u64;
            let fp = report.fingerprint();
            match &first {
                None => first = Some((fp, report)),
                Some((fp0, _)) => checks.check(*fp0 == fp, || {
                    "serve passes over the same inputs disagree".to_string()
                }),
            }
        },
    );
    let (_, report) = first.expect("at least one pass");
    let m = modeled(&inputs, &report);
    print_modeled(&m, &report);
    let wall = median(&timed.walls);
    println!(
        "host: {} passes, pass wall median {wall} s, {} sessions per pass",
        timed.walls.len(),
        report.total_sessions()
    );
    Outcome {
        attempted: disposed,
        checks,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("wall_s", wall, "s"),
            Metric::new("ops_per_s", report.total_sessions() as f64 / wall, "1/s"),
            Metric::new("peak_rss_mb", timed.peak_rss_mb, "MB"),
        ],
    }
}

/// Per-layer totals accumulated while re-driving the decision log.
#[derive(Default)]
struct Redrive {
    certify_calls: u64,
    admits: u64,
    certify_ms: Vec<f64>,
    trial_bytes: u64,
    bound_bursts: u64,
    replay_calls: u64,
    replay_bursts: u64,
}

fn engine_bursts(run: &EngineRun) -> u64 {
    run.vaults
        .iter()
        .map(|v| v.read_bursts + v.write_bursts)
        .sum()
}

/// The verdict a logged decision implies, or `None` for decisions made
/// without a certify call.
fn logged_verdict(ev: &DecisionEvent) -> Option<Verdict> {
    match ev {
        DecisionEvent::Admit { .. } => Some(Verdict::Admit),
        DecisionEvent::Reject { .. } | DecisionEvent::Backoff { .. } => Some(Verdict::Reject),
        DecisionEvent::UnknownRetry { .. } | DecisionEvent::ShedPolicy { .. } => {
            Some(Verdict::Unknown)
        }
        DecisionEvent::ShedSlot { .. }
        | DecisionEvent::ShedQueueFull { .. }
        | DecisionEvent::ShedDrain { .. } => None,
    }
}

/// Re-issues every certify, plan and replay call `serve` made, epoch by
/// epoch, with a fresh partition table each epoch, inside spans; checks
/// every verdict, partition, proof and per-tenant service time against
/// the log bit for bit.
fn redrive(
    tracer: &mut Tracer,
    checks: &mut Checks,
    inputs: &Inputs,
    report: &ServeReport,
    env: &BoundsEnv,
) -> Redrive {
    let cfg = config();
    let gate = AdmissionGate::new(env.clone());
    let mut batcher = DescriptorBatcher::new(&inputs.catalogue);
    let completed: BTreeMap<u64, &CompletedSession> =
        report.completed.iter().map(|c| (c.id, c)).collect();
    let mut by_epoch: BTreeMap<u64, Vec<&DecisionEvent>> = BTreeMap::new();
    for ev in &report.decision_log {
        by_epoch.entry(ev.epoch()).or_default().push(ev);
    }
    let mut acc = Redrive::default();
    for (epoch, events) in by_epoch {
        tracer.span(
            "serve.scheduler.epoch",
            format!("epoch {epoch}"),
            Phase::Plan,
            |t| {
                let mut table = PartitionTable::new(cfg.capacity);
                let mut batch: Vec<Resident> = Vec::new();
                let mut admitted = None;
                for ev in events {
                    let Some(want) = logged_verdict(ev) else {
                        continue;
                    };
                    let req = &inputs.traffic.sessions[ev.id() as usize];
                    let class = inputs.catalogue.get(&req.class).expect("traffic class");
                    let Some(partition) = table.alloc(class.slot) else {
                        checks.check(false, || {
                            format!("epoch {epoch}: no partition for s{} on re-drive", req.id)
                        });
                        continue;
                    };
                    let candidate = Resident::place(
                        req.clone(),
                        &class.body,
                        partition,
                        batch.len() as u64 * cfg.stagger_slots,
                    );
                    let mut trial = batch.clone();
                    trial.push(candidate.clone());
                    acc.trial_bytes += trial
                        .iter()
                        .map(|r| {
                            let c = inputs.catalogue.get(&r.request.class).expect("class");
                            c.trace_bytes
                        })
                        .sum::<u64>();
                    let ((set, cert), _) = t.span(
                        "serve.admission.certify_call",
                        format!("certify s{}", req.id),
                        Phase::Verify,
                        |t| {
                            let (out, secs) = t.span(
                                "serve.admission.certify",
                                "AdmissionGate::certify",
                                Phase::Verify,
                                |_| gate.certify(&trial),
                            );
                            acc.certify_ms.push(secs * 1e3);
                            // Attribution: the same call's layers, one by one.
                            let (set, _) = t.span(
                                "verify.interference.parse",
                                "parse_session_set",
                                Phase::Verify,
                                |_| {
                                    parse_session_set(&gate.manifest(&trial))
                                        .expect("manifest parses")
                                },
                            );
                            let (streams, _) = t.span(
                                "verify.interference.streams",
                                "tenant_streams",
                                Phase::Verify,
                                |_| tenant_streams(&set),
                            );
                            let (bounds, _) = t.span(
                                "verify.interference.compose",
                                "compose",
                                Phase::Verify,
                                |_| compose(&set, env).expect("preset env validates"),
                            );
                            let (bursts, _) = t.span(
                                "memsim.bounds.trace_bounds",
                                "trace_bounds(merged)",
                                Phase::Verify,
                                |_| {
                                    let mem = resolved_set_config(&set, env);
                                    let (merged, _) = interleave_tenants(&streams);
                                    let tb = trace_bounds(&mem, &merged).expect("preset validates");
                                    (tb.read_bursts.lo + tb.write_bursts.lo) as u64
                                },
                            );
                            acc.bound_bursts += bursts;
                            let (_, cert) = &out;
                            checks.check(
                                bounds.set.elapsed.hi.to_bits()
                                    == cert.bounds.set.elapsed.hi.to_bits(),
                                || format!("s{}: compose disagrees with certify", req.id),
                            );
                            out
                        },
                    );
                    acc.certify_calls += 1;
                    checks.check(cert.verdict == want, || {
                        format!(
                            "epoch {epoch}: s{} re-certified {:?}, log says {want:?}",
                            req.id, cert.verdict
                        )
                    });
                    match ev {
                        DecisionEvent::Admit {
                            part_start,
                            part_len,
                            ..
                        } => {
                            checks.check(
                                partition.start().get() == *part_start
                                    && partition.len().get() == *part_len,
                                || format!("epoch {epoch}: s{} placed elsewhere", req.id),
                            );
                        }
                        DecisionEvent::Reject { codes, .. } => {
                            checks.check(*codes == cert.codes(), || {
                                format!("epoch {epoch}: s{} proof differs", req.id)
                            });
                        }
                        _ => {}
                    }
                    if cert.verdict == Verdict::Admit {
                        acc.admits += 1;
                        batch.push(candidate);
                        admitted = Some(set);
                    } else {
                        table.free(partition);
                    }
                }
                let Some(set) = admitted else {
                    return;
                };
                for r in &batch {
                    let class = inputs.catalogue.get(&r.request.class).expect("class");
                    t.span("serve.batch.plan", "plan_class", Phase::Plan, |_| {
                        batcher.plan_class(&class.body)
                    });
                }
                let (run, _) = t.span(
                    "memsim.tenancy.replay",
                    "simulate_tenants",
                    Phase::Dma,
                    |_| {
                        let mem = resolved_set_config(&set, gate.env());
                        let streams = tenant_streams(&set);
                        let opts = SimOptions {
                            jobs: cfg.jobs,
                            ..SimOptions::default()
                        };
                        simulate_tenants(&mem, &streams, &opts).expect("certified batches replay")
                    },
                );
                acc.replay_calls += 1;
                acc.replay_bursts += engine_bursts(&run);
                for (r, tenant) in batch.iter().zip(&run.tenants) {
                    let same = completed
                        .get(&r.request.id)
                        .is_some_and(|c| c.service_s.to_bits() == tenant.elapsed.get().to_bits());
                    checks.check(same, || {
                        format!("epoch {epoch}: s{} service time differs", r.request.id)
                    });
                }
            },
        );
    }
    checks.check(
        batcher.planned() == report.plans_planned && batcher.cache_hits() == report.plan_cache_hits,
        || "plan cache counters differ on re-drive".to_string(),
    );
    acc
}

/// Traced run: one set-up and one serve call, each in a span, then the
/// re-drive; reports every per-layer metric.
pub fn run_traced(mix: Mix, seed: u64, size: Size, tracer: &mut Tracer) -> Outcome {
    let env = BoundsEnv::default();
    let mut checks = Checks::default();
    let label = match mix {
        Mix::Heavy => "serve-heavy",
        Mix::Many => "serve-many",
    };
    let (metrics, attempted) = tracer
        .span("bench.workload", label, Phase::Plan, |t| {
            let (inputs, _) = t.span("bench.setup", "set-up", Phase::Plan, |t| {
                let (catalogue, _) = t.span(
                    "serve.session.catalogue",
                    "Catalogue::standard",
                    Phase::Plan,
                    |_| Catalogue::standard(&env),
                );
                let (traffic, _) =
                    t.span("serve.traffic.generate", "generate", Phase::Plan, |_| {
                        traffic(mix, size, &catalogue, seed)
                    });
                Inputs { catalogue, traffic }
            });
            let ((report, tele), serve_wall) = t.span(
                "serve.scheduler.serve",
                "serve (untraced)",
                Phase::Plan,
                |_| serve_once(mix, &inputs, &env),
            );
            check_report(&mut checks, &inputs, &report);
            if let Some(tele) = &tele {
                t.span(
                    "serve.telemetry.export",
                    "telemetry export",
                    Phase::Drain,
                    |_| black_box(export(tele)),
                );
                // Slow (seconds at full size), so only the traced run
                // reconciles the telemetry with the ledger.
                let rec = tele.reconcile(&report);
                checks.check(rec.is_ok(), || {
                    format!("telemetry reconcile: {}", rec.clone().unwrap_err())
                });
            }
            let redrive_start = t.spans().len();
            let acc = redrive(t, &mut checks, &inputs, &report, &env);
            let redrive_wall: f64 = t.spans()[redrive_start..]
                .iter()
                .filter(|s| s.name == "serve.scheduler.epoch")
                .map(|s| s.duration())
                .sum();
            let m = modeled(&inputs, &report);
            print_modeled(&m, &report);
            let certify_s = t.busy("serve.admission.certify");
            let plan_s = t.busy("serve.batch.plan");
            let replay_s = t.busy("memsim.tenancy.replay");
            let attribution_s = t.busy("verify.interference.parse")
                + t.busy("verify.interference.streams")
                + t.busy("verify.interference.compose")
                + t.busy("memsim.bounds.trace_bounds");
            // The re-drive repeats serve's calls plus the attribution
            // calls; without the latter it is serve's traced twin.
            let traced_wall = redrive_wall - attribution_s;
            let self_s = serve_wall - certify_s - plan_s - replay_s;
            println!(
                "attribution: serve wall {serve_wall} s = certify {certify_s} ({:.1}%) + replay \
                 {replay_s} ({:.1}%) + plan {plan_s} + scheduler self {self_s}",
                100.0 * certify_s / serve_wall,
                100.0 * replay_s / serve_wall
            );
            let mut ms = acc.certify_ms.clone();
            ms.sort_by(f64::total_cmp);
            let calls = acc.certify_calls.max(1) as f64;
            let hit_ratio = report.plan_cache_hits as f64 / report.plans_planned.max(1) as f64;
            let mut metrics = vec![
                Metric::new(
                    "serve.session.catalogue_s",
                    t.busy("serve.session.catalogue"),
                    "s",
                ),
                Metric::new(
                    "serve.traffic.generate_s",
                    t.busy("serve.traffic.generate"),
                    "s",
                ),
                Metric::new(
                    "serve.admission.certify_calls",
                    acc.certify_calls as f64,
                    "count",
                ),
                Metric::new("serve.admission.certify_s", certify_s, "s"),
                Metric::new(
                    "serve.admission.certify_p50_ms",
                    nearest_rank(&ms, 0.50),
                    "ms",
                ),
                Metric::new(
                    "serve.admission.certify_p99_ms",
                    nearest_rank(&ms, 0.99),
                    "ms",
                ),
                Metric::new(
                    "serve.admission.admit_ratio",
                    acc.admits as f64 / calls,
                    "ratio",
                ),
                Metric::new(
                    "serve.admission.mb_per_call",
                    acc.trial_bytes as f64 / calls / 1e6,
                    "MB",
                ),
                Metric::new(
                    "serve.admission.wall_share",
                    certify_s / serve_wall,
                    "ratio",
                ),
                Metric::new(
                    "verify.interference.parse_s",
                    t.busy("verify.interference.parse"),
                    "s",
                ),
                Metric::new(
                    "verify.interference.streams_s",
                    t.busy("verify.interference.streams"),
                    "s",
                ),
                Metric::new(
                    "verify.interference.compose_s",
                    t.busy("verify.interference.compose"),
                    "s",
                ),
                Metric::new(
                    "memsim.bounds.bursts_per_s",
                    acc.bound_bursts as f64 / t.busy("memsim.bounds.trace_bounds"),
                    "1/s",
                ),
                Metric::new(
                    "memsim.tenancy.replay_calls",
                    acc.replay_calls as f64,
                    "count",
                ),
                Metric::new("memsim.tenancy.replay_s", replay_s, "s"),
                Metric::new(
                    "memsim.tenancy.bursts_per_s",
                    acc.replay_bursts as f64 / replay_s,
                    "1/s",
                ),
                Metric::new("serve.batch.plan_s", plan_s, "s"),
                Metric::new("serve.batch.cache_hit_ratio", hit_ratio, "ratio"),
                Metric::new("serve.scheduler.self_s", self_s, "s"),
                Metric::new(
                    "serve.telemetry.export_s",
                    t.busy("serve.telemetry.export"),
                    "s",
                ),
                Metric::new("bench.trace.overhead_s", traced_wall - serve_wall, "s"),
            ];
            metrics.extend(modeled_metrics(&m));
            (metrics, report.total_sessions() as u64)
        })
        .0;
    Outcome {
        attempted,
        checks,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_selects_the_traffic() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let heavy = heavy_traffic(&cat, crate::DEFAULT_SEED, HEAVY_SESSIONS);
        assert_eq!(heavy.sessions.len(), HEAVY_SESSIONS);
        assert_eq!(
            heavy,
            heavy_traffic(&cat, crate::DEFAULT_SEED, HEAVY_SESSIONS)
        );
        assert_ne!(
            heavy,
            heavy_traffic(&cat, crate::HELD_OUT_SEED, HEAVY_SESSIONS)
        );
        let many = many_traffic(&cat, crate::DEFAULT_SEED, 40);
        assert_eq!(many, many_traffic(&cat, crate::DEFAULT_SEED, 40));
        assert_ne!(many, many_traffic(&cat, crate::HELD_OUT_SEED, 40));
    }
}
