//! The repository benchmark: host cost of the MEALib reproduction,
//! measured end to end and attributed layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-heavy|serve-many|paper --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is a separate run that records spans around the calls
//! into each layer and reports the per-layer metrics, writing the spans
//! as a Chrome trace to `perfbench/out/`. Every run checks the program's
//! outputs; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! the workloads, the metrics and which layer should move which metric.

mod paper;
mod serving;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use serving::Mix;
use trace::Tracer;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning, for confirming a claim on unseen traffic.
pub const HELD_OUT_SEED: u64 = 7;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-heavy", "serve-many", "paper"];

/// Metrics of a `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a `--trace 1` run: `(name, unit)`. A workload that does not
/// exercise a layer reports its metrics as 0: no calls, no time.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.session.catalogue_s", "s"),
    ("serve.traffic.generate_s", "s"),
    ("serve.admission.certify_calls", "count"),
    ("serve.admission.certify_s", "s"),
    ("serve.admission.certify_p50_ms", "ms"),
    ("serve.admission.certify_p99_ms", "ms"),
    ("serve.admission.admit_ratio", "ratio"),
    ("serve.admission.mb_per_call", "MB"),
    ("serve.admission.wall_share", "ratio"),
    ("verify.interference.parse_s", "s"),
    ("verify.interference.streams_s", "s"),
    ("verify.interference.compose_s", "s"),
    ("memsim.bounds.bursts_per_s", "1/s"),
    ("memsim.tenancy.replay_calls", "count"),
    ("memsim.tenancy.replay_s", "s"),
    ("memsim.tenancy.bursts_per_s", "1/s"),
    ("serve.batch.plan_s", "s"),
    ("serve.batch.cache_hit_ratio", "ratio"),
    ("serve.scheduler.self_s", "s"),
    ("serve.telemetry.export_s", "s"),
    ("serve.report.admitted_frac", "ratio"),
    ("serve.report.modeled_makespan_s", "s"),
    ("serve.report.slowdown_p50", "ratio"),
    ("serve.report.slowdown_p99", "ratio"),
    ("sim.sweep.ops", "count"),
    ("sim.sweep.run_s", "s"),
    ("accel.design_space.points", "count"),
    ("accel.design_space.points_per_s", "1/s"),
    ("accel.design_space.pruned_ratio", "ratio"),
    ("workloads.stap.run_s", "s"),
    ("memsim.analytic.estimate_calls", "count"),
    ("memsim.analytic.estimate_s", "s"),
    ("memsim.analytic.oracle_err", "ratio"),
    ("accel.trace_exec.generate_s", "s"),
    ("memsim.engine.stream.bursts_per_s", "1/s"),
    ("memsim.engine.gather.bursts_per_s", "1/s"),
    ("memsim.engine.cycle.bursts_per_s", "1/s"),
    ("memsim.engine.fast_over_cycle.stream", "ratio"),
    ("memsim.engine.fast_over_cycle.gather", "ratio"),
    ("bench.trace.wall_s", "s"),
    ("bench.trace.overhead_s", "s"),
    ("bench.trace.spans", "count"),
    ("bench.trace.busy_s", "s"),
];

/// Input scale. `Tiny` exists for the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Seconds-long runs for the self-test.
    Tiny,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric reading.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        // An empty f64 sum is -0.0; report it as 0.
        let value = if value == 0.0 { 0.0 } else { value };
        Self { name, value, unit }
    }
}

/// Tally of output checks; a failed check is printed to standard error
/// and counted, never skipped.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.made += other.made;
        self.failed += other.failed;
    }
}

/// What one workload run reports.
pub struct Outcome {
    /// Operations attempted: sessions disposed, or the paper workload's
    /// experiments, estimates and replays.
    pub attempted: u64,
    /// Output checks.
    pub checks: Checks,
    /// Metrics the workload measured.
    pub metrics: Vec<Metric>,
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Host seconds of each timed pass, and the process's peak resident
/// memory once set-up and the first pass are done.
pub struct Timed {
    /// Host seconds per pass.
    pub walls: Vec<f64>,
    /// Peak resident set after the first pass, MB. Later passes repeat
    /// the first over the same inputs; their allocator state is not
    /// part of the measurement.
    pub peak_rss_mb: f64,
}

/// Runs timed passes for about `seconds`: at least one, and another only
/// while it is expected to end within the budget. `pass` is timed;
/// `after` consumes its output untimed (checks).
pub fn repeat_for<T>(seconds: f64, mut pass: impl FnMut() -> T, mut after: impl FnMut(T)) -> Timed {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    loop {
        let t0 = Instant::now();
        let out = std::hint::black_box(pass());
        walls.push(t0.elapsed().as_secs_f64());
        after(out);
        if walls.len() == 1 {
            peak_rss_mb = peak_rss();
        }
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            return Timed { walls, peak_rss_mb };
        }
    }
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`); NaN, which
/// fails the run's output check, if `/proc/self/status` has no such line.
fn peak_rss() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Renders the result line. Values keep every digit; a non-finite value
/// is a failed check and is written as 0 so the line stays valid JSON.
fn result_line(attempted: u64, checks: &mut Checks, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            checks.check(false, || format!("{} is not finite", m.name));
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        attempted,
        checks.failed
    )
}

/// Orders `measured` as `listed`, filling a layer the workload does not
/// exercise with 0. A metric missing from `listed` is a bug here.
fn complete(listed: &[(&'static str, &'static str)], measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            listed.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "{} [{}] is not a listed metric",
            m.name,
            m.unit
        );
    }
    listed
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

fn run(args: &Args) -> Result<String, String> {
    let mix = match args.workload.as_str() {
        "serve-heavy" => Some(Mix::Heavy),
        "serve-many" => Some(Mix::Many),
        _ => None,
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut outcome = if args.trace {
        let mut tracer = Tracer::new();
        let mut out = match mix {
            Some(mix) => serving::run_traced(mix, args.seed, args.size, &mut tracer),
            None => paper::run_traced(args.seed, args.size, &mut tracer),
        };
        let (doc, summary) = tracer.chrome_trace()?;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace: {} spans on {} track(s) written to {path}",
            summary.spans, summary.tracks
        );
        println!("self time per layer (s):");
        let selfs = tracer.self_times();
        for (name, secs) in &selfs {
            println!("  {name:<40} {secs:.6}");
        }
        let wall = tracer.spans().first().map_or(0.0, trace::Span::duration);
        out.metrics
            .push(Metric::new("bench.trace.wall_s", wall, "s"));
        out.metrics
            .push(Metric::new("bench.trace.busy_s", tracer.leaf_busy(), "s"));
        out.metrics.push(Metric::new(
            "bench.trace.spans",
            summary.spans as f64,
            "count",
        ));
        out
    } else {
        match mix {
            Some(mix) => serving::run(mix, args.seed, args.seconds, args.size),
            None => paper::run(args.seed, args.seconds, args.size),
        }
    };
    println!(
        "checks: {} made, {} failed; failed_frac {} over {} operations",
        outcome.checks.made,
        outcome.checks.failed,
        outcome.checks.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = complete(listed, outcome.metrics);
    if outcome.attempted == 0 {
        return Err("the workload attempted no operation".into());
    }
    Ok(result_line(
        outcome.attempted,
        &mut outcome.checks,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
