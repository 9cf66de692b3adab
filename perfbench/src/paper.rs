//! The `paper` workload: the evaluation regenerated through public calls
//! (Table 2 sweep for Figures 9/10, the Figure 11 design space, the
//! Figure 13 STAP runs), the methodology patterns priced by the analytic
//! model against the engine, and fast-engine replay of the Figure 9,
//! Figure 13 and SAR request streams.

use std::hint::black_box;
use std::time::Instant;

use mealib_accel::design_space::{
    fft_reference_workload, pareto_frontier, spmv_reference_workload, sweep_pruned, sweep_with,
    DesignPoint, PrunedSweep, SweepGrid, SweepOptions,
};
use mealib_accel::trace_exec::generate_trace;
use mealib_accel::{AccelParams, AcceleratorLayer};
use mealib_memsim::engine::{self, simulate, EngineRun, Op, SimOptions};
use mealib_memsim::{analytic, AccessPattern, MemoryConfig, TraceBuffer};
use mealib_obs::Phase;
use mealib_sim::{run_sweep, ExperimentOptions};
use mealib_tdl::AcceleratorKind;
use mealib_workloads::stap::{self, StapConfig};
use mealib_workloads::{datasets, sar};

use crate::trace::Tracer;
use crate::{median, repeat_for, Checks, Metric, Outcome, Size, SplitMix64};

/// One request stream replayed through the engine.
struct Stream {
    name: String,
    /// `true` for scattered scalar gathers (spmv), which the fast engine
    /// cannot batch; the other streams are row-local.
    gather: bool,
    trace: TraceBuffer,
}

/// One methodology case: an access pattern for the analytic model and
/// the trace the engine prices it from.
struct Case {
    name: &'static str,
    pattern: AccessPattern,
    trace: TraceBuffer,
}

/// Everything the timed passes read.
pub struct Inputs {
    streams: Vec<Stream>,
    cases: Vec<Case>,
}

/// Per-size knobs.
struct Sizing {
    /// Byte cap of each replayed request stream.
    stream_bytes: u64,
    /// Sequential bytes each Figure 11 design point replays.
    engine_check_bytes: u64,
    /// STAP datasets of Figure 13.
    stap: Vec<StapConfig>,
    /// Scale of the methodology traces (1 = the validation harness's).
    case_scale: u64,
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            stream_bytes: 64 << 20,
            engine_check_bytes: 8 << 20,
            stap: vec![
                StapConfig::small(),
                StapConfig::medium(),
                StapConfig::large(),
            ],
            case_scale: 1,
        },
        Size::Tiny => Sizing {
            stream_bytes: 256 << 10,
            engine_check_bytes: 64 << 10,
            stap: vec![StapConfig::small()],
            case_scale: 16,
        },
    }
}

/// The Figure 9 streams (Table 2), the Figure 13 STAP phases and the SAR
/// stages, each generated at most `max_bytes` long.
fn streams(max_bytes: u64) -> Vec<Stream> {
    let layer = AcceleratorLayer::mealib_default();
    let mut out = Vec::new();
    let mut push = |name: String, params: &AccelParams| {
        let (trace, _) = generate_trace(params, layer.hw(), max_bytes);
        let gather = matches!(params, AccelParams::Spmv { .. });
        out.push(Stream {
            name,
            gather,
            trace,
        });
    };
    for row in datasets::table2() {
        let name = format!("fig09:{}", row.params.kind().keyword().to_lowercase());
        push(name, &row.params);
    }
    let cfg = StapConfig::small();
    for phase in ["fftw (chain)", "cdotc", "saxpy"] {
        push(
            format!("fig13:{phase}"),
            &stap::accel_phase_params(&cfg, phase),
        );
    }
    for (i, params) in sar::sar_stages(256).iter().enumerate() {
        push(format!("sar:stage{i}"), params);
    }
    out
}

/// The methodology-validation patterns; the gather addresses come from
/// the seed.
fn cases(seed: u64, scale: u64) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed);
    let mb = (1u64 << 20) / scale;
    let axpy_bytes = 8 * mb;
    let chunk = 4096u64;
    let y_base = (1u64 << 30) + 128 * 1024;
    let mut axpy = TraceBuffer::new();
    for i in 0..(axpy_bytes / chunk) {
        axpy.push_read(i * chunk, chunk);
        axpy.push_read(y_base + i * chunk, chunk);
        axpy.push_write(y_base + i * chunk, chunk / 2);
    }
    let walk = 16384 / scale;
    let gathers = 65536 / scale;
    let region = 64u64 << 20;
    let mut gather = TraceBuffer::with_capacity(gathers as usize);
    for _ in 0..gathers {
        gather.push_read(rng.below(region) & !3, 4);
    }
    vec![
        Case {
            name: "stream",
            pattern: AccessPattern::sequential_read(32 * mb),
            trace: engine::sequential_trace(0, 32 * mb, 256, Op::Read),
        },
        Case {
            name: "axpy",
            pattern: AccessPattern::sequential_rw(2 * axpy_bytes, axpy_bytes / 2),
            trace: axpy,
        },
        Case {
            name: "strided",
            pattern: AccessPattern::Strided {
                stride: 65536,
                elem_bytes: 256,
                count: walk,
                write: false,
            },
            trace: engine::strided_trace(0, 65536, 256, walk, Op::Read),
        },
        Case {
            name: "spmv-gather",
            pattern: AccessPattern::Random {
                elem_bytes: 4,
                count: gathers,
                region_bytes: region,
            },
            trace: gather,
        },
    ]
}

/// Set-up: generates the replay streams and the pattern traces, then
/// checks the fast engine against the cycle oracle on every one of them
/// (`DualCheck`), so no pass times an engine that disagrees with it.
fn setup(seed: u64, size: Size, checks: &mut Checks) -> Inputs {
    let s = sizing(size);
    let inputs = Inputs {
        streams: streams(s.stream_bytes),
        cases: cases(seed, s.case_scale),
    };
    dual_check(&inputs, checks);
    inputs
}

fn dual_check(inputs: &Inputs, checks: &mut Checks) {
    let hmc = MemoryConfig::hmc_stack();
    for st in &inputs.streams {
        let r = simulate(&hmc, &st.trace, &SimOptions::dual_check());
        checks.check(r.is_ok(), || {
            format!("{}: DualCheck: {:?}", st.name, r.err())
        });
    }
    for mem in devices() {
        for case in &inputs.cases {
            let r = simulate(&mem, &case.trace, &SimOptions::dual_check());
            checks.check(r.is_ok(), || {
                format!("{}: DualCheck: {:?}", case.name, r.err())
            });
        }
    }
}

fn bursts(run: &EngineRun) -> u64 {
    run.vaults
        .iter()
        .map(|v| v.read_bursts + v.write_bursts)
        .sum()
}

fn devices() -> [MemoryConfig; 2] {
    [MemoryConfig::hmc_stack(), MemoryConfig::ddr_dual_channel()]
}

/// The results of one pass, as bits, so passes compare exactly.
#[derive(Default, PartialEq)]
struct Results {
    /// Figure 9 MEALib speedup per Table 2 op.
    speedups: Vec<f64>,
    /// Figure 10 MEALib energy-efficiency gain per Table 2 op.
    ee_gains: Vec<f64>,
    /// Figure 11 frontiers, full sweep then pruned, per accelerator.
    frontiers: Vec<Vec<DesignPoint>>,
    /// Figure 13 (perf, EDP) gains per STAP dataset.
    stap: Vec<(f64, f64)>,
    /// analytic/engine time ratio per (device, methodology case).
    ratios: Vec<f64>,
    /// Modeled elapsed seconds per replayed stream.
    replay_s: Vec<f64>,
}

/// Host seconds and counts one pass spent per layer.
#[derive(Default)]
struct PassCost {
    replay_s: f64,
    replay_bursts: u64,
    design_points: u64,
    pruned: u64,
    grid_cells: u64,
    estimate_calls: u64,
}

/// Wraps `f` in a span when tracing, else just runs it.
fn layer<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    label: &str,
    phase: Phase,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => t.span(name, label, phase, |_| f()),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64())
        }
    }
}

fn explore(
    kind: AcceleratorKind,
    workload: &AccelParams,
    opts: &SweepOptions,
) -> (Vec<DesignPoint>, PrunedSweep) {
    let grid = SweepGrid::default();
    let mem = MemoryConfig::hmc_stack();
    let full = sweep_with(kind, workload, &grid, &mem, opts);
    let pruned = sweep_pruned(kind, workload, &grid, &mem, opts);
    (full, pruned)
}

fn fig11_workloads() -> [(AcceleratorKind, AccelParams); 2] {
    [
        (AcceleratorKind::Fft, fft_reference_workload()),
        (AcceleratorKind::Spmv, spmv_reference_workload()),
    ]
}

/// One pass over the whole evaluation.
fn pass(
    inputs: &Inputs,
    size: Size,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Results, PassCost) {
    let s = sizing(size);
    let mut res = Results::default();
    let mut cost = PassCost::default();

    let ops: Vec<AccelParams> = datasets::table2().iter().map(|r| r.params).collect();
    let (reports, _) = layer(
        &mut tracer,
        "sim.sweep.run",
        "run_sweep(table2)",
        Phase::Compute,
        || run_sweep(&ops, &ExperimentOptions::default(), 1),
    );
    for (op, report) in ops.iter().zip(reports) {
        match report {
            Ok(r) => {
                res.speedups.push(r.comparison.mealib_speedup());
                res.ee_gains.push(r.comparison.mealib_efficiency_gain());
            }
            Err(e) => checks.check(false, || {
                format!("{:?}: preflight failed: {e:?}", op.kind())
            }),
        }
    }

    let opts = SweepOptions {
        jobs: 1,
        engine_check_bytes: s.engine_check_bytes,
    };
    for (kind, workload) in fig11_workloads() {
        let ((full, pruned), _) = layer(
            &mut tracer,
            "accel.design_space.sweep",
            &format!("{kind} sweep_with + sweep_pruned"),
            Phase::Compute,
            || explore(kind, &workload, &opts),
        );
        let full_frontier = pareto_frontier(&full);
        let pruned_frontier = pareto_frontier(&pruned.points);
        checks.check(full_frontier == pruned_frontier, || {
            format!("{kind}: pruned frontier differs from the full sweep's")
        });
        cost.design_points += (full.len() + pruned.simulated) as u64;
        cost.pruned += pruned.pruned as u64;
        cost.grid_cells += (pruned.simulated + pruned.pruned) as u64;
        res.frontiers.push(full_frontier);
        res.frontiers.push(pruned_frontier);
    }

    for cfg in &s.stap {
        let (g, _) = layer(
            &mut tracer,
            "workloads.stap.run",
            cfg.name,
            Phase::Compute,
            || stap::gains(cfg),
        );
        res.stap.push(g);
    }

    for mem in devices() {
        for case in &inputs.cases {
            let (est, _) = layer(
                &mut tracer,
                "memsim.analytic.try_estimate",
                case.name,
                Phase::Compute,
                || analytic::try_estimate(&mem, &case.pattern),
            );
            cost.estimate_calls += 1;
            let (run, _) = layer(
                &mut tracer,
                "memsim.engine.oracle",
                case.name,
                Phase::Dma,
                || simulate(&mem, &case.trace, &SimOptions::fast()),
            );
            match (est, run) {
                (Ok(est), Ok(run)) => res.ratios.push(est.elapsed.get() / run.stats.elapsed.get()),
                _ => checks.check(false, || format!("{}: pricing failed", case.name)),
            }
        }
    }

    let mem = MemoryConfig::hmc_stack();
    for st in &inputs.streams {
        let (run, secs) = layer(
            &mut tracer,
            "memsim.engine.fast",
            &st.name,
            Phase::Dma,
            || simulate(&mem, &st.trace, &SimOptions::fast()),
        );
        cost.replay_s += secs;
        match run {
            Ok(run) => {
                cost.replay_bursts += bursts(&run);
                res.replay_s.push(run.stats.elapsed.get());
            }
            Err(e) => checks.check(false, || format!("{}: replay failed: {e:?}", st.name)),
        }
    }
    (res, cost)
}

fn oracle_err(res: &Results) -> f64 {
    res.ratios
        .iter()
        .map(|r| (1.0 - r).abs())
        .fold(0.0, f64::max)
}

/// Checked once per run, outside the timed passes: the Figure 11 sweeps
/// give identical output at one and two workers.
fn check_workers(size: Size, checks: &mut Checks) {
    let s = sizing(size);
    for (kind, workload) in fig11_workloads() {
        let at = |jobs| {
            explore(
                kind,
                &workload,
                &SweepOptions {
                    jobs,
                    engine_check_bytes: s.engine_check_bytes,
                },
            )
        };
        let (full1, pruned1) = at(1);
        let (full2, pruned2) = at(2);
        checks.check(full1 == full2 && pruned1.points == pruned2.points, || {
            format!("{kind}: sweep output differs between 1 and 2 workers")
        });
    }
}

/// Published values from EXPERIMENTS.md beside the modeled ones. Report
/// only: the figures may move on purpose, so none is gated.
fn print_paper_lines(res: &Results) {
    let published = [
        ("axpy", "13.3x"),
        ("dot", "10.9x"),
        ("gemv", "20.4x"),
        ("spmv", "~11x"),
        ("resmp", "~39x"),
        ("fft", "35-39x"),
        ("reshp", "88.4x"),
    ];
    for (i, row) in datasets::table2().iter().enumerate() {
        let op = row.params.kind().keyword().to_lowercase();
        let paper = published
            .iter()
            .find(|(k, _)| *k == op)
            .map_or("-", |(_, v)| v);
        if let Some(s) = res.speedups.get(i) {
            println!("paper: fig09 speedup {op}: modeled {s:.2}x, published {paper}");
        }
    }
    let n = res.ee_gains.len().max(1) as f64;
    let geomean = (res.ee_gains.iter().map(|g| g.ln()).sum::<f64>() / n).exp();
    println!("paper: fig10 average EE gain: modeled {geomean:.2}x (geomean), published 75x");
    let fig13 = [
        ("small", "2.0x", "4.5x"),
        ("medium", "2.3x", "9.0x"),
        ("large", "3.2x", "10.2x"),
    ];
    for ((perf, edp), (name, pp, pe)) in res.stap.iter().zip(fig13) {
        println!(
            "paper: fig13 {name}: perf gain modeled {perf:.2}x (published {pp}), \
             EDP gain modeled {edp:.2}x (published {pe})"
        );
    }
    println!(
        "paper: model_oracle_err = {} is the analytic model's largest |1 - analytic/engine| \
         time ratio against the cycle oracle over the methodology patterns; the model is not \
         validated against hardware",
        oracle_err(res)
    );
}

/// Untraced run: set-up three times, the once-per-run checks, then
/// passes for `seconds`.
pub fn run(seed: u64, seconds: f64, size: Size) -> Outcome {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let i = setup(seed, size, &mut checks);
        setups.push(t0.elapsed().as_secs_f64());
        inputs = Some(i);
    }
    let inputs = inputs.expect("three set-ups ran");
    check_workers(size, &mut checks);
    let mut first: Option<Results> = None;
    let mut replay = Vec::new();
    let mut replay_bursts = 0;
    let mut attempted = 0u64;
    let timed = repeat_for(
        seconds,
        || {
            let mut local = Checks::default();
            let out = pass(&inputs, size, &mut local, None);
            (out, local)
        },
        |((res, cost), local)| {
            checks.merge(local);
            replay.push(cost.replay_s);
            replay_bursts = cost.replay_bursts;
            attempted += (res.speedups.len()
                + res.frontiers.len()
                + res.stap.len()
                + res.ratios.len()
                + res.replay_s.len()) as u64;
            match &first {
                None => first = Some(res),
                Some(r0) => checks.check(*r0 == res, || {
                    "passes over the same inputs disagree".to_string()
                }),
            }
        },
    );
    let res = first.expect("at least one pass");
    print_paper_lines(&res);
    let wall = median(&timed.walls);
    println!(
        "host: {} passes, pass wall median {wall} s",
        timed.walls.len()
    );
    Outcome {
        attempted,
        checks,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("wall_s", wall, "s"),
            Metric::new("ops_per_s", replay_bursts as f64 / median(&replay), "1/s"),
            Metric::new("peak_rss_mb", timed.peak_rss_mb, "MB"),
        ],
    }
}

/// Geometric mean of cycle/fast host-time ratios.
fn geomean_ratio(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let ln: f64 = pairs.iter().map(|(c, f)| (c / f).ln()).sum();
    (ln / pairs.len() as f64).exp()
}

/// Traced run: set-up in spans, one untraced pass for the overhead, one
/// traced pass, then each stream once more on the cycle engine.
pub fn run_traced(seed: u64, size: Size, tracer: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let (metrics, attempted) = tracer
        .span("bench.workload", "paper", Phase::Plan, |t| {
            let s = sizing(size);
            let (inputs, _) = t.span("bench.setup", "set-up", Phase::Plan, |t| {
                let (streams, _) = t.span(
                    "accel.trace_exec.generate",
                    "generate_trace",
                    Phase::Plan,
                    |_| streams(s.stream_bytes),
                );
                let inputs = Inputs {
                    streams,
                    cases: cases(seed, s.case_scale),
                };
                t.span(
                    "memsim.engine.dual_check",
                    "DualCheck",
                    Phase::Verify,
                    |_| dual_check(&inputs, &mut checks),
                );
                inputs
            });
            t.span("bench.checks", "fig11 at 2 workers", Phase::Verify, |_| {
                check_workers(size, &mut checks)
            });
            let (_, untraced) = t.span(
                "bench.pass.untraced",
                "pass (untraced)",
                Phase::Plan,
                |_| pass(&inputs, size, &mut Checks::default(), None),
            );
            let ((res, cost), traced) =
                t.span("bench.pass.traced", "pass (traced)", Phase::Plan, |t| {
                    pass(&inputs, size, &mut checks, Some(t))
                });
            print_paper_lines(&res);
            let mem = MemoryConfig::hmc_stack();
            let mut ratio = (Vec::new(), Vec::new());
            let mut fast = [(0u64, 0.0f64); 2];
            let mut cycle = (0u64, 0.0f64);
            let fast_spans: Vec<f64> = t
                .spans()
                .iter()
                .filter(|sp| sp.name == "memsim.engine.fast")
                .map(|sp| sp.duration())
                .collect();
            for (st, &fast_s) in inputs.streams.iter().zip(&fast_spans) {
                let (run, cycle_s) = t.span("memsim.engine.cycle", &st.name, Phase::Dma, |_| {
                    simulate(&mem, &st.trace, &SimOptions::cycle()).expect("preset validates")
                });
                let n = bursts(&run);
                black_box(&run);
                cycle.0 += n;
                cycle.1 += cycle_s;
                let k = usize::from(st.gather);
                fast[k].0 += n;
                fast[k].1 += fast_s;
                if st.gather {
                    ratio.1.push((cycle_s, fast_s));
                } else {
                    ratio.0.push((cycle_s, fast_s));
                }
            }
            let design_s = t.busy("accel.design_space.sweep");
            let metrics = vec![
                Metric::new("sim.sweep.ops", res.speedups.len() as f64, "count"),
                Metric::new("sim.sweep.run_s", t.busy("sim.sweep.run"), "s"),
                Metric::new(
                    "accel.design_space.points",
                    cost.design_points as f64,
                    "count",
                ),
                Metric::new(
                    "accel.design_space.points_per_s",
                    cost.design_points as f64 / design_s,
                    "1/s",
                ),
                Metric::new(
                    "accel.design_space.pruned_ratio",
                    cost.pruned as f64 / cost.grid_cells.max(1) as f64,
                    "ratio",
                ),
                Metric::new("workloads.stap.run_s", t.busy("workloads.stap.run"), "s"),
                Metric::new(
                    "memsim.analytic.estimate_calls",
                    cost.estimate_calls as f64,
                    "count",
                ),
                Metric::new(
                    "memsim.analytic.estimate_s",
                    t.busy("memsim.analytic.try_estimate"),
                    "s",
                ),
                Metric::new("memsim.analytic.oracle_err", oracle_err(&res), "ratio"),
                Metric::new(
                    "accel.trace_exec.generate_s",
                    t.busy("accel.trace_exec.generate"),
                    "s",
                ),
                Metric::new(
                    "memsim.engine.stream.bursts_per_s",
                    fast[0].0 as f64 / fast[0].1,
                    "1/s",
                ),
                Metric::new(
                    "memsim.engine.gather.bursts_per_s",
                    fast[1].0 as f64 / fast[1].1,
                    "1/s",
                ),
                Metric::new(
                    "memsim.engine.cycle.bursts_per_s",
                    cycle.0 as f64 / cycle.1,
                    "1/s",
                ),
                Metric::new(
                    "memsim.engine.fast_over_cycle.stream",
                    geomean_ratio(&ratio.0),
                    "ratio",
                ),
                Metric::new(
                    "memsim.engine.fast_over_cycle.gather",
                    geomean_ratio(&ratio.1),
                    "ratio",
                ),
                Metric::new("bench.trace.overhead_s", traced - untraced, "s"),
            ];
            let attempted =
                (res.speedups.len() + res.stap.len() + res.ratios.len() + res.replay_s.len())
                    as u64;
            (metrics, attempted)
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

    fn gather_addrs(seed: u64) -> Vec<u64> {
        let cases = cases(seed, 16);
        let gather = cases
            .iter()
            .find(|c| c.name == "spmv-gather")
            .expect("gather case");
        gather.trace.iter().map(|r| r.addr.get()).collect()
    }

    #[test]
    fn the_seed_selects_the_gather_addresses() {
        let a = gather_addrs(crate::DEFAULT_SEED);
        assert_eq!(a, gather_addrs(crate::DEFAULT_SEED));
        assert_ne!(a, gather_addrs(crate::HELD_OUT_SEED));
    }
}
