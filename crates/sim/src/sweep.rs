//! Parallel experiment sweeps.
//!
//! The Figure 9/10 harnesses run [`run_experiment`](crate::run_experiment)
//! once per Table 2 workload; the design-space and ablation studies run
//! hundreds of independent configurations. Each call is self-contained —
//! it builds its accelerated platforms and its breakdown locally, and the
//! shared pieces ([`TraceRecorder::shared`](mealib_obs::TraceRecorder)
//! sinks, the [`preflight`](crate::preflight) verdict cache, the
//! sanitizer state) are behind `Arc`/`Mutex`/`OnceLock` — so fanning the
//! calls across a bounded worker pool preserves every per-run result
//! bit-for-bit. Only the *interleaving* of recorder events differs, and
//! [`mealib_obs::Breakdown`] merging is commutative, so per-run
//! reconciliation still holds.
//!
//! When a recorder is installed and `jobs > 1`, each run records into a
//! private [`SpoolRecorder`] that is drained into the shared sink with
//! one batched (single-lock) call per run — workers never contend on the
//! sink's mutex per event, only once per experiment.

use mealib_accel::AccelParams;
use mealib_obs::{Obs, SpoolRecorder};

use crate::experiment::{run_experiment, ExperimentOptions, ExperimentReport};

/// Runs `run_experiment` for every op in `ops` across up to `jobs`
/// worker threads, returning per-op results in input order.
///
/// `jobs == 0` resolves to the machine's available parallelism (the
/// workspace-wide [`mealib_types::auto_jobs`] convention); `jobs == 1`
/// runs serially on the calling thread. Results are
/// positionally identical to the serial loop regardless of `jobs`: the
/// scheduling is handled by [`mealib_types::par_map`], which reassembles
/// results by index. Recorder events are spooled per run and delivered
/// to the shared sink in one batch each, so an enabled recorder does not
/// serialize the workers on its mutex.
///
/// When an active [`Sanitizer`](mealib_runtime::Sanitizer) is installed
/// in `opts`, the sweep degrades to serial execution: all runs share the
/// sanitizer's shadow-memory state, and interleaving coherence protocols
/// from concurrent runs would report phantom violations.
pub fn run_sweep(
    ops: &[AccelParams],
    opts: &ExperimentOptions,
    jobs: usize,
) -> Vec<Result<ExperimentReport, mealib_types::Report>> {
    let jobs = if opts.sanitizer.is_active() {
        1
    } else {
        mealib_types::auto_jobs(jobs)
    };
    match (jobs > 1).then(|| opts.obs.recorder()).flatten() {
        Some(sink) => mealib_types::par_map(ops, jobs, move |op| {
            let spool = SpoolRecorder::shared(sink.clone());
            let local = opts.clone().obs(Obs::new(spool.clone()));
            let result = run_experiment(op, &local);
            spool.flush();
            result
        }),
        None => mealib_types::par_map(ops, jobs, |op| run_experiment(op, opts)),
    }
}

/// The sweep fans one `ExperimentOptions` out to all workers by shared
/// reference, so the type must stay shareable across threads. These
/// bindings fail to compile if a non-`Send`/`Sync` field sneaks in.
const fn assert_options_shareable() {
    const fn sendable<T: Send + Sync>() {}
    sendable::<ExperimentOptions>();
    sendable::<ExperimentReport>();
}
const _: () = assert_options_shareable();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::table2_workloads;
    use mealib_obs::{Phase, TraceRecorder};
    use mealib_runtime::Sanitizer;

    fn small_ops() -> Vec<AccelParams> {
        vec![
            AccelParams::Axpy {
                n: 1 << 16,
                alpha: 2.0,
                incx: 1,
                incy: 1,
            },
            AccelParams::Gemv { m: 512, n: 512 },
            AccelParams::Reshp {
                rows: 1024,
                cols: 1024,
                elem_bytes: 4,
            },
        ]
    }

    #[test]
    fn parallel_sweep_matches_serial_per_run() {
        let ops = small_ops();
        let opts = ExperimentOptions::default();
        let serial = run_sweep(&ops, &opts, 1);
        let parallel = run_sweep(&ops, &opts, 4);
        assert_eq!(serial.len(), ops.len());
        assert_eq!(parallel.len(), ops.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("preflight clean");
            let p = p.as_ref().expect("preflight clean");
            assert_eq!(s.comparison, p.comparison);
            assert_eq!(
                s.breakdown.total_time().get().to_bits(),
                p.breakdown.total_time().get().to_bits()
            );
            assert_eq!(
                s.breakdown.total_energy().get().to_bits(),
                p.breakdown.total_energy().get().to_bits()
            );
        }
    }

    #[test]
    fn sweep_preserves_input_order() {
        let ops = table2_workloads();
        let results = run_sweep(&ops, &ExperimentOptions::default(), 8);
        assert_eq!(results.len(), ops.len());
        for (op, result) in ops.iter().zip(&results) {
            let report = result.as_ref().expect("preflight clean");
            assert_eq!(report.comparison.op.kind(), op.kind());
        }
    }

    #[test]
    fn shared_recorder_merges_every_run() {
        // One recorder across a parallel sweep: per-run breakdowns land
        // in the shared sink, and the merged totals equal the sum of the
        // per-run MEALib phases (Breakdown merging is commutative).
        let rec = TraceRecorder::shared();
        let opts = ExperimentOptions::default().recorder(rec.clone());
        let ops = small_ops();
        let results = run_sweep(&ops, &opts, 4);
        let mut want_dma = 0.0;
        for r in &results {
            let report = r.as_ref().expect("preflight clean");
            want_dma += report.breakdown.phase(Phase::Dma).time.get();
        }
        let merged = rec.breakdown();
        assert!(merged.phase(Phase::Dma).time.get() >= want_dma * 0.999);
        assert!(merged.phase(Phase::Compute).time.get() > 0.0);
    }

    #[test]
    fn spooled_parallel_recording_matches_serial_recording() {
        // jobs=1 records straight into the sink; jobs=4 goes through the
        // per-worker spools. Integer counters must agree exactly (u64
        // sums commute); float totals agree up to summation order.
        let ops = small_ops();
        let serial_rec = TraceRecorder::shared();
        let serial = run_sweep(
            &ops,
            &ExperimentOptions::default().recorder(serial_rec.clone()),
            1,
        );
        let par_rec = TraceRecorder::shared();
        let parallel = run_sweep(
            &ops,
            &ExperimentOptions::default().recorder(par_rec.clone()),
            4,
        );
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("preflight clean");
            let p = p.as_ref().expect("preflight clean");
            assert_eq!(s.comparison, p.comparison, "results must not change");
        }
        let s = serial_rec.breakdown();
        let p = par_rec.breakdown();
        for c in [
            mealib_obs::Counter::DramAct,
            mealib_obs::Counter::DramRdBytes,
            mealib_obs::Counter::CuPasses,
            mealib_obs::Counter::NocFlits,
        ] {
            assert_eq!(s.counter(c), p.counter(c), "{c:?}");
        }
        let (st, pt) = (s.total_time().get(), p.total_time().get());
        assert!((st - pt).abs() <= 1e-9 * st.abs(), "{st} vs {pt}");
    }

    #[test]
    fn active_sanitizer_forces_serial_and_stays_clean() {
        let opts = ExperimentOptions::default().sanitizer(Sanitizer::active());
        let ops = small_ops();
        let results = run_sweep(&ops, &opts, 8);
        for r in results {
            let report = r.expect("preflight clean");
            let san = report.sanitizer.expect("active sanitizer records");
            assert!(san.is_clean(), "{}", san.render());
        }
    }
}
