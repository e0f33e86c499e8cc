//! The traced run's exact counters are kept apart from its timings so they
//! can be compared bit for bit: two runs of the same inputs, and runs on 1
//! and 2 workers, must report identical counters. The traced pieces must
//! also reproduce the bundled entry points' outputs (a failed check makes
//! the run incorrect).
//!
//! `cnn_yield_native` is left out: its counters are the interpreter's plus
//! the codegen counts, and pinning the native backend needs a process of
//! its own.

use ark_paperbench::env::WorkDir;
use ark_paperbench::trace::Counters;
use ark_paperbench::{run, Config, Scale, Workload};

const SMALL: Scale = Scale {
    cnn_instances: 64,
    designs: 16,
    maxcut_trials: 400,
};

fn traced_counters(workload: Workload, workers: usize) -> Counters {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace: true,
        workers,
        scale: SMALL,
    };
    let work = WorkDir::create().expect("work directory");
    let out = run(&cfg, &work).expect("traced run");
    assert!(
        out.correct,
        "{} on {workers} workers: {:?}",
        workload.name(),
        out.mismatches
    );
    out.breakdown
        .expect("traced runs report a breakdown")
        .counters
}

#[test]
fn counters_repeat_across_runs_and_worker_counts() {
    for workload in [
        Workload::CnnYield,
        Workload::DesignSweep,
        Workload::MaxcutTable1,
    ] {
        let first = traced_counters(workload, 2);
        assert!(first.compiles > 0 && first.steps > 0, "{first:?}");
        assert_eq!(
            first,
            traced_counters(workload, 2),
            "{}: rerun",
            workload.name()
        );
        assert_eq!(
            first,
            traced_counters(workload, 1),
            "{}: 1 worker",
            workload.name()
        );
    }
}
