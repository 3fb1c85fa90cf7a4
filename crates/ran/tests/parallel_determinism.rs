//! The parallel sweep engine must be a drop-in for the serial loop:
//! fanning independent experiments across worker threads changes wall
//! clock only, never a single byte of any report — including chaos runs
//! that replay a seeded fault plan.

use outran_faults::FaultPlan;
use outran_phy::Scenario;
use outran_ran::multicell::MultiCell;
use outran_ran::{parallel_map, Experiment, ExperimentReport, SchedulerKind, WorkerFailure};
use outran_simcore::{Dur, Time};

/// Unwrap every supervised job result — these sweeps are expected to
/// succeed; a `WorkerFailure` here is a real test failure.
fn all_ok(results: Vec<Result<ExperimentReport, WorkerFailure>>) -> Vec<ExperimentReport> {
    results
        .into_iter()
        .map(|r| r.expect("sweep job failed"))
        .collect()
}

const SECS: u64 = 3;

fn standard(seed: u64) -> Experiment {
    Experiment::lte_default()
        .users(6)
        .load(0.5)
        .duration_secs(SECS)
        .scheduler(SchedulerKind::OutRan)
        .seed(seed)
}

fn chaos(seed: u64) -> Experiment {
    standard(seed)
        .faults(FaultPlan::chaos(seed, Dur::from_secs(SECS), 6, 0.6))
        .watchdog(Some(Dur::from_millis(750)))
}

/// Debug output covers every public field of the report (FCT tables,
/// CDFs, per-flow records, fault counters, violations), so equal debug
/// strings mean byte-identical results.
fn fingerprints(reports: &[ExperimentReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn parallel_standard_sweep_is_bit_identical_to_serial() {
    let seeds = [11u64, 23, 47, 101, 202, 303];
    let serial: Vec<ExperimentReport> = seeds.iter().map(|&s| standard(s).run()).collect();
    let parallel = all_ok(parallel_map(4, seeds.to_vec(), |s| standard(s).run()));
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));
}

#[test]
fn parallel_chaos_sweep_replays_fault_plans_identically() {
    let seeds = [7u64, 13, 29, 31];
    let serial: Vec<ExperimentReport> = seeds.iter().map(|&s| chaos(s).run()).collect();
    let parallel = all_ok(parallel_map(4, seeds.to_vec(), |s| chaos(s).run()));
    let (sf, pf) = (fingerprints(&serial), fingerprints(&parallel));
    assert_eq!(sf, pf);
    // The chaos plans actually did something (otherwise this test would
    // only cover the fault-free path).
    assert!(
        serial.iter().any(|r| r.fault_stats.total_events() > 0),
        "chaos plans injected no faults — weaken nothing, fix the plan"
    );
}

/// Intra-run multi-cell parallelism: sharding the cells of one
/// `MultiCell` run across 4 workers must
/// merge to the same report as the serial loop, byte for byte.
#[test]
fn multicell_parallel_shards_match_serial() {
    let mut serial = MultiCell::colosseum(Scenario::ColosseumRome, SchedulerKind::OutRan, 0.4);
    serial.duration = Time::from_secs(3);
    let mut parallel = serial.clone();
    parallel.threads = 4;
    let rs = serial.run();
    let rp = parallel.run();
    assert_eq!(
        format!("{rs:?}"),
        format!("{rp:?}"),
        "sharded multi-cell run diverged from serial"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let seeds = [5u64, 6, 7, 8, 9];
    let one = all_ok(parallel_map(1, seeds.to_vec(), |s| standard(s).run()));
    let many = all_ok(parallel_map(8, seeds.to_vec(), |s| standard(s).run()));
    assert_eq!(fingerprints(&one), fingerprints(&many));
}
