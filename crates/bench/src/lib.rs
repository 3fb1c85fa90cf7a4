//! # outran-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation. One binary per figure/table under `src/bin/` (see the
//! DESIGN.md experiment index for the full mapping) plus Criterion
//! micro-benchmarks under `benches/` for the Figure 13/14 overhead
//! claims.
//!
//! Shared plumbing lives here: multi-seed averaging of experiment
//! reports, and the standard figure-row formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use outran_metrics::table::{f1, f2, f3};
use outran_ran::{Experiment, ExperimentReport};

/// Seeds used by default for averaged experiment points. Three seeds
/// keeps each figure binary's runtime in the minutes while smoothing the
/// heavy-tailed FCT noise.
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// Averages of the scalar metrics of several reports.
#[derive(Debug, Clone)]
pub struct AvgReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Mean of overall mean FCTs (ms).
    pub overall_mean_ms: f64,
    /// Mean of short-flow mean FCTs (ms).
    pub short_mean_ms: f64,
    /// Mean of short-flow 95th percentiles (ms).
    pub short_p95_ms: f64,
    /// Mean of short-flow 99th percentiles (ms).
    pub short_p99_ms: f64,
    /// Mean of medium-flow mean FCTs (ms).
    pub medium_mean_ms: f64,
    /// Mean of long-flow mean FCTs (ms).
    pub long_mean_ms: f64,
    /// Mean spectral efficiency (bit/s/Hz).
    pub spectral_efficiency: f64,
    /// Mean Jain fairness.
    pub fairness: f64,
    /// Mean queueing delay (ms).
    pub mean_qdelay_ms: f64,
    /// Mean short-flow queueing delay (ms).
    pub short_qdelay_ms: f64,
    /// Mean TCP RTT (ms).
    pub mean_rtt_ms: f64,
    /// Total completed flows across seeds.
    pub completed: usize,
    /// Total SDUs dropped at full RLC buffers across seeds.
    pub buffer_drops: u64,
    /// Total post-HARQ segment losses across seeds.
    pub residual_losses: u64,
    /// Total injected-fault / recovery events across seeds.
    pub fault_events: u64,
    /// Total invariant violations across seeds (should be 0).
    pub violations: u64,
    /// The individual reports (for CDFs etc.).
    pub runs: Vec<ExperimentReport>,
}

/// Worker threads for sweep fan-out: `--threads N` (or `--threads=N`)
/// on the command line wins, else the `OUTRAN_THREADS` environment
/// variable, else every available core. Every figure binary inherits
/// the flag through [`run_avg`] / [`run_avg_grid`].
pub fn configured_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    threads_from_args(&args).unwrap_or_else(outran_ran::default_threads)
}

/// Parse `--threads N` / `--threads=N` out of an argument list.
pub fn threads_from_args(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.parse().ok().filter(|&n| n >= 1);
        }
        if a == "--threads" {
            return it.next()?.parse().ok().filter(|&n| n >= 1);
        }
    }
    None
}

/// What a baseline bench binary (`throughput`, `metro`) was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineMode {
    /// Measure and (re)write the committed baseline file.
    Record,
    /// Measure and gate against the baseline file at this path.
    Check(String),
}

/// Parse a baseline bench's command line (program name first).
/// `--check FILE` selects [`BaselineMode::Check`]; when `threads` is
/// set, `--threads N` / `--threads=N` (N ≥ 1) is accepted too and left
/// for [`configured_threads`] to read. Anything else — an unknown
/// argument, or a flag without a valid value — is an error, so a typo
/// can never fall through to record mode and overwrite a baseline.
pub fn baseline_mode_from_args(args: &[String], threads: bool) -> Result<BaselineMode, String> {
    let mut mode = BaselineMode::Record;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if a == "--check" {
            let path = it.next().ok_or("--check needs a baseline FILE")?;
            mode = BaselineMode::Check(path.clone());
            continue;
        }
        let count = match a.strip_prefix("--threads=") {
            Some(v) => Some(v),
            None if a == "--threads" => Some(it.next().map_or("", String::as_str)),
            None => None,
        };
        match count.filter(|_| threads) {
            Some(v) if v.parse::<usize>().is_ok_and(|n| n >= 1) => {}
            Some(v) => return Err(format!("--threads needs N >= 1, got {v:?}")),
            None => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(mode)
}

/// [`baseline_mode_from_args`] over this process's arguments; prints
/// the error with `usage` and exits 2 (before anything is measured or
/// written) when they do not parse.
pub fn baseline_mode(bin: &str, threads: bool, usage: &str) -> BaselineMode {
    let args: Vec<String> = std::env::args().collect();
    baseline_mode_from_args(&args, threads).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\nusage: {bin} {usage}");
        std::process::exit(2);
    })
}

/// The checked-out git revision, read from `.git` in the working
/// directory without running git; `"unknown"` outside a repository.
/// Baseline headers record it so a later change can re-measure the same
/// code.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(std::path::Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))?
                .split_whitespace()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The build profile this binary was compiled with: a debug build's
/// timings are not comparable with a release build's.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Run `build(seed)` for every seed — fanned across the worker pool —
/// and average the scalar metrics. Results are ordered by seed, so the
/// output is identical to the serial loop it replaced.
pub fn run_avg(build: impl Fn(u64) -> Experiment + Sync, seeds: &[u64]) -> AvgReport {
    assert!(!seeds.is_empty());
    let runs = outran_ran::parallel_map(configured_threads(), seeds.to_vec(), |s| build(s).run());
    average(expect_all(runs))
}

/// Unwrap supervised pool results. A figure point that failed even after
/// the pool's deterministic retry would silently skew the published
/// average, so the harness stops with the structured failure instead.
fn expect_all(
    runs: Vec<Result<ExperimentReport, outran_ran::WorkerFailure>>,
) -> Vec<ExperimentReport> {
    runs.into_iter()
        .map(|r| r.unwrap_or_else(|f| panic!("figure job failed permanently: {f}")))
        .collect()
}

/// Run every `(point, seed)` combination of a sweep grid across the
/// worker pool, then average each point's seeds. One job per
/// combination keeps all cores busy even when `seeds.len()` is small.
pub fn run_avg_grid<T, F>(points: Vec<T>, seeds: &[u64], build: F) -> Vec<(T, AvgReport)>
where
    T: Send + Sync,
    F: Fn(&T, u64) -> Experiment + Sync,
{
    assert!(!seeds.is_empty());
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|p| seeds.iter().map(move |&s| (p, s)))
        .collect();
    let runs = {
        let points = &points;
        expect_all(outran_ran::parallel_map(
            configured_threads(),
            jobs,
            |(p, s)| build(&points[p], s).run(),
        ))
    };
    let mut it = runs.into_iter();
    let n_seeds = seeds.len();
    points
        .into_iter()
        .map(|point| (point, average(it.by_ref().take(n_seeds).collect())))
        .collect()
}

/// Average already-computed reports (all from the same scheduler).
pub fn average(runs: Vec<ExperimentReport>) -> AvgReport {
    assert!(!runs.is_empty());
    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&ExperimentReport) -> f64| -> f64 {
        let vals: Vec<f64> = runs.iter().map(f).filter(|v| !v.is_nan()).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let _ = n;
    AvgReport {
        scheduler: runs[0].scheduler.clone(),
        overall_mean_ms: mean(&|r| r.fct.overall_mean_ms),
        short_mean_ms: mean(&|r| r.fct.short_mean_ms),
        short_p95_ms: mean(&|r| r.fct.short_p95_ms),
        short_p99_ms: mean(&|r| r.fct.short_p99_ms),
        medium_mean_ms: mean(&|r| r.fct.medium_mean_ms),
        long_mean_ms: mean(&|r| r.fct.long_mean_ms),
        spectral_efficiency: mean(&|r| r.spectral_efficiency),
        fairness: mean(&|r| r.fairness),
        mean_qdelay_ms: mean(&|r| r.mean_qdelay_ms),
        short_qdelay_ms: mean(&|r| r.short_qdelay_ms),
        mean_rtt_ms: mean(&|r| r.mean_rtt_ms),
        completed: runs.iter().map(|r| r.fct.count).sum(),
        buffer_drops: runs.iter().map(|r| r.buffer_drops).sum(),
        residual_losses: runs.iter().map(|r| r.residual_losses).sum(),
        fault_events: runs.iter().map(|r| r.fault_stats.total_events()).sum(),
        violations: runs.iter().map(|r| r.total_violations).sum(),
        runs,
    }
}

impl AvgReport {
    /// Standard row cells: FCT buckets + SE + fairness.
    pub fn fct_row(&self) -> Vec<String> {
        vec![
            self.scheduler.clone(),
            f1(self.overall_mean_ms),
            f1(self.short_mean_ms),
            f1(self.short_p95_ms),
            f1(self.medium_mean_ms),
            f1(self.long_mean_ms),
            f2(self.spectral_efficiency),
            f3(self.fairness),
        ]
    }

    /// Standard headers matching [`AvgReport::fct_row`].
    pub fn fct_headers() -> Vec<&'static str> {
        vec![
            "scheduler",
            "overall(ms)",
            "S avg(ms)",
            "S p95(ms)",
            "M avg(ms)",
            "L avg(ms)",
            "SE(b/s/Hz)",
            "fairness",
        ]
    }

    /// Loss/fault-health row: drops, losses, fault events, violations.
    pub fn health_row(&self) -> Vec<String> {
        vec![
            self.scheduler.clone(),
            self.buffer_drops.to_string(),
            self.residual_losses.to_string(),
            self.fault_events.to_string(),
            self.violations.to_string(),
        ]
    }

    /// Headers matching [`AvgReport::health_row`].
    pub fn health_headers() -> Vec<&'static str> {
        vec![
            "scheduler",
            "buffer drops",
            "residual losses",
            "fault events",
            "violations",
        ]
    }
}

/// Merge per-seed FCT CDF points of a bucket into one pooled CDF.
pub fn pooled_fct_cdf(
    report: &mut AvgReport,
    bucket: Option<outran_metrics::SizeBucket>,
    max_points: usize,
) -> Vec<(f64, f64)> {
    let mut all = outran_simcore::Percentiles::new();
    for run in &mut report.runs {
        for &(v, _) in &run.fct_collector.cdf(bucket, usize::MAX) {
            all.push(v);
        }
    }
    all.cdf_points(max_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_ran::SchedulerKind;

    #[test]
    fn run_avg_smoke() {
        let avg = run_avg(
            |seed| {
                Experiment::lte_default()
                    .users(4)
                    .load(0.3)
                    .duration_secs(3)
                    .scheduler(SchedulerKind::Pf)
                    .seed(seed)
            },
            &[1, 2],
        );
        assert_eq!(avg.runs.len(), 2);
        assert!(avg.completed > 0);
        assert!(!avg.fct_row().is_empty());
        assert_eq!(avg.fct_row().len(), AvgReport::fct_headers().len());
    }

    #[test]
    fn threads_flag_parsing() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(&a(&["bin", "--threads", "8"])), Some(8));
        assert_eq!(threads_from_args(&a(&["bin", "--threads=2"])), Some(2));
        assert_eq!(threads_from_args(&a(&["bin", "--threads=0"])), None);
        assert_eq!(threads_from_args(&a(&["bin", "--threads"])), None);
        assert_eq!(threads_from_args(&a(&["bin"])), None);
    }

    #[test]
    fn baseline_mode_parsing() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let check = |f: &str| Ok(BaselineMode::Check(f.to_string()));
        let parse = |v: &[&str], threads| baseline_mode_from_args(&a(v), threads);
        assert_eq!(parse(&["bin"], false), Ok(BaselineMode::Record));
        assert_eq!(parse(&["bin", "--check", "B.json"], false), check("B.json"));
        // A path-less check or a typo must not fall through to recording.
        assert!(parse(&["bin", "--check"], false).is_err());
        assert!(parse(&["bin", "--chek", "B.json"], false).is_err());
        assert!(parse(&["bin", "B.json"], false).is_err());
        // `--threads` only where the binary accepts it, and only valid.
        assert!(parse(&["bin", "--threads", "2"], false).is_err());
        assert!(parse(&["bin", "--threads=2"], false).is_err());
        assert_eq!(
            parse(&["bin", "--threads", "2", "--check", "B.json"], true),
            check("B.json")
        );
        assert_eq!(
            parse(&["bin", "--threads=3"], true),
            Ok(BaselineMode::Record)
        );
        assert!(parse(&["bin", "--threads"], true).is_err());
        assert!(parse(&["bin", "--threads=0"], true).is_err());
        assert!(parse(&["bin", "--threads", "x"], true).is_err());
    }

    #[test]
    fn grid_matches_run_avg() {
        let build = |load: &f64, seed: u64| {
            Experiment::lte_default()
                .users(4)
                .load(*load)
                .duration_secs(2)
                .scheduler(SchedulerKind::Pf)
                .seed(seed)
        };
        let grid = run_avg_grid(vec![0.2f64, 0.4], &[1, 2], build);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].0, 0.2);
        let solo = run_avg(|s| build(&0.4, s), &[1, 2]);
        assert_eq!(grid[1].1.overall_mean_ms, solo.overall_mean_ms);
        assert_eq!(grid[1].1.completed, solo.completed);
    }
}
