//! The three benchmark workloads: how each is generated from the
//! workload seed, run plain or traced, and checked.
//!
//! * `sweep-lte` — the Fig 15 shape: {PF, OutRAN} × three loads × two
//!   seeds of the paper's LTE cell, fanned out with `parallel_map`.
//! * `soak-idle` — an idle-heavy browsing soak on one OutRAN cell with a
//!   checkpoint every 15 simulated minutes and a mid-run resume check.
//! * `metro-ho` — the coupled 7-site × 3-sector network with mobile UEs
//!   and A3 handover, stepped on two threads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use outran_metrics::FctCollector;
use outran_phy::numerology::RadioConfig;
use outran_phy::Scenario;
use outran_ran::checkpoint::{
    read_checkpoint, restore_cell, snapshot_cells, write_checkpoint, CheckpointMeta,
};
use outran_ran::webplt::idle_heavy_arrivals;
use outran_ran::{parallel_map, Cell, CellConfig, Experiment, Network, NetworkRun, SchedulerKind};
use outran_simcore::{fnv1a, write_atomic, Dur, Time};

use crate::trace::{drive, CellTotals, StageProbe, Tracer};

/// Simulated drain the experiment runners add after the arrival horizon.
const DRAIN: Dur = Dur::from_secs(4);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scheduler × load × seed sweep of the paper's LTE cell.
    SweepLte,
    /// Idle-heavy browsing soak with periodic checkpoints.
    SoakIdle,
    /// Coupled metro network with handover.
    MetroHo,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::SweepLte, Workload::SoakIdle, Workload::MetroHo];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepLte => "sweep-lte",
            Workload::SoakIdle => "soak-idle",
            Workload::MetroHo => "metro-ho",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The span a traced execution records around the work a plain
    /// execution does.
    pub fn root_span(self) -> &'static str {
        match self {
            Workload::SweepLte => "sweep",
            Workload::SoakIdle => "soak",
            Workload::MetroHo => "metro.run",
        }
    }

    /// Worker threads the workload runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::SoakIdle => 1,
            Workload::SweepLte | Workload::MetroHo => 2,
        }
    }
}

/// Sizes of the sweep: points are {PF, OutRAN} × `loads` × `seeds`.
#[derive(Debug, Clone)]
pub struct SweepSize {
    /// UEs per cell.
    pub users: usize,
    /// Arrival horizon (s); each point drains 4 s more.
    pub secs: u64,
    /// Offered loads.
    pub loads: Vec<f64>,
    /// Simulation seeds per (scheduler, load) point.
    pub seeds: u64,
}

/// Sizes of the idle-heavy soak.
#[derive(Debug, Clone)]
pub struct SoakSize {
    /// UEs in the cell.
    pub ues: usize,
    /// Resource blocks of the carrier.
    pub rbs: u16,
    /// Gap between page loads across the cell (one page per UE every
    /// `ues × think`).
    pub think: Dur,
    /// Arrival horizon; the run drains 4 s more.
    pub horizon: Time,
    /// Simulated time between checkpoints.
    pub ckpt_every: Dur,
}

/// Sizes of the metro deployment.
#[derive(Debug, Clone)]
pub struct MetroSize {
    /// Hex sites.
    pub sites: usize,
    /// Sectors (cells) per site.
    pub sectors: usize,
    /// UE slots per cell.
    pub slots: usize,
    /// Mobile UEs.
    pub ues: usize,
    /// Offered load per cell.
    pub load: f64,
    /// Arrival horizon (s); the run drains 4 s more.
    pub secs: u64,
    /// Scheduler in every cell.
    pub scheduler: SchedulerKind,
}

/// Full sizes of every workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `sweep-lte`.
    pub sweep: SweepSize,
    /// `soak-idle`.
    pub soak: SoakSize,
    /// `metro-ho`.
    pub metro: MetroSize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub fn standard() -> Sizes {
        Sizes {
            sweep: SweepSize {
                users: 20,
                secs: 6,
                loads: vec![0.5, 0.7, 0.9],
                seeds: 2,
            },
            soak: SoakSize {
                ues: 8,
                rbs: 25,
                think: Dur::from_secs(60),
                horizon: Time::from_secs(3 * 3600),
                ckpt_every: Dur::from_secs(15 * 60),
            },
            metro: MetroSize {
                sites: 7,
                sectors: 3,
                slots: 24,
                ues: 336,
                load: 0.6,
                secs: 4,
                scheduler: SchedulerKind::OutRan,
            },
        }
    }
}

/// What one execution of a workload produced, for the checks and the
/// end-to-end metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// FNV-1a digest of the simulated report.
    pub digest: u64,
    /// Mean FCT (simulated ms).
    pub fct_mean_ms: f64,
    /// 95th-percentile FCT of short flows (simulated ms).
    pub fct_short_p95_ms: f64,
    /// Flows completed.
    pub completed: u64,
    /// Flows offered.
    pub offered: u64,
    /// Invariant violations.
    pub violations: u64,
    /// Worker failures and watchdog aborts.
    pub failures: u64,
    /// Handovers executed (`metro-ho`).
    pub handovers: u64,
    /// Idle TTIs crossed without stepping (`soak-idle`).
    pub skipped_ttis: u64,
    /// Digest of the run resumed from the mid-run checkpoint
    /// (`soak-idle`).
    pub resume_digest: Option<u64>,
}

/// Per-layer figures a traced execution yields, by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// FNV-1a over a value's `Debug` form: one number that pins every field.
pub fn digest_of(v: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{v:?}").as_bytes())
}

// ---- sweep-lte ---------------------------------------------------------

/// The sweep's experiments, in report order. Point `j`'s simulation seed
/// is derived from the workload seed.
pub fn sweep_points(seed: u64, size: &SweepSize) -> Vec<Experiment> {
    let mut points = Vec::new();
    for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
        for &load in &size.loads {
            for k in 0..size.seeds {
                points.push(
                    Experiment::lte_default()
                        .users(size.users)
                        .scheduler(kind)
                        .load(load)
                        .duration_secs(size.secs)
                        .seed(seed.wrapping_mul(1_000).wrapping_add(k + 1)),
                );
            }
        }
    }
    points
}

/// Build every point's cell and arrivals on the sweep's threads.
pub fn sweep_setup(seed: u64, size: &SweepSize) {
    let built = parallel_map(
        Workload::SweepLte.threads(),
        sweep_points(seed, size),
        |e| e.build_cell().n_flows(),
    );
    std::hint::black_box(built);
}

fn sweep_outcome(
    reports: Vec<Result<outran_ran::ExperimentReport, outran_ran::WorkerFailure>>,
) -> Outcome {
    let mut o = Outcome::default();
    let mut digests = Vec::new();
    let mut outran = Vec::new();
    for r in reports {
        let Ok(r) = r else {
            o.failures += 1;
            continue;
        };
        digests.push(digest_of(&r));
        o.completed += r.completed as u64;
        o.offered += r.offered as u64;
        o.violations += r.total_violations;
        if r.scheduler == SchedulerKind::OutRan.label() {
            outran.push((r.fct.overall_mean_ms, r.fct.short_p95_ms));
        }
    }
    let n = outran.len().max(1) as f64;
    o.fct_mean_ms = outran.iter().map(|p| p.0).sum::<f64>() / n;
    o.fct_short_p95_ms = outran.iter().map(|p| p.1).sum::<f64>() / n;
    o.digest = digest_of(&digests);
    o
}

/// Run the sweep.
pub fn sweep_run(seed: u64, size: &SweepSize) -> Outcome {
    let reports = parallel_map(
        Workload::SweepLte.threads(),
        sweep_points(seed, size),
        Experiment::run,
    );
    sweep_outcome(reports)
}

/// Run the sweep with a stage probe on every cell and a span per job and
/// per phase of each job.
pub fn sweep_traced(seed: u64, size: &SweepSize, tr: &Tracer) -> (Outcome, Layers) {
    let threads = Workload::SweepLte.threads();
    let horizon = Time::from_secs(size.secs);
    let jobs: Vec<(u32, Experiment)> = (0..).zip(sweep_points(seed, size)).collect();
    let root = tr.open(Workload::SweepLte.root_span(), None, 0);
    let results = parallel_map(threads, jobs, |(j, e)| {
        let job = tr.open("sweep.job", Some(root), j);
        let probe = StageProbe::default();
        let mut cell = tr.span("sweep.build", Some(job), j, || e.build_cell());
        cell.set_stage_observer(Box::new(probe.clone()));
        let mut tot = CellTotals::default();
        tr.span("sweep.run", Some(job), j, || {
            drive(&mut cell, horizon, &mut tot);
            drive(&mut cell, horizon + DRAIN, &mut tot);
        });
        tot.finish(&cell, &probe);
        let report = tr.span("sweep.report", Some(job), j, || e.run_cell(cell));
        tr.close(job);
        (report, tot)
    });
    tr.close(root);
    let mut tot = CellTotals::default();
    let reports = results
        .into_iter()
        .map(|r| {
            r.map(|(report, t)| {
                tot.add(&t);
                report
            })
        })
        .collect();
    let wall = tr.total_secs(Workload::SweepLte.root_span());
    let jobs = tr.durations("sweep.job");
    let serial: f64 = jobs.iter().sum();
    let mut layers = cell_layers(&tot);
    layers.extend([
        ("pool.serial_s", serial),
        ("pool.parallel_eff", serial / (threads as f64 * wall)),
        ("pool.job_s.p50", crate::median(jobs.iter().copied())),
        ("pool.job_s.max", jobs.iter().copied().fold(0.0, f64::max)),
    ]);
    (sweep_outcome(reports), layers)
}

/// Per-layer figures of single-cell runs.
fn cell_layers(t: &CellTotals) -> Layers {
    let s = |ns: u64| ns as f64 * 1e-9;
    let mut v: Layers = Vec::new();
    let names = [
        "stages.ingress.self_s",
        "stages.rlc_down.self_s",
        "stages.mac_sched.self_s",
        "stages.phy_tx.self_s",
        "stages.delivery.self_s",
        "stages.housekeeping.self_s",
    ];
    for (name, ns) in names.into_iter().zip(t.stage_ns) {
        v.push((name, s(ns)));
    }
    let staged: u64 = t.stage_ns.iter().sum();
    let total_ttis = t.active_ttis + t.idle_ttis;
    v.extend([
        ("stages.glue_s", s(t.active_step_ns.saturating_sub(staged))),
        ("ingress.flows_registered", t.flows_registered as f64),
        ("cell.active_ttis", t.active_ttis as f64),
        ("cell.idle_ttis", t.idle_ttis as f64),
        ("cell.skipped_ttis", t.skipped_ttis as f64),
        (
            "cell.skip_ratio",
            t.skipped_ttis as f64 / total_ttis.max(1) as f64,
        ),
        (
            "cell.us_per_active_tti",
            t.active_step_ns as f64 * 1e-3 / t.active_ttis.max(1) as f64,
        ),
        ("mac.rb_util", t.used_rbs as f64 / t.total_rbs.max(1) as f64),
        ("cell.next_activity_s", s(t.next_activity_ns)),
        ("cell.fast_forward_s", s(t.fast_forward_ns)),
        ("cell.step_s", s(t.step_ns)),
        ("cell.wakeups", t.wakeups as f64),
        ("cell.buffer_drops", t.buffer_drops as f64),
        ("cell.residual_losses", t.residual_losses as f64),
    ]);
    v
}

// ---- soak-idle ---------------------------------------------------------

/// The soak's page-load arrivals `(at, ue, bytes)`.
pub fn soak_arrivals(seed: u64, size: &SoakSize) -> Vec<(Time, usize, u64)> {
    idle_heavy_arrivals(size.horizon, size.think, size.ues, seed)
}

/// Build the soak's cell with every arrival scheduled.
pub fn soak_cell(seed: u64, size: &SoakSize) -> Cell {
    let mut cfg = CellConfig::lte_default(size.ues, SchedulerKind::OutRan, seed);
    cfg.channel.radio = RadioConfig::lte_rbs(size.rbs);
    cfg.channel.n_subbands = 4;
    let mut cell = Cell::new(cfg);
    for (at, ue, bytes) in soak_arrivals(seed, size) {
        cell.schedule_flow(at, ue, bytes, None);
    }
    cell
}

fn soak_end(size: &SoakSize) -> Time {
    size.horizon + DRAIN
}

fn ckpt_meta(seed: u64, at: Time) -> CheckpointMeta {
    CheckpointMeta {
        argv: vec!["perfbench".into(), "soak-idle".into(), seed.to_string()],
        sim_time: at,
        dense: false,
        n_cells: 1,
    }
}

/// Digest and FCT figures of a finished soak cell.
fn soak_outcome(cell: &mut Cell) -> Outcome {
    cell.audit_now();
    let done = cell.take_completions();
    let mut fct = FctCollector::new();
    for d in &done {
        fct.record(d.bytes, d.fct);
    }
    let report = fct.report();
    let digest = digest_of(&(
        &done,
        &report,
        cell.idle_ttis,
        cell.skipped_ttis,
        cell.n_flows(),
        cell.used_rbs_cum(),
        cell.total_violations(),
        cell.buffer_drops(),
        cell.residual_losses(),
        cell.fault_stats(),
    ));
    Outcome {
        digest,
        fct_mean_ms: report.overall_mean_ms,
        fct_short_p95_ms: report.short_p95_ms,
        completed: done.len() as u64,
        offered: cell.n_flows() as u64,
        violations: cell.total_violations(),
        skipped_ttis: cell.skipped_ttis,
        ..Outcome::default()
    }
}

/// Checkpoint file `k` of a soak run.
pub fn ckpt_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("soak-{k}.orsn"))
}

/// Run the soak from its current clock to the end, writing checkpoint
/// `k` into `dir` at every whole multiple `k` of the interval. Plain runs
/// advance with `Cell::run_until` and `write_checkpoint`; traced runs
/// time every call. Returns the number of checkpoints written.
fn soak_advance(
    cell: &mut Cell,
    seed: u64,
    size: &SoakSize,
    dir: Option<&Path>,
    tr: Option<(&Tracer, usize, &mut CellTotals)>,
) -> std::io::Result<usize> {
    let end = soak_end(size);
    let every = size.ckpt_every.as_nanos();
    let mut k = (cell.now().as_nanos() / every) as usize;
    let mut written = 0;
    let mut tr = tr;
    while cell.now() < end {
        let next = Time(every * (k as u64 + 1));
        let to = next.min(end);
        match tr.as_mut() {
            None => cell.run_until(to),
            Some((t, root, tot)) => t.span("soak.run", Some(*root), 0, || drive(cell, to, tot)),
        }
        if cell.now() < next {
            continue;
        }
        k += 1;
        if let Some(dir) = dir {
            let path = ckpt_path(dir, k);
            let meta = ckpt_meta(seed, cell.now());
            match tr.as_ref() {
                None => write_checkpoint(&path, &meta, &[&*cell]).map_err(io_err)?,
                Some((t, root, _)) => {
                    let parent = Some(*root);
                    let file = t.span("ckpt.snapshot", parent, 0, || {
                        snapshot_cells(&meta, &[&*cell])
                    });
                    let bytes = t.span("ckpt.encode", parent, 0, || file.to_bytes());
                    t.span("ckpt.write", parent, 0, || write_atomic(&path, &bytes))
                        .map_err(io_err)?;
                }
            }
            written += 1;
        }
    }
    Ok(written)
}

fn io_err(e: outran_simcore::SnapError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// The checkpoint the resume check starts from: the one nearest the
/// middle of the run.
pub fn mid_checkpoint(size: &SoakSize) -> usize {
    let n = (soak_end(size).as_nanos() / size.ckpt_every.as_nanos()) as usize;
    n.div_ceil(2).max(1)
}

/// Resume a fresh soak cell built with `seed` from checkpoint `path`
/// and run it to the end; returns the resumed run's digest.
pub fn soak_resume(
    seed: u64,
    size: &SoakSize,
    path: &Path,
    tr: Option<&Tracer>,
) -> Result<u64, String> {
    let (meta, file) = match tr {
        None => read_checkpoint(path),
        Some(t) => t.span("ckpt.read", None, 0, || read_checkpoint(path)),
    }
    .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let mut cell = soak_cell(seed, size);
    match tr {
        None => restore_cell(&file, 0, &mut cell),
        Some(t) => t.span("ckpt.restore", None, 0, || {
            restore_cell(&file, 0, &mut cell)
        }),
    }
    .map_err(|e| format!("cannot restore checkpoint {}: {e}", path.display()))?;
    if cell.now() != meta.sim_time {
        return Err(format!(
            "checkpoint says {} but the restored cell is at {}",
            meta.sim_time,
            cell.now()
        ));
    }
    soak_advance(&mut cell, seed, size, None, None).map_err(|e| e.to_string())?;
    Ok(soak_outcome(&mut cell).digest)
}

/// Run the soak, checkpointing into `dir`.
pub fn soak_run(seed: u64, size: &SoakSize, dir: &Path) -> std::io::Result<Outcome> {
    let mut cell = soak_cell(seed, size);
    soak_advance(&mut cell, seed, size, Some(dir), None)?;
    Ok(soak_outcome(&mut cell))
}

/// Run the soak with a stage probe and spans around every run segment
/// and checkpoint phase.
pub fn soak_traced(
    seed: u64,
    size: &SoakSize,
    dir: &Path,
    tr: &Tracer,
) -> std::io::Result<(Outcome, Layers)> {
    let root = tr.open(Workload::SoakIdle.root_span(), None, 0);
    let probe = StageProbe::default();
    let mut cell = tr.span("soak.build", Some(root), 0, || soak_cell(seed, size));
    cell.set_stage_observer(Box::new(probe.clone()));
    let mut tot = CellTotals::default();
    let written = soak_advance(&mut cell, seed, size, Some(dir), Some((tr, root, &mut tot)))?;
    tot.finish(&cell, &probe);
    let o = tr.span("soak.report", Some(root), 0, || soak_outcome(&mut cell));
    tr.close(root);
    let mut bytes = 0u64;
    for k in 1..=written {
        bytes += std::fs::metadata(ckpt_path(dir, k))?.len();
    }
    let mut layers = cell_layers(&tot);
    layers.extend([
        ("ckpt.snapshot_s", tr.total_secs("ckpt.snapshot")),
        ("ckpt.encode_s", tr.total_secs("ckpt.encode")),
        ("ckpt.write_s", tr.total_secs("ckpt.write")),
        ("ckpt.bytes", bytes as f64),
        ("ckpt.count", written as f64),
    ]);
    Ok((o, layers))
}

// ---- metro-ho ----------------------------------------------------------

/// The metro deployment with arrivals up to `secs`.
pub fn metro_net(seed: u64, size: &MetroSize, secs: u64, threads: usize) -> Network {
    let mut net = Network::metro(Scenario::LtePedestrian, size.scheduler, size.load);
    net.n_sites = size.sites;
    net.sectors_per_site = size.sectors;
    net.slots_per_cell = size.slots;
    net.n_ues = size.ues;
    net.duration = Time::from_secs(secs);
    net.seed = seed;
    net.threads = threads;
    net
}

/// Run the deployment with a zero arrival horizon: its cells, UE
/// registry and an empty drain, i.e. the metro's set-up cost.
pub fn metro_setup(seed: u64, size: &MetroSize) {
    let run = metro_net(seed, size, 0, Workload::MetroHo.threads()).run();
    std::hint::black_box(run.report.completed);
}

/// Digest, FCT figures and health of a finished deployment.
fn metro_outcome(run: &NetworkRun) -> Outcome {
    let r = &run.report;
    Outcome {
        digest: digest_of(r),
        fct_mean_ms: r.fct.overall_mean_ms,
        fct_short_p95_ms: r.fct.short_p95_ms,
        completed: r.completed as u64,
        offered: r.offered as u64,
        violations: r.total_violations,
        failures: u64::from(run.aborted_at.is_some()),
        handovers: r.handover.successes,
        ..Outcome::default()
    }
}

/// Run the deployment on `threads` threads.
pub fn metro_run_on(seed: u64, size: &MetroSize, threads: usize) -> Outcome {
    metro_outcome(&metro_net(seed, size, size.secs, threads).run())
}

/// Run the deployment on the workload's threads.
pub fn metro_run(seed: u64, size: &MetroSize) -> Outcome {
    metro_run_on(seed, size, Workload::MetroHo.threads())
}

/// Run the deployment on two threads and on one, and its set-up alone,
/// each inside a span.
pub fn metro_traced(seed: u64, size: &MetroSize, tr: &Tracer) -> (Outcome, Layers) {
    let threads = Workload::MetroHo.threads();
    let net = metro_net(seed, size, size.secs, threads);
    let root = Workload::MetroHo.root_span();
    let run = tr.span(root, None, 0, || net.run());
    let t_n = tr.total_secs(root);
    let t1 = tr.span("metro.run_t1", None, 0, || metro_run_on(seed, size, 1));
    let t_1 = tr.total_secs("metro.run_t1");
    tr.span("metro.setup", None, 0, || metro_setup(seed, size));
    let ho = &run.report.handover;
    let mut o = metro_outcome(&run);
    // A one-thread report that differs from the two-thread one is a
    // determinism failure of the parallel stepping.
    o.failures += u64::from(t1.digest != o.digest);
    let layers = vec![
        ("network.run_s.t1", t_1),
        ("network.run_s.t2", t_n),
        ("network.parallel_eff", t_1 / (threads as f64 * t_n)),
        ("network.setup_s", tr.total_secs("metro.setup")),
        ("ho.attempts", ho.attempts as f64),
        ("ho.successes", ho.successes as f64),
        ("ho.blocked", ho.blocked as f64),
        (
            "ho.success_ratio",
            ho.successes as f64 / ho.attempts.max(1) as f64,
        ),
        ("ho.flows_transferred", ho.flows_transferred as f64),
    ];
    (o, layers)
}

/// Build what one execution of `w` builds, and discard it: the cells
/// and arrivals, or for `metro-ho` the zero-horizon deployment.
pub fn setup(w: Workload, seed: u64, sizes: &Sizes) {
    match w {
        Workload::SweepLte => sweep_setup(seed, &sizes.sweep),
        Workload::SoakIdle => {
            std::hint::black_box(soak_cell(seed, &sizes.soak).n_flows());
        }
        Workload::MetroHo => metro_setup(seed, &sizes.metro),
    }
}

/// Wall time of `f` in seconds, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}
