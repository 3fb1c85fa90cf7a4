//! Simulator throughput baseline — one run, one file (`BENCH_2.json`,
//! schema `outran-throughput-v2`) with five sections:
//!
//! * `per_scheduler` — simulated TTIs per wall-clock second of the
//!   dense 16-UE LTE cell, per scheduler;
//! * `idle_heavy` — the idle-heavy WebPLT hour stepped dense vs
//!   event-driven;
//! * `kernel` — the PF and OutRAN MAC scheduling kernels in isolation,
//!   each with its speedup over the same run's `per_scheduler` row;
//! * `pooled` — the dense workload with explicit HARQ driving the
//!   pooled payload path, with per-scheduler pool hit/miss deltas across
//!   a warmup boundary;
//! * `mem` — the per-cell resident footprint (informational).
//!
//! ```console
//! cargo run --release -p outran-bench --bin throughput            # record
//! cargo run --release -p outran-bench --bin throughput -- \
//!     --check BENCH_2.json                                        # gate
//! ```
//!
//! Both modes measure every arm once and enforce the machine-independent
//! invariants: the event-driven idle-heavy run skips TTIs, each kernel
//! runs at ≥ 5× its own end-to-end arm measured in the same run (a NaN
//! ratio fails), and after the warmup the pools serve every take from
//! pooled memory (steady-state misses == 0) while actually being
//! exercised (some scheduler has steady-state hits > 0). A run breaking
//! one exits 1; record mode then writes nothing.
//!
//! `--check FILE` additionally compares every TTIs/s figure with the one
//! recorded in FILE and exits 1 if any dropped more than 25 %. Absolute
//! TTIs/s are machine-dependent: gate against a baseline recorded on the
//! same machine (CI records, then self-checks). An unreadable FILE, or
//! one with a section that gates no row (a wrong or old-schema file),
//! exits 2 before anything is measured.

#![forbid(unsafe_code)]

use outran_bench::BaselineMode;
use outran_mac::{OutRanScheduler, PfScheduler, Scheduler, TtiRates, UeTti};
use outran_pdcp::Priority;
use outran_phy::channel::CellChannel;
use outran_ran::webplt::idle_heavy_arrivals;
use outran_ran::{Cell, CellConfig, SchedulerKind};
use outran_simcore::{Dur, PoolStats, Rng, Time};
use std::time::Instant;

/// Simulated horizon per measured run.
const SIM_SECS: u64 = 5;
/// UEs in the measured cell.
const USERS: usize = 16;
/// Flow sizes cycled by the deterministic workload (bytes).
const SIZES: [u64; 4] = [2_000, 8_000, 40_000, 200_000];
/// Deterministic arrival spacing.
const ARRIVAL_MS: u64 = 10;
/// Largest tolerated drop of any TTIs/s figure below its baseline.
const TOLERANCE: f64 = 0.25;
/// Minimum speedup of each MAC kernel over its own end-to-end arm.
const KERNEL_FLOOR: f64 = 5.0;

const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Pf,
    SchedulerKind::Rr,
    SchedulerKind::Mt,
    SchedulerKind::Srjf,
    SchedulerKind::OutRan,
];

/// One timed arm: `ttis` stepped in `secs` of wall time.
struct Row {
    name: &'static str,
    ttis: u64,
    secs: f64,
    tps: f64,
}

impl Row {
    fn new(name: &'static str, ttis: u64, secs: f64) -> Row {
        Row {
            name,
            ttis,
            secs,
            tps: ttis as f64 / secs,
        }
    }
}

// ---- dense end-to-end arm (`per_scheduler`) ----------------------------

/// Build the measured cell: the paper's LTE setting under a fixed
/// deterministic workload (sizes cycling short→long, one arrival every
/// [`ARRIVAL_MS`] ms on round-robin UEs ≈ load 0.6).
fn build_cell(kind: SchedulerKind) -> Cell {
    let cfg = CellConfig::lte_default(USERS, kind, 42);
    let mut cell = Cell::new(cfg);
    schedule_workload(&mut cell);
    cell
}

/// The deterministic dense workload, reused verbatim by the pooled
/// cell so the two arms differ only in configuration.
fn schedule_workload(cell: &mut Cell) {
    let horizon = Time::ZERO + Dur::from_secs(SIM_SECS);
    let mut at = Time::ZERO + Dur::from_millis(5);
    let mut i = 0usize;
    while at < horizon {
        cell.schedule_flow(at, i % USERS, SIZES[i % SIZES.len()], None);
        at += Dur::from_millis(ARRIVAL_MS);
        i += 1;
    }
}

/// Step `cell` to the horizon; returns (TTIs stepped, wall seconds).
fn run_timed(mut cell: Cell) -> (u64, f64) {
    let end = Time::ZERO + Dur::from_secs(SIM_SECS);
    let start = Instant::now();
    let mut ttis = 0u64;
    while cell.now() < end {
        cell.step();
        ttis += 1;
    }
    (ttis, start.elapsed().as_secs_f64())
}

/// Measure every scheduler's dense arm (one warm-up run first).
fn measure_e2e_rows() -> Vec<Row> {
    let _ = run_timed(build_cell(SchedulerKind::Pf));
    KINDS
        .into_iter()
        .map(|kind| {
            let (ttis, secs) = run_timed(build_cell(kind));
            let r = Row::new(kind.name(), ttis, secs);
            eprintln!(
                "  [throughput] e2e    {:<12} {ttis} TTIs in {secs:.3}s = {:.0} TTIs/s",
                r.name, r.tps
            );
            r
        })
        .collect()
}

// ---- idle-heavy arm (`idle_heavy`) -------------------------------------

/// Simulated horizon of the idle-heavy WebPLT arm: a UE pair loads one
/// small page every 5 minutes over an hour — >99% of TTIs carry no
/// work, the regime the event-driven stepper targets.
const IDLE_SIM_SECS: u64 = 3600;

struct IdleHeavy {
    total_ttis: u64,
    idle_ttis: u64,
    skipped_ttis: u64,
    completions: usize,
    dense_secs: f64,
    event_secs: f64,
}

impl IdleHeavy {
    fn event_tps(&self) -> f64 {
        self.total_ttis as f64 / self.event_secs
    }
}

fn build_idle_heavy_cell() -> Cell {
    let mut cfg = CellConfig::lte_default(2, SchedulerKind::OutRan, 42);
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    let mut cell = Cell::new(cfg);
    let horizon = Time::from_secs(IDLE_SIM_SECS);
    for (at, ue, bytes) in idle_heavy_arrivals(horizon, Dur::from_secs(300), 2, 42) {
        cell.schedule_flow(at, ue, bytes, None);
    }
    cell
}

/// Measure the idle-heavy scenario dense and event-driven. The two runs
/// are bit-identical in results (asserted by the `event_driven`
/// integration tests); here only the clocks differ.
fn run_idle_heavy() -> IdleHeavy {
    let end = Time::from_secs(IDLE_SIM_SECS + 4);

    let mut dense = build_idle_heavy_cell();
    let t0 = Instant::now();
    dense.run_until_dense(end);
    let dense_secs = t0.elapsed().as_secs_f64();

    let mut event = build_idle_heavy_cell();
    let t1 = Instant::now();
    event.run_until(end);
    let event_secs = t1.elapsed().as_secs_f64();

    let m = IdleHeavy {
        total_ttis: end.0 / event.tti().as_nanos(),
        idle_ttis: event.idle_ttis,
        skipped_ttis: event.skipped_ttis,
        completions: event.take_completions().len(),
        dense_secs,
        event_secs,
    };
    eprintln!(
        "  [throughput] idle-heavy: dense {dense_secs:.3}s, event-driven {event_secs:.3}s \
         ({:.1}x), skipped {}/{} idle TTIs",
        dense_secs / event_secs,
        m.skipped_ttis,
        m.idle_ttis
    );
    m
}

// ---- dense busy-cell MAC kernel arm (`kernel`) -------------------------

/// TTIs per measured kernel run — large enough that the sub-µs per-TTI
/// kernel cost integrates to a stable wall-clock reading.
const KERNEL_TTIS: u64 = 1_000_000;

/// The kernel arms: the schedulers whose SoA hot path the ≥5× gate
/// covers (the paper's contribution and its PF base).
const KERNEL_KINDS: [SchedulerKind; 2] = [SchedulerKind::Pf, SchedulerKind::OutRan];

/// Kernel inputs: a plane-backed rate matrix filled from a warmed LTE
/// channel's delivered reports, and a fully backlogged cell (every UE
/// active every TTI — the dense busy-cell regime).
fn build_kernel_inputs() -> (TtiRates, Vec<UeTti>) {
    let cfg = CellConfig::lte_default(USERS, SchedulerKind::Pf, 42);
    let mut ch = CellChannel::new(cfg.channel, USERS, &Rng::new(42));
    let tti = ch.config().radio.tti();
    let mut now = Time::ZERO;
    for _ in 0..100 {
        now += tti;
        ch.advance_tti(now);
    }
    let n_sb = ch.config().n_subbands;
    let mut rates = TtiRates {
        per_ue_sb: vec![0.0; USERS * n_sb],
        rb_to_sb: (0..ch.n_rbs()).map(|rb| ch.subband_of_rb(rb)).collect(),
        n_sb,
        n_ues: USERS,
        reserved: vec![false; ch.n_rbs() as usize],
        versions: vec![1; USERS],
    };
    for u in 0..USERS {
        ch.fill_reported_rates(u, &mut rates.per_ue_sb[u * n_sb..(u + 1) * n_sb]);
    }
    let ues = (0..USERS)
        .map(|i| UeTti {
            active: true,
            head_priority: Some(Priority((i % 4) as u8)),
            queued_bytes: 1_000_000,
            oracle_min_remaining: Some(10_000 + i as u64 * 1_000),
            hol_delay: Dur::from_millis(5),
            oracle_has_qos_flow: i % 4 == 0,
        })
        .collect();
    (rates, ues)
}

/// Run the MAC scheduling kernel (rate-row churn on the CQI report
/// cadence + allocate + served feedback per TTI) for [`KERNEL_TTIS`]
/// dense TTIs; returns (TTIs, wall seconds).
fn run_kernel_timed(kind: SchedulerKind) -> (u64, f64) {
    let (mut rates, ues) = build_kernel_inputs();
    let n_sb = rates.n_sb;
    let tti = Dur::from_millis(1);
    let tf = Dur::from_millis(1000);
    let mut sched: Box<dyn Scheduler> = match kind {
        SchedulerKind::Pf => Box::new(PfScheduler::with_tf(USERS, tf, tti)),
        SchedulerKind::OutRan => Box::new(OutRanScheduler::over_pf(
            USERS,
            tf,
            tti,
            OutRanScheduler::DEFAULT_EPSILON,
        )),
        other => unreachable!("no kernel arm for {}", other.name()),
    };
    let mut now = Time::ZERO;
    let start = Instant::now();
    for t in 0..KERNEL_TTIS {
        // Emulate the CQI report cadence: every 8 TTIs one UE's rate row
        // changes content and version, exercising the metric cache's
        // invalidation path at a realistic rate.
        if t % 8 == 0 {
            let u = ((t / 8) % USERS as u64) as usize;
            rates.per_ue_sb[u * n_sb..(u + 1) * n_sb].rotate_left(1);
            rates.versions[u] += 1;
        }
        let alloc = sched.allocate(now, &ues, &rates);
        sched.on_served(&alloc.bits_per_ue);
        now += tti;
    }
    (KERNEL_TTIS, start.elapsed().as_secs_f64())
}

/// Measure the kernel arms (with one warm-up run).
fn measure_kernel_rows() -> Vec<Row> {
    let _ = run_kernel_timed(SchedulerKind::Pf);
    KERNEL_KINDS
        .into_iter()
        .map(|kind| {
            let (ttis, secs) = run_kernel_timed(kind);
            let r = Row::new(kind.name(), ttis, secs);
            eprintln!(
                "  [throughput] kernel {:<12} {ttis} TTIs in {secs:.3}s = {:.0} TTIs/s",
                r.name, r.tps
            );
            r
        })
        .collect()
}

// ---- zero-allocation steady-state arm (`pooled`) -----------------------

/// Warmup horizon before the steady-state window: long enough for the
/// recycled-buffer pools to reach their high-water population under
/// the HARQ workload (a pool only misses while it is still growing).
const POOL_WARMUP_SECS: u64 = 1;

/// Residual loss of the pooled arm.
const POOL_RESIDUAL_LOSS: f64 = 0.05;

/// Cells built (and briefly warmed) for the resident-footprint sample.
const MEM_CELLS: usize = 32;

/// Build the pooled cell: the dense workload with explicit HARQ and
/// elevated residual loss, so failed transport blocks flow through the
/// pooled payload path every few TTIs. (The folded-HARQ default never
/// materializes payload buffers — it would leave the pools idle and
/// the zero-allocation gate vacuous.)
fn build_pooled_cell(kind: SchedulerKind) -> Cell {
    let mut cfg = CellConfig::lte_default(USERS, kind, 42);
    cfg.harq = Some(outran_phy::harq::HarqConfig::default());
    cfg.residual_loss = POOL_RESIDUAL_LOSS;
    let mut cell = Cell::new(cfg);
    schedule_workload(&mut cell);
    cell
}

/// One pooled measurement: steady-state throughput plus the pool
/// counter deltas across the warmup boundary.
struct PoolRow {
    row: Row,
    /// Pool traffic during warmup (misses here are the pools filling).
    warm: PoolStats,
    /// Pool traffic after the warmup boundary — `misses` must be 0.
    steady: PoolStats,
    retained_bytes: usize,
}

/// Run the pooled cell: warmup to [`POOL_WARMUP_SECS`], snapshot the
/// pool counters, then time the remaining steady-state window and delta
/// the counters. Pool traffic is deterministic (bit-identical
/// simulation), so the steady-state miss count is machine-independent.
fn run_pooled(kind: SchedulerKind) -> PoolRow {
    let mut cell = build_pooled_cell(kind);
    let warm_end = Time::ZERO + Dur::from_secs(POOL_WARMUP_SECS);
    while cell.now() < warm_end {
        cell.step();
    }
    let warm = cell.pool_stats();
    let end = Time::ZERO + Dur::from_secs(SIM_SECS);
    let start = Instant::now();
    let mut ttis = 0u64;
    while cell.now() < end {
        cell.step();
        ttis += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    PoolRow {
        row: Row::new(kind.name(), ttis, secs),
        warm,
        steady: cell.pool_stats().since(&warm),
        retained_bytes: cell.pool_retained_bytes(),
    }
}

/// Measure every scheduler's pooled arm (one warm-up run first).
fn measure_pool_rows() -> Vec<PoolRow> {
    let _ = run_pooled(SchedulerKind::Pf);
    KINDS
        .into_iter()
        .map(|kind| {
            let p = run_pooled(kind);
            eprintln!(
                "  [throughput] pooled {:<12} {} TTIs in {:.3}s = {:.0} TTIs/s \
                 (steady pool: {} hits, {} misses, {} returns; warm misses {})",
                p.row.name,
                p.row.ttis,
                p.row.secs,
                p.row.tps,
                p.steady.hits,
                p.steady.misses,
                p.steady.returns,
                p.warm.misses
            );
            p
        })
        .collect()
}

/// Current resident set in bytes via `/proc/self/statm` (field 2 is
/// resident pages; the platform page size is 4 KiB). `None` where the
/// procfs file is unavailable — the footprint sample is then skipped.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Sample the per-cell resident footprint: build [`MEM_CELLS`] pooled
/// cells, warm each for 250 ms so channels and pools are populated, and
/// attribute the RSS growth evenly. Informational only (RSS is noisy);
/// never gated.
fn measure_mem() -> Option<(usize, u64)> {
    let before = rss_bytes()?;
    let warm_to = Time::ZERO + Dur::from_millis(250);
    let cells: Vec<Cell> = (0..MEM_CELLS)
        .map(|_| {
            let mut c = build_pooled_cell(SchedulerKind::OutRan);
            while c.now() < warm_to {
                c.step();
            }
            c
        })
        .collect();
    let after = rss_bytes()?;
    let per_cell = after.saturating_sub(before) / cells.len() as u64;
    drop(cells);
    Some((MEM_CELLS, per_cell))
}

// ---- one measurement, its invariants and its baseline file -------------

/// Every arm of one run.
struct Measurement {
    e2e: Vec<Row>,
    idle: IdleHeavy,
    kernel: Vec<Row>,
    pooled: Vec<PoolRow>,
    mem: Option<(usize, u64)>,
}

/// Run every arm once.
fn measure() -> Measurement {
    Measurement {
        e2e: measure_e2e_rows(),
        idle: run_idle_heavy(),
        kernel: measure_kernel_rows(),
        pooled: measure_pool_rows(),
        mem: measure_mem(),
    }
}

impl Measurement {
    /// A kernel row's speedup over this run's end-to-end arm of the same
    /// scheduler (NaN when there is none).
    fn kernel_speedup(&self, k: &Row) -> f64 {
        let e2e = self.e2e.iter().find(|r| r.name == k.name);
        k.tps / e2e.map_or(f64::NAN, |r| r.tps)
    }

    /// Fresh TTIs/s figures, in [`figure_keys`] order.
    fn figures(&self) -> Vec<f64> {
        let e2e = self.e2e.iter().map(|r| r.tps);
        let kernel = self.kernel.iter().map(|r| r.tps);
        let pooled = self.pooled.iter().map(|p| p.row.tps);
        e2e.chain([self.idle.event_tps()])
            .chain(kernel)
            .chain(pooled)
            .collect()
    }

    /// Enforce the machine-independent invariants; prints every broken
    /// one and returns whether all hold.
    fn invariants_hold(&self) -> bool {
        let mut ok = true;
        if self.idle.skipped_ttis == 0 {
            eprintln!("throughput: idle-heavy run skipped zero TTIs — skip machinery is dead");
            ok = false;
        }
        for k in &self.kernel {
            let speedup = self.kernel_speedup(k);
            // NaN (no matching e2e arm) must fail the floor, not pass it.
            let meets = speedup >= KERNEL_FLOOR;
            ok &= meets;
            eprintln!(
                "  [throughput] kernel {}: {speedup:.1}x its e2e arm — {} (floor {KERNEL_FLOOR:.1}x)",
                k.name,
                if meets { "ok" } else { "BELOW FLOOR" }
            );
        }
        for p in self.pooled.iter().filter(|p| p.steady.misses > 0) {
            eprintln!(
                "throughput: {} allocated in steady state ({} pool misses after the \
                 {POOL_WARMUP_SECS}s warmup) — zero-allocation invariant broken",
                p.row.name, p.steady.misses
            );
            ok = false;
        }
        if self.pooled.iter().all(|p| p.steady.hits == 0) {
            eprintln!(
                "throughput: no scheduler recorded a steady-state pool hit — the pooled \
                 path is dead machinery and the zero-allocation gate is vacuous"
            );
            ok = false;
        }
        ok
    }

    /// The `BENCH_2.json` text.
    fn to_json(&self, cores: usize) -> String {
        let rows = |rows: Vec<String>, indent: &str| {
            let sep = format!(",\n{indent}");
            format!("{indent}{}\n", rows.join(&sep))
        };
        let row = |r: &Row| {
            format!(
                "{{\"scheduler\": \"{}\", \"ttis\": {}, \"wall_secs\": {:.4}, \
                 \"ttis_per_sec\": {:.1}",
                r.name, r.ttis, r.secs, r.tps
            )
        };
        let m = &self.idle;
        let mut json = format!(
            "{{\n  \"schema\": \"outran-throughput-v2\",\n  \"threads\": 1,\n  \
             \"cores\": {cores},\n  \"sim_secs\": {SIM_SECS},\n  \"users\": {USERS},\n"
        );
        json.push_str("  \"per_scheduler\": [\n");
        json += &rows(self.e2e.iter().map(|r| row(r) + "}").collect(), "    ");
        json.push_str("  ],\n");
        json += &format!(
            "  \"idle_heavy\": {{\n    \"sim_secs\": {IDLE_SIM_SECS},\n    \
             \"total_ttis\": {},\n    \"idle_ttis\": {},\n    \"skipped_ttis\": {},\n    \
             \"completions\": {},\n    \"dense_secs\": {:.4},\n    \"event_secs\": {:.4},\n    \
             \"ttis_per_sec_dense\": {:.1},\n    \"ttis_per_sec_eventdriven\": {:.1},\n    \
             \"speedup\": {:.3}\n  }},\n",
            m.total_ttis,
            m.idle_ttis,
            m.skipped_ttis,
            m.completions,
            m.dense_secs,
            m.event_secs,
            m.total_ttis as f64 / m.dense_secs,
            m.event_tps(),
            m.dense_secs / m.event_secs,
        );
        json += &format!("  \"kernel\": {{\n    \"ttis\": {KERNEL_TTIS},\n    \"rows\": [\n");
        let kernel = self.kernel.iter().map(|k| {
            format!(
                "{}, \"kernel_speedup\": {:.2}}}",
                row(k),
                self.kernel_speedup(k)
            )
        });
        json += &rows(kernel.collect(), "      ");
        json.push_str("    ]\n  },\n");
        json += &format!(
            "  \"pooled\": {{\n    \"warmup_secs\": {POOL_WARMUP_SECS},\n    \"harq\": true,\n    \
             \"residual_loss\": {POOL_RESIDUAL_LOSS},\n    \"rows\": [\n"
        );
        let pooled = self.pooled.iter().map(|p| {
            format!(
                "{},\n       \"pool_warm_misses\": {}, \"pool_steady_hits\": {}, \
                 \"pool_steady_misses\": {}, \"pool_steady_returns\": {}, \
                 \"pool_high_water\": {}, \"pool_retained_bytes\": {}}}",
                row(&p.row),
                p.warm.misses,
                p.steady.hits,
                p.steady.misses,
                p.steady.returns,
                p.steady.high_water.max(p.warm.high_water),
                p.retained_bytes,
            )
        });
        json += &rows(pooled.collect(), "      ");
        json.push_str("    ]\n  },\n");
        let (cells, per_cell) = self.mem.unwrap_or((0, 0));
        let cells_per_gb = (1u64 << 30).checked_div(per_cell).unwrap_or(0);
        json += &format!(
            "  \"mem\": {{\"cells_sampled\": {cells}, \"rss_bytes_per_cell\": {per_cell}, \
             \"cells_per_gb\": {cells_per_gb}}}\n}}\n"
        );
        json
    }
}

/// Where one gated TTIs/s figure lives in the baseline: its top-level
/// section, its scheduler row (`None` for a section-level figure) and
/// its key.
type FigureKey = (&'static str, Option<&'static str>, &'static str);

/// Every gated figure, in [`Measurement::figures`] order.
fn figure_keys() -> Vec<FigureKey> {
    let rows = |section, kinds: &[SchedulerKind]| -> Vec<FigureKey> {
        kinds
            .iter()
            .map(|k| (section, Some(k.name()), "ttis_per_sec"))
            .collect()
    };
    let mut keys = rows("per_scheduler", &KINDS);
    keys.push(("idle_heavy", None, "ttis_per_sec_eventdriven"));
    keys.extend(rows("kernel", &KERNEL_KINDS));
    keys.extend(rows("pooled", &KINDS));
    keys
}

/// The text of top-level `section` in a self-emitted baseline: from its
/// key up to the next top-level key. Every section has a `PF` row, so a
/// lookup must never read past its own section.
fn section_text<'a>(json: &'a str, section: &str) -> Option<&'a str> {
    let tag = format!("\n  \"{section}\": ");
    let body = &json[json.find(&tag)? + tag.len()..];
    Some(&body[..body.find("\n  \"").unwrap_or(body.len())])
}

/// Scan `"key": <number>` out of self-emitted JSON (no serde in the
/// offline build, and we emit the file ourselves, so a positional scan
/// is exact).
fn scan_f64(json: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let v = &json[json.find(&tag)? + tag.len()..];
    let end = v.find([',', '}', '\n'])?;
    v[..end].trim().parse().ok()
}

/// Look one figure up in a baseline.
fn baseline_figure(json: &str, (section, scheduler, key): FigureKey) -> Option<f64> {
    let mut text = section_text(json, section)?;
    if let Some(s) = scheduler {
        let tag = format!("\"scheduler\": \"{s}\"");
        text = &text[text.find(&tag)? + tag.len()..];
    }
    scan_f64(text, key)
}

/// Every figure's baseline value, or an error naming a section that
/// gates no row (a wrong or old-schema file).
fn read_baseline(json: &str) -> Result<Vec<Option<f64>>, String> {
    let keys = figure_keys();
    let base: Vec<Option<f64>> = keys.iter().map(|&k| baseline_figure(json, k)).collect();
    let mut sections: Vec<&str> = keys.iter().map(|k| k.0).collect();
    sections.dedup();
    for section in sections {
        let mut rows = keys.iter().zip(&base).filter(|(k, _)| k.0 == section);
        if !rows.any(|(_, b)| b.is_some()) {
            return Err(format!(
                "baseline has no usable `{section}` entries — wrong file?"
            ));
        }
    }
    Ok(base)
}

/// The tolerance loop: every fresh figure against its baseline value;
/// prints each verdict and returns whether none regressed.
fn within_tolerance(base: &[Option<f64>], fresh: &[f64]) -> bool {
    let mut ok = true;
    for (((section, scheduler, _), base), tps) in figure_keys().into_iter().zip(base).zip(fresh) {
        let label = format!("{section} {}", scheduler.unwrap_or("event-driven"));
        let Some(base) = base else {
            eprintln!("  [throughput] {label}: no baseline entry, skipping");
            continue;
        };
        let floor = base * (1.0 - TOLERANCE);
        // NaN fails: only a figure at or above the floor passes.
        let pass = *tps >= floor;
        ok &= pass;
        eprintln!(
            "  [throughput] {label}: {tps:.0} vs baseline {base:.0} (floor {floor:.0}) — {}",
            if pass { "ok" } else { "REGRESSION" }
        );
    }
    ok
}

fn main() {
    let mode = outran_bench::baseline_mode("throughput", false, "[--check FILE]");
    // Fail on an unusable baseline *before* spending time measuring.
    let baseline = match &mode {
        BaselineMode::Record => None,
        BaselineMode::Check(path) => {
            let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("throughput: cannot read baseline {path}: {e}");
                std::process::exit(2);
            });
            Some(read_baseline(&json).unwrap_or_else(|e| {
                eprintln!("throughput: {path}: {e}");
                std::process::exit(2);
            }))
        }
    };

    let m = measure();
    let invariants = m.invariants_hold();
    match baseline {
        None => {
            // A baseline that fails its own invariants must never land.
            if !invariants {
                eprintln!("throughput: invariant broken — BENCH_2.json not written");
                std::process::exit(1);
            }
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let json = m.to_json(cores);
            write_json("BENCH_2.json", &json);
            println!("{json}");
            eprintln!("  [throughput] wrote BENCH_2.json");
        }
        Some(base) => {
            let tolerated = within_tolerance(&base, &m.figures());
            if !(invariants && tolerated) {
                eprintln!("throughput: check failed");
                std::process::exit(1);
            }
            println!(
                "throughput check passed (tolerance {:.0}%, kernel floor {KERNEL_FLOOR:.1}x e2e, \
                 steady pool misses == 0)",
                TOLERANCE * 100.0
            );
        }
    }
}

/// Write a result file atomically (temp sibling + rename): an interrupted
/// CI run leaves the previous baseline intact, never a torn JSON.
fn write_json(path: &str, json: &str) {
    if let Err(e) = outran_simcore::snap::write_atomic(std::path::Path::new(path), json.as_bytes())
    {
        eprintln!("throughput: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement with distinct, recognisable figures per section.
    fn synthetic() -> Measurement {
        let rows = |kinds: &[SchedulerKind], tps: f64| -> Vec<Row> {
            kinds
                .iter()
                .map(|k| Row::new(k.name(), 1000, 1000.0 / tps))
                .collect()
        };
        Measurement {
            e2e: rows(&KINDS, 50_000.0),
            idle: IdleHeavy {
                total_ttis: 3_604_000,
                idle_ttis: 3_596_737,
                skipped_ttis: 3_596_736,
                completions: 420,
                dense_secs: 0.05,
                event_secs: 0.02,
            },
            kernel: rows(&KERNEL_KINDS, 1_000_000.0),
            pooled: rows(&KINDS, 40_000.0)
                .into_iter()
                .map(|row| PoolRow {
                    row,
                    warm: PoolStats::default(),
                    steady: PoolStats::default(),
                    retained_bytes: 0,
                })
                .collect(),
            mem: None,
        }
    }

    #[test]
    fn lookups_stay_inside_their_section() {
        let json = synthetic().to_json(2);
        let pf = |section| baseline_figure(&json, (section, Some("PF"), "ttis_per_sec"));
        assert_eq!(pf("per_scheduler"), Some(50_000.0));
        assert_eq!(pf("kernel"), Some(1_000_000.0));
        assert_eq!(pf("pooled"), Some(40_000.0));
        let idle = ("idle_heavy", None, "ttis_per_sec_eventdriven");
        assert_eq!(baseline_figure(&json, idle), Some(180_200_000.0));
        assert_eq!(
            baseline_figure(&json, ("kernel", Some("RR"), "ttis_per_sec")),
            None
        );
        assert_eq!(section_text(&json, "sweep"), None);
        assert_eq!(pf("sweep"), None);
    }

    #[test]
    fn own_output_round_trips_through_the_gate() {
        let m = synthetic();
        let base = read_baseline(&m.to_json(2)).expect("v2 baseline is usable");
        assert!(base.iter().all(Option::is_some));
        assert!(within_tolerance(&base, &m.figures()));
        let mut slow = m.figures();
        slow[KINDS.len() + 1] *= 0.5; // the kernel PF row
        assert!(!within_tolerance(&base, &slow));
        slow[KINDS.len() + 1] = f64::NAN;
        assert!(!within_tolerance(&base, &slow));
    }

    #[test]
    fn old_schema_baselines_are_rejected() {
        // A v1 idle-heavy file: the same figures, flat, with no sections.
        let bench3_v1 = r#"{
  "sim_secs": 3600,
  "total_ttis": 3604000,
  "idle_ttis": 3596737,
  "skipped_ttis": 3596736,
  "ttis_per_sec_eventdriven": 201467796.9,
  "speedup": 2.907
}
"#;
        assert_eq!(section_text(bench3_v1, "per_scheduler"), None);
        let err = read_baseline(bench3_v1).unwrap_err();
        assert!(err.contains("`per_scheduler`"), "{err}");

        let bench2_v1 = r#"{
  "schema": "outran-throughput-v1",
  "per_scheduler": [
    {"scheduler": "PF", "ttis": 5000, "wall_secs": 0.0942, "ttis_per_sec": 53066.7}
  ],
  "sweep": {"jobs": 8, "serial_secs": 0.973, "parallel_secs": 0.875, "speedup": 1.113}
}
"#;
        let err = read_baseline(bench2_v1).unwrap_err();
        assert!(err.contains("`idle_heavy`"), "{err}");
    }

    #[test]
    fn invariants_catch_each_broken_gate() {
        let mut m = synthetic();
        m.pooled[0].steady.hits = 1;
        assert!(m.invariants_hold());

        let mut dead_skip = synthetic();
        dead_skip.pooled[0].steady.hits = 1;
        dead_skip.idle.skipped_ttis = 0;
        assert!(!dead_skip.invariants_hold());

        let mut slow_kernel = synthetic();
        slow_kernel.pooled[0].steady.hits = 1;
        slow_kernel.kernel[1] = Row::new("OutRAN", 1000, 1000.0 / 200_000.0);
        assert!(!slow_kernel.invariants_hold());

        let mut no_e2e = synthetic();
        no_e2e.pooled[0].steady.hits = 1;
        no_e2e.e2e.retain(|r| r.name != "PF");
        assert!(!no_e2e.invariants_hold());

        let mut missed = synthetic();
        missed.pooled[0].steady.hits = 1;
        missed.pooled[2].steady.misses = 1;
        assert!(!missed.invariants_hold());

        // No steady hit anywhere: the pooled path was never exercised.
        assert!(!synthetic().invariants_hold());
    }
}
