//! Metro-scale coupled-network benchmark — per-scheduler FCT under
//! handover churn on the two-ring 19-site / 57-cell layout with 1200
//! mobile UEs, plus the handover/ping-pong health table
//! (`BENCH_6.json`).
//!
//! ```console
//! cargo run --release -p outran-bench --bin metro                  # measure
//! cargo run --release -p outran-bench --bin metro -- \
//!     --check BENCH_6.json                                         # gate
//! ```
//!
//! Unlike the wall-clock throughput bench (BENCH_2), everything gated
//! here is *simulated* and therefore bit-deterministic: the coupled network
//! replays byte-identically for any thread count and on any machine.
//! `--check FILE` re-runs the deployment and fails (exit 1) unless the
//! freshly produced `"sim"` block — FCT figures, completion counts, the
//! full handover table and an FNV fingerprint of each scheduler's
//! entire report — is *exactly* equal to the one recorded in FILE. No
//! tolerance: any drift in the simulation is a behavioural change that
//! must be re-recorded deliberately.
//!
//! Record time enforces the same hard invariants the gate re-checks:
//! every scheduler's run must execute handovers (a churn bench without
//! churn is vacuous), finish without a watchdog abort, and audit to
//! zero invariant violations.

#![forbid(unsafe_code)]

use outran_bench::BaselineMode;
use outran_phy::Scenario;
use outran_ran::{Network, NetworkReport, SchedulerKind};
use outran_simcore::Time;
use std::time::Instant;

/// Two hex rings of 3-sector sites: the classic 57-cell metro layout.
const SITES: usize = 19;
const SECTORS: usize = 3;
/// Attach capacity per cell; 57 · 32 = 1824 slots at ~66% occupancy —
/// a full target cell blocks a handover, so the layout needs headroom
/// for churn to actually move UEs.
const SLOTS: usize = 32;
/// Mobile population (pedestrian walks + vehicular corridors).
const UES: usize = 1200;
/// Aggregate offered load versus nominal network capacity.
const LOAD: f64 = 0.6;
/// Arrival horizon (the run drains 4 extra seconds).
const SECS: u64 = 10;
const SEED: u64 = 42;

const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Pf,
    SchedulerKind::Rr,
    SchedulerKind::Mt,
    SchedulerKind::Srjf,
    SchedulerKind::OutRan,
];

/// One measured deployment.
struct MetroRow {
    name: &'static str,
    wall_secs: f64,
    report: NetworkReport,
}

fn build_network(kind: SchedulerKind, threads: usize) -> Network {
    let mut net = Network::metro(Scenario::LtePedestrian, kind, LOAD);
    net.n_sites = SITES;
    net.sectors_per_site = SECTORS;
    net.slots_per_cell = SLOTS;
    net.n_ues = UES;
    net.duration = Time::from_secs(SECS);
    net.seed = SEED;
    net.threads = threads;
    net
}

/// Run every scheduler's deployment; aborts the bench if any run trips
/// the hard invariants (no handovers, watchdog abort, audit violation).
fn measure(threads: usize) -> Vec<MetroRow> {
    KINDS
        .into_iter()
        .map(|kind| {
            let net = build_network(kind, threads);
            let t0 = Instant::now();
            let run = net.run();
            let wall_secs = t0.elapsed().as_secs_f64();
            let r = run.report;
            eprintln!(
                "  [metro] {:<12} {:.1}s wall  {} / {} flows  HO {}/{} ok  \
                 ping-pong {}  violations {}",
                kind.name(),
                wall_secs,
                r.completed,
                r.offered,
                r.handover.successes,
                r.handover.attempts,
                r.handover.ping_pongs,
                r.total_violations
            );
            if run.aborted_at.is_some() {
                eprintln!(
                    "metro: {} run hit the watchdog — not a baseline",
                    kind.name()
                );
                std::process::exit(1);
            }
            if r.handover.successes == 0 {
                eprintln!(
                    "metro: {} run executed zero handovers — the churn bench is vacuous",
                    kind.name()
                );
                std::process::exit(1);
            }
            if r.total_violations > 0 {
                eprintln!(
                    "metro: {} run has {} invariant violation(s)",
                    kind.name(),
                    r.total_violations
                );
                std::process::exit(1);
            }
            MetroRow {
                name: kind.name(),
                wall_secs,
                report: r,
            }
        })
        .collect()
}

/// FNV-1a over a report's full `Debug` form: one value that pins every
/// field (per-cell counts included) without spelling each out in JSON.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic block — everything in here must be byte-identical
/// across machines, thread counts and reruns. This is the gated text.
fn sim_json(rows: &[MetroRow]) -> String {
    let mut json = String::from("{\n    \"per_scheduler\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        json.push_str(&format!(
            "      {{\"scheduler\": \"{}\", \"fct_overall_ms\": {:.3}, \
             \"fct_short_ms\": {:.3}, \"fct_short_p95_ms\": {:.3}, \
             \"fct_medium_ms\": {:.3}, \"fct_long_ms\": {:.3},\n       \
             \"completed\": {}, \"offered\": {},\n       \"handover\": {{",
            row.name,
            r.fct.overall_mean_ms,
            r.fct.short_mean_ms,
            r.fct.short_p95_ms,
            r.fct.medium_mean_ms,
            r.fct.long_mean_ms,
            r.completed,
            r.offered,
        ));
        for (j, (label, value)) in r.handover.rows().iter().enumerate() {
            json.push_str(&format!(
                "\"{label}\": {value}{}",
                if j + 1 < r.handover.rows().len() {
                    ", "
                } else {
                    "},\n"
                }
            ));
        }
        json.push_str(&format!(
            "       \"violations\": {}, \"report_fnv\": \"{:016x}\"}}{}\n",
            r.total_violations,
            fnv64(&format!("{r:?}")),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }");
    json
}

/// Assemble the full BENCH_6.json: layout + wall clocks (informational,
/// machine-dependent, so recorded with the worker threads used and the
/// cores available) followed by the gated `"sim"` block, which is
/// deliberately the final key so the gate can compare the raw tail of
/// the file.
fn metro_json(rows: &[MetroRow], threads: usize) -> String {
    let mut json = String::from("{\n  \"schema\": \"outran-metro-v1\",\n");
    json.push_str(&format!(
        "  \"sites\": {SITES}, \"sectors\": {SECTORS}, \"cells\": {}, \
         \"slots\": {SLOTS}, \"ues\": {UES},\n  \"load\": {LOAD}, \
         \"secs\": {SECS}, \"seed\": {SEED},\n",
        SITES * SECTORS
    ));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    json.push_str(&format!(
        "  \"wall\": {{\"threads\": {threads}, \"cores\": {cores}, \"per_scheduler\": [\n"
    ));
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scheduler\": \"{}\", \"wall_secs\": {:.2}}}{}\n",
            row.name,
            row.wall_secs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str("  \"sim\": ");
    json.push_str(&sim_json(rows));
    json.push_str("\n}\n");
    json
}

/// Print the human-readable tables (FCT + handover health).
fn print_tables(rows: &[MetroRow]) {
    let mut fct = outran_metrics::table::Table::new(
        "metro FCT under handover churn (ms)",
        &[
            "scheduler",
            "overall",
            "S avg",
            "S p95",
            "M avg",
            "L avg",
            "done/offered",
        ],
    );
    for row in rows {
        let r = &row.report;
        fct.row(&[
            row.name.to_string(),
            format!("{:.1}", r.fct.overall_mean_ms),
            format!("{:.1}", r.fct.short_mean_ms),
            format!("{:.1}", r.fct.short_p95_ms),
            format!("{:.1}", r.fct.medium_mean_ms),
            format!("{:.1}", r.fct.long_mean_ms),
            format!("{}/{}", r.completed, r.offered),
        ]);
    }
    fct.print();
    let labels: Vec<&'static str> = rows[0]
        .report
        .handover
        .rows()
        .iter()
        .map(|&(l, _)| l)
        .collect();
    let mut headers = vec!["scheduler"];
    headers.extend(labels.iter().copied());
    headers.push("violations");
    let mut health = outran_metrics::table::Table::new("handover health", &headers);
    for row in rows {
        let mut cells = vec![row.name.to_string()];
        cells.extend(
            row.report
                .handover
                .rows()
                .iter()
                .map(|(_, v)| v.to_string()),
        );
        cells.push(row.report.total_violations.to_string());
        health.row(&cells);
    }
    health.print();
}

/// Gate against a recorded baseline: the freshly measured `"sim"` block
/// must equal the baseline's byte for byte.
fn check(baseline: &str, rows: &[MetroRow]) {
    let tag = "\"sim\": ";
    let Some(at) = baseline.find(tag) else {
        eprintln!("metro: baseline lacks a sim block — wrong file?");
        std::process::exit(2);
    };
    let recorded = baseline[at + tag.len()..].trim_end_matches(['\n', '}', ' ']);
    let fresh_full = sim_json(rows);
    let fresh = fresh_full.trim_end_matches(['\n', '}', ' ']);
    if recorded != fresh {
        eprintln!("metro: simulated metrics diverged from the recorded baseline");
        eprintln!("--- recorded ---\n{recorded}\n--- fresh ---\n{fresh}");
        std::process::exit(1);
    }
    println!("metro determinism check passed (sim block exactly equal)");
}

fn main() {
    let mode = outran_bench::baseline_mode("metro", true, "[--threads N] [--check FILE]");
    // Fail on an unreadable baseline before spending time measuring.
    let baseline = match mode {
        BaselineMode::Record => None,
        BaselineMode::Check(p) => Some(std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("metro: cannot read baseline {p}: {e}");
            std::process::exit(2);
        })),
    };
    let threads = outran_bench::configured_threads();
    let rows = measure(threads);
    print_tables(&rows);
    if let Some(baseline) = baseline {
        check(&baseline, &rows);
    } else {
        let json = metro_json(&rows, threads);
        if let Err(e) = outran_simcore::snap::write_atomic(
            std::path::Path::new("BENCH_6.json"),
            json.as_bytes(),
        ) {
            eprintln!("metro: cannot write BENCH_6.json: {e}");
            std::process::exit(2);
        }
        println!("{json}");
        eprintln!("  [metro] wrote BENCH_6.json");
    }
}
