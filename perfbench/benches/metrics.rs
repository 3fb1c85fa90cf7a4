//! The metric catalogue: every metric the benchmark prints, its unit,
//! and the workloads on which it is measured. `BENCHMARK.json` and
//! `perfbench/layers.json` list the same names (checked by the tests).

use crate::workloads::Workload::{self, MetroHo, SoakIdle, SweepLte};

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Workloads that exercise it; elsewhere it is not measured and
    /// prints as 0.
    pub on: &'static [Workload],
}

const ALL: &[Workload] = &[SweepLte, SoakIdle, MetroHo];
const CELLS: &[Workload] = &[SweepLte, SoakIdle];

const fn m(name: &'static str, unit: &'static str, on: &'static [Workload]) -> Metric {
    Metric { name, unit, on }
}

/// End-to-end metrics, measured on every workload with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", ALL),
    m("setup_s", "s", ALL),
    m("peak_rss_mib", "MiB", ALL),
    m("completed_frac", "ratio", ALL),
];

/// Simulated end-to-end results, printed beside [`END_TO_END`] but not
/// bounded: they vary with the workload seed by more than any bound
/// could allow, and the report digest pins them exactly.
pub const SIMULATED: &[Metric] = &[
    m("fct_mean_ms", "sim_ms", ALL),
    m("fct_short_p95_ms", "sim_ms", ALL),
];

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("stages.ingress.self_s", "s", CELLS),
    m("stages.rlc_down.self_s", "s", CELLS),
    m("stages.mac_sched.self_s", "s", CELLS),
    m("stages.phy_tx.self_s", "s", CELLS),
    m("stages.delivery.self_s", "s", CELLS),
    m("stages.housekeeping.self_s", "s", CELLS),
    m("stages.glue_s", "s", CELLS),
    m("ingress.flows_registered", "count", CELLS),
    m("cell.active_ttis", "count", CELLS),
    m("cell.idle_ttis", "count", CELLS),
    m("cell.skipped_ttis", "count", CELLS),
    m("cell.skip_ratio", "ratio", CELLS),
    m("cell.us_per_active_tti", "us", CELLS),
    m("mac.rb_util", "ratio", CELLS),
    m("cell.next_activity_s", "s", CELLS),
    m("cell.fast_forward_s", "s", CELLS),
    m("cell.step_s", "s", CELLS),
    m("cell.wakeups", "count", CELLS),
    m("phy.advance_tti_ns", "ns", ALL),
    m("phy.fill_reported_rates_ns", "ns", ALL),
    m("phy.fresh_outcomes_ns", "ns", ALL),
    m("mac.allocate_ns.pf", "ns", ALL),
    m("mac.allocate_ns.outran", "ns", ALL),
    m("core.resolve_mlfq_s", "s", ALL),
    m("ran.cell_new_s.pf", "s", ALL),
    m("ran.cell_new_s.outran", "s", ALL),
    m("events.schedule_ns", "ns", ALL),
    m("events.pop_due_ns", "ns", ALL),
    m("ckpt.snapshot_s", "s", &[SoakIdle]),
    m("ckpt.encode_s", "s", &[SoakIdle]),
    m("ckpt.write_s", "s", &[SoakIdle]),
    m("ckpt.read_s", "s", &[SoakIdle]),
    m("ckpt.restore_s", "s", &[SoakIdle]),
    m("ckpt.bytes", "bytes", &[SoakIdle]),
    m("ckpt.count", "count", &[SoakIdle]),
    m("network.run_s.t1", "s", &[MetroHo]),
    m("network.run_s.t2", "s", &[MetroHo]),
    m("network.parallel_eff", "ratio", &[MetroHo]),
    m("network.setup_s", "s", &[MetroHo]),
    m("ho.attempts", "count", &[MetroHo]),
    m("ho.successes", "count", &[MetroHo]),
    m("ho.blocked", "count", &[MetroHo]),
    m("ho.success_ratio", "ratio", &[MetroHo]),
    m("ho.flows_transferred", "count", &[MetroHo]),
    m("pool.serial_s", "s", &[SweepLte]),
    m("pool.parallel_eff", "ratio", &[SweepLte]),
    m("pool.job_s.p50", "s", &[SweepLte]),
    m("pool.job_s.max", "s", &[SweepLte]),
    m("faults.violations", "count", ALL),
    m("cell.buffer_drops", "count", CELLS),
    m("cell.residual_losses", "count", CELLS),
    m("trace.overhead_s", "s", ALL),
];
