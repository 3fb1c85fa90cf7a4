//! High-level experiment builder and report.
//!
//! Wraps [`crate::cell::Cell`] in the evaluation's standard pattern:
//! Poisson flow arrivals at a target cell load over a chosen scenario,
//! run for a horizon, report FCT buckets + spectral efficiency +
//! fairness. Every figure's bench binary is a thin loop over this type.

use std::path::PathBuf;

use outran_core::OutRanConfig;
use outran_faults::{FaultPlan, FaultStats, HandoverStats, Violation};
use outran_phy::Scenario;
use outran_simcore::{Dur, Rng, Time};
use outran_transport::TcpConfig;
use outran_workload::{FlowSizeDist, PoissonFlowGen};

use crate::cell::{Cell, CellConfig, RlcMode, SchedulerKind};
use crate::checkpoint::{write_checkpoint, CheckpointMeta};

/// Builder for a standard Poisson-load cell experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    scenario: Scenario,
    scheduler: SchedulerKind,
    n_ues: usize,
    load: f64,
    dist: FlowSizeDist,
    duration: Time,
    warmup: Dur,
    seed: u64,
    tf: Dur,
    rlc_mode: RlcMode,
    buffer_sdus: usize,
    cn_delay: Dur,
    outran: OutRanConfig,
    tcp: TcpConfig,
    residual_loss: f64,
    srjf_mode: outran_mac::srjf::SrjfMode,
    harq: Option<outran_phy::harq::HarqConfig>,
    faults: FaultPlan,
    watchdog: Option<Dur>,
    max_flow_entries: Option<usize>,
    dense: bool,
    /// Periodic checkpointing: every `0` of simulated time, write a
    /// crash-safe snapshot into `1` (see [`crate::checkpoint`]).
    checkpoint: Option<(Dur, PathBuf)>,
    /// Original argv embedded in checkpoint metadata so `resume` can
    /// rebuild the identical experiment.
    checkpoint_argv: Vec<String>,
}

impl Experiment {
    /// The paper's main LTE setting: pedestrian cell, LTE cellular flow
    /// sizes, PF unless overridden.
    pub fn lte_default() -> Experiment {
        Experiment {
            scenario: Scenario::LtePedestrian,
            scheduler: SchedulerKind::Pf,
            n_ues: 20,
            load: 0.6,
            dist: FlowSizeDist::LteCellular,
            duration: Time::from_secs(10),
            warmup: Dur::from_secs(1),
            seed: 1,
            tf: Dur::from_millis(1000),
            rlc_mode: RlcMode::Um,
            buffer_sdus: 128,
            cn_delay: Dur::from_millis(10),
            outran: OutRanConfig::default(),
            tcp: TcpConfig::default(),
            residual_loss: 0.002,
            srjf_mode: outran_mac::srjf::SrjfMode::Waterfall,
            harq: None,
            faults: FaultPlan::new(),
            watchdog: None,
            max_flow_entries: None,
            dense: false,
            checkpoint: None,
            checkpoint_argv: Vec::new(),
        }
    }

    /// The 5G setting of §6.2 (NR urban, MIRAGE sizes).
    pub fn nr_default(mu: u8) -> Experiment {
        Experiment {
            scenario: Scenario::NrUrban(mu),
            dist: FlowSizeDist::MirageMobileApp,
            n_ues: 40,
            ..Experiment::lte_default()
        }
    }

    /// Select the scenario preset.
    pub fn scenario(mut self, s: Scenario) -> Self {
        self.scenario = s;
        self
    }

    /// Select the MAC scheduler.
    pub fn scheduler(mut self, k: SchedulerKind) -> Self {
        self.scheduler = k;
        self
    }

    /// Number of UEs.
    pub fn users(mut self, n: usize) -> Self {
        self.n_ues = n;
        self
    }

    /// Target cell load (offered bits / capacity).
    pub fn load(mut self, l: f64) -> Self {
        self.load = l;
        self
    }

    /// Flow-size distribution.
    pub fn dist(mut self, d: FlowSizeDist) -> Self {
        self.dist = d;
        self
    }

    /// Simulated horizon in seconds.
    pub fn duration_secs(mut self, s: u64) -> Self {
        self.duration = Time::from_secs(s);
        self
    }

    /// Root seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// PF fairness window T_f.
    pub fn fairness_window(mut self, tf: Dur) -> Self {
        self.tf = tf;
        self
    }

    /// RLC mode (UM default).
    pub fn rlc_mode(mut self, m: RlcMode) -> Self {
        self.rlc_mode = m;
        self
    }

    /// RLC buffer capacity in SDUs (Fig 3b sweeps ×1 / ×5).
    pub fn buffer_sdus(mut self, n: usize) -> Self {
        self.buffer_sdus = n;
        self
    }

    /// One-way CN propagation delay (Fig 17: 20 ms remote, 5 ms MEC).
    pub fn cn_delay(mut self, d: Dur) -> Self {
        self.cn_delay = d;
        self
    }

    /// OutRAN policy configuration.
    pub fn outran(mut self, c: OutRanConfig) -> Self {
        self.outran = c;
        self
    }

    /// Post-HARQ residual segment-loss probability (fault injection).
    pub fn residual_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.residual_loss = p;
        self
    }

    /// SRJF leftover-capacity policy (see [`outran_mac::srjf::SrjfMode`]).
    pub fn srjf_mode(mut self, m: outran_mac::srjf::SrjfMode) -> Self {
        self.srjf_mode = m;
        self
    }

    /// Explicit HARQ retransmission modelling (`None` = folded model).
    pub fn harq(mut self, h: Option<outran_phy::harq::HarqConfig>) -> Self {
        self.harq = h;
        self
    }

    /// Scripted fault plan consulted each TTI (chaos runs).
    pub fn faults(mut self, p: FaultPlan) -> Self {
        self.faults = p;
        self
    }

    /// Stalled-flow watchdog: force a retransmission after this long
    /// without cumulative-ACK progress.
    pub fn watchdog(mut self, stall: Option<Dur>) -> Self {
        self.watchdog = stall;
        self
    }

    /// Force dense per-TTI stepping instead of the event-driven
    /// idle-skip loop. Results are bit-identical either way (asserted by
    /// the equivalence tests); the switch exists for A/B timing and for
    /// debugging the skip logic itself.
    pub fn dense_stepping(mut self, dense: bool) -> Self {
        self.dense = dense;
        self
    }

    /// Flow-table admission-control cap (LRU eviction beyond it).
    pub fn max_flow_entries(mut self, cap: Option<usize>) -> Self {
        self.max_flow_entries = cap;
        self
    }

    /// Write a crash-safe checkpoint into `dir` every `every` of
    /// *simulated* time (rounded up to whole-second epoch boundaries).
    /// `argv` is embedded in the checkpoint metadata so
    /// `outran-sim resume <ckpt>` can rebuild the identical experiment.
    pub fn checkpoint_every(mut self, every: Dur, dir: PathBuf, argv: Vec<String>) -> Self {
        assert!(every > Dur::ZERO, "checkpoint interval must be positive");
        self.checkpoint = Some((every, dir));
        self.checkpoint_argv = argv;
        self
    }

    /// Estimated cell capacity in bit/s under the scenario's peak MCS,
    /// derated for typical channel conditions — the anchor for the
    /// load→arrival-rate conversion.
    pub fn capacity_bps(&self) -> f64 {
        let ch = self.scenario.channel_config();
        let peak_bits_per_re = ch.table.peak_efficiency();
        // The paper calibrates load against the cell's nominal capacity
        // (97 Mbps for the 20 MHz testbed), which real mixed-CQI cells
        // cannot actually sustain — that is why its high-"load" points
        // (0.7/0.8) behave like saturation (Fig 15's PF blow-up). The
        // mild derate keeps the same semantics.
        let derate = 0.85;
        ch.radio.peak_rate_bps(peak_bits_per_re) * derate
    }

    /// Build the configured cell with every Poisson arrival scheduled
    /// up-front, ready to advance. Used by [`Experiment::run`] and by
    /// checkpoint restore (construct-then-overlay: a restored run
    /// rebuilds this exact cell, then overlays the snapshot's dynamic
    /// state with [`Cell::load_snap`]).
    pub fn build_cell(&self) -> Cell {
        let mut cfg = CellConfig::lte_default(self.n_ues, self.scheduler, self.seed);
        cfg.channel = self.scenario.channel_config();
        cfg.tf = self.tf;
        cfg.rlc_mode = self.rlc_mode;
        cfg.buffer_sdus = self.buffer_sdus;
        cfg.cn_delay = self.cn_delay;
        cfg.outran = self.outran.clone();
        cfg.tcp = self.tcp;
        cfg.residual_loss = self.residual_loss;
        cfg.srjf_mode = self.srjf_mode;
        cfg.harq = self.harq;
        cfg.faults = self.faults.clone();
        cfg.watchdog = self.watchdog;
        cfg.max_flow_entries = self.max_flow_entries;
        let mut cell = Cell::new(cfg);
        let mut gen = PoissonFlowGen::new(
            self.dist,
            self.load,
            self.capacity_bps(),
            self.n_ues,
            Rng::new(self.seed ^ 0xA11CE),
        );
        for a in gen.take_until(self.duration) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell
    }

    /// Advance `cell` to `to` in the configured stepping mode.
    fn advance(&self, cell: &mut Cell, to: Time) {
        if self.dense {
            cell.run_until_dense(to);
        } else {
            cell.run_until(to);
        }
    }

    /// Build the cell + arrivals and run to completion.
    pub fn run(self) -> ExperimentReport {
        let cell = self.build_cell();
        self.run_cell(cell)
    }

    /// Run an already-built (or checkpoint-restored) cell from its
    /// current clock to the end of the drain window, then assemble the
    /// report. With checkpointing configured, the horizon is walked in
    /// whole-second epochs and a snapshot is written atomically at every
    /// interval boundary — the chunked walk is bit-identical to one
    /// `run_until` call, since both stepping loops only ever advance one
    /// TTI at a time. A checkpoint write failure is reported to stderr
    /// and the run continues: losing a checkpoint must not kill a soak.
    pub fn run_cell(self, mut cell: Cell) -> ExperimentReport {
        let warmup_end = Time::ZERO + self.warmup;
        // Run past the horizon to let late flows finish (bounded drain).
        let drain_end = Time(self.duration.0 + Time::from_secs(4).0);
        match &self.checkpoint {
            Some((every, dir)) => {
                let every = Dur::from_secs(every.as_nanos().div_ceil(Time::from_secs(1).0));
                let mut next = Time(cell.now().0 + every.as_nanos());
                while cell.now() < drain_end {
                    let to = next.min(drain_end);
                    self.advance(&mut cell, to);
                    if cell.now() >= next {
                        let meta = CheckpointMeta {
                            argv: self.checkpoint_argv.clone(),
                            sim_time: cell.now(),
                            dense: self.dense,
                            n_cells: 1,
                        };
                        let secs = cell.now().as_nanos() / 1_000_000_000;
                        let path = dir.join(format!("ckpt-{secs}s.orsn"));
                        if let Err(e) = write_checkpoint(&path, &meta, &[&cell]) {
                            eprintln!("warning: checkpoint {} failed: {e}", path.display());
                        }
                        next = Time(next.0 + every.as_nanos());
                    }
                }
            }
            None => {
                self.advance(&mut cell, self.duration);
                self.advance(&mut cell, drain_end);
            }
        }

        // Only count flows that *started* after warmup. The pipeline
        // yields completions already in completion order (delivery runs
        // once per TTI, in TTI order), so no re-sort is needed — the
        // debug assertion guards that contract.
        let mut fct = outran_metrics::FctCollector::new();
        let mut records = Vec::new();
        let mut last_done = Time::ZERO;
        for d in cell.take_completions() {
            let done_at = d.spawn + d.fct;
            debug_assert!(
                done_at >= last_done,
                "pipeline must emit completions in completion order"
            );
            last_done = done_at;
            if d.spawn >= warmup_end {
                fct.record(d.bytes, d.fct);
                records.push((d.bytes, d.fct.as_millis_f64()));
            }
        }
        let report = fct.report();
        let se = cell.metrics.spectral_efficiency();
        let fairness = cell.metrics.mean_fairness();
        // Final invariant sweep so end-of-run state is always audited.
        cell.audit_now();
        ExperimentReport {
            scheduler: self.scheduler.label(),
            fct: report,
            spectral_efficiency: se,
            fairness,
            mean_qdelay_ms: cell.metrics.mean_qdelay_ms(),
            short_qdelay_ms: cell.metrics.short_qdelay_ms(),
            mean_rtt_ms: cell.mean_last_rtt_ms(),
            completed: cell.n_completed(),
            offered: cell.n_flows(),
            buffer_drops: cell.buffer_drops(),
            residual_losses: cell.residual_losses(),
            fault_stats: cell.fault_stats(),
            handover: HandoverStats::default(),
            violations: cell.violations().to_vec(),
            total_violations: cell.total_violations(),
            se_cdf: cell.metrics.se_cdf(200),
            fairness_cdf: cell.metrics.fairness_cdf(200),
            se_series: cell.metrics.se_series().to_vec(),
            fairness_series: cell.metrics.fairness_series().to_vec(),
            flow_records: records,
            fct_collector: fct,
        }
    }
}

/// Results of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Scheduler name.
    pub scheduler: String,
    /// FCT summary (ms).
    pub fct: outran_metrics::FctReport,
    /// Long-run spectral efficiency (bit/s/Hz).
    pub spectral_efficiency: f64,
    /// Mean Jain fairness of windowed samples.
    pub fairness: f64,
    /// Mean RLC queueing delay (ms) — Fig 17 ②.
    pub mean_qdelay_ms: f64,
    /// Mean short-flow RLC queueing delay (ms) — Fig 17 ③.
    pub short_qdelay_ms: f64,
    /// Mean of last TCP RTT samples (ms) — Fig 17 ①.
    pub mean_rtt_ms: f64,
    /// Flows completed (including warmup).
    pub completed: usize,
    /// Flows offered.
    pub offered: usize,
    /// SDUs dropped at full RLC buffers.
    pub buffer_drops: u64,
    /// Segments lost after HARQ (configured residual + injected spikes).
    pub residual_losses: u64,
    /// Injected-fault and recovery-path counters.
    pub fault_stats: FaultStats,
    /// Handover counters — always zero for a single isolated cell; the
    /// field exists so single-cell and network health tables share one
    /// shape (see [`crate::network::NetworkReport`]).
    pub handover: HandoverStats,
    /// Recorded invariant violations (bounded; see `total_violations`).
    pub violations: Vec<Violation>,
    /// Total invariant violations, including any past the record cap.
    pub total_violations: u64,
    /// CDF of windowed spectral-efficiency samples (Fig 7a).
    pub se_cdf: Vec<(f64, f64)>,
    /// CDF of windowed fairness samples (Fig 7b).
    pub fairness_cdf: Vec<(f64, f64)>,
    /// SE samples in time order (Fig 4a).
    pub se_series: Vec<f64>,
    /// Fairness samples in time order (Fig 4b).
    pub fairness_series: Vec<f64>,
    /// Per-flow (size bytes, FCT ms) records for post-processing/CSV
    /// export (flows that started after warmup).
    pub flow_records: Vec<(u64, f64)>,
    /// The underlying collector (for CDFs/percentiles beyond the report).
    pub fct_collector: outran_metrics::FctCollector,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: SchedulerKind) -> ExperimentReport {
        Experiment::lte_default()
            .users(6)
            .load(0.4)
            .duration_secs(4)
            .scheduler(kind)
            .seed(3)
            .run()
    }

    #[test]
    fn experiment_produces_flows_and_metrics() {
        let r = tiny(SchedulerKind::Pf);
        assert!(r.fct.count > 5, "completed={}", r.fct.count);
        assert!(r.spectral_efficiency > 0.1);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0);
        assert!(r.completed as f64 / r.offered as f64 > 0.7);
    }

    #[test]
    fn deterministic_reports() {
        let a = tiny(SchedulerKind::OutRan);
        let b = tiny(SchedulerKind::OutRan);
        assert_eq!(a.fct.count, b.fct.count);
        assert_eq!(a.spectral_efficiency, b.spectral_efficiency);
    }

    #[test]
    fn capacity_is_sane() {
        let e = Experiment::lte_default();
        let c = e.capacity_bps();
        // 20 MHz LTE @256QAM: ~97-102 Mbps peak, mildly derated.
        assert!((6e7..1.0e8).contains(&c), "capacity={c}");
    }
}
