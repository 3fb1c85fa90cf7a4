//! Multi-cell (Colosseum-style) experiment wrapper — Figure 19.
//!
//! The Colosseum runs use "a four-cell topology that consists of 4
//! eNodeBs and 16 UEs, where each eNodeB maintains 4 UEs" (§6.1). Cells
//! in those runs are on separate carriers, so we model them as
//! independent [`crate::cell::Cell`] instances with per-cell seeds and
//! merge the statistics. Coupled cells (shared geometry, interference,
//! handover) and supervised execution live in
//! [`crate::network::Network`].

use outran_metrics::{FctCollector, FctReport};
use outran_phy::Scenario;
use outran_simcore::{Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

use crate::cell::{Cell, CellConfig, SchedulerKind};
use crate::pool::parallel_map_eager;

/// A multi-cell experiment: `n_cells` independent cells, each with
/// `ues_per_cell` UEs on the given scenario.
#[derive(Debug, Clone)]
pub struct MultiCell {
    /// RF scenario for every cell.
    pub scenario: Scenario,
    /// Cells in the deployment.
    pub n_cells: usize,
    /// UEs attached per cell.
    pub ues_per_cell: usize,
    /// MAC scheduler under test.
    pub scheduler: SchedulerKind,
    /// Offered load per cell.
    pub load: f64,
    /// Flow-size distribution.
    pub dist: FlowSizeDist,
    /// Horizon per cell.
    pub duration: Time,
    /// Root seed; cell *i* runs with `seed + i`.
    pub seed: u64,
    /// Worker threads to shard cells across (1 = serial). The merged
    /// report is byte-identical for every value.
    pub threads: usize,
}

impl MultiCell {
    /// The Figure 19 topology: 4 cells × 4 UEs, LTE traffic distribution.
    pub fn colosseum(scenario: Scenario, scheduler: SchedulerKind, load: f64) -> MultiCell {
        MultiCell {
            scenario,
            n_cells: 4,
            ues_per_cell: 4,
            scheduler,
            load,
            dist: FlowSizeDist::LteCellular,
            duration: Time::from_secs(10),
            seed: 42,
            threads: 1,
        }
    }

    /// Build cell `c` with its flows scheduled (per-cell seed
    /// `self.seed + c`, own Poisson arrival stream).
    fn build_cell(&self, c: usize) -> Cell {
        let seed = self.seed + c as u64;
        let mut cfg = CellConfig::lte_default(self.ues_per_cell, self.scheduler, seed);
        cfg.channel = self.scenario.channel_config();
        let capacity = {
            let ch = &cfg.channel;
            ch.radio.peak_rate_bps(ch.table.peak_efficiency()) * 0.85
        };
        let mut cell = Cell::new(cfg);
        let mut gen = PoissonFlowGen::new(
            self.dist,
            self.load,
            capacity,
            self.ues_per_cell,
            Rng::new(seed ^ 0xC0105),
        );
        for a in gen.take_until(self.duration) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell
    }

    /// Run all cells and merge FCT statistics.
    ///
    /// Cells are sharded across up to [`MultiCell::threads`] workers and
    /// each runs to the end of its drain window in one go. Each cell
    /// evolves from its own seed and the merge walks cells in index
    /// order, so the report is byte-identical for any thread count.
    pub fn run(&self) -> FctReport {
        let end = Time(self.duration.0 + Time::from_secs(4).0);
        let cells: Vec<Cell> = (0..self.n_cells).map(|c| self.build_cell(c)).collect();
        let mut cells = parallel_map_eager(self.threads, cells, |mut cell| {
            cell.run_until(end);
            cell
        });
        let mut merged = FctCollector::new();
        for cell in &mut cells {
            for d in cell.take_completions() {
                merged.record(d.bytes, d.fct);
            }
        }
        merged.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colosseum_topology_runs() {
        let mut mc = MultiCell::colosseum(Scenario::ColosseumRome, SchedulerKind::Pf, 0.3);
        mc.duration = Time::from_secs(3);
        mc.n_cells = 2; // keep the unit test fast
        let r = mc.run();
        assert!(r.count > 5, "completed={}", r.count);
        assert!(r.overall_mean_ms > 0.0);
    }

    #[test]
    fn per_cell_seeds_differ() {
        let mut a = MultiCell::colosseum(Scenario::ColosseumPowder, SchedulerKind::Pf, 0.3);
        a.duration = Time::from_secs(3);
        a.n_cells = 1;
        let mut b = a.clone();
        b.seed += 1;
        let ra = a.run();
        let rb = b.run();
        assert_ne!(ra.overall_mean_ms, rb.overall_mean_ms);
    }
}
