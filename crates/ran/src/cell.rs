//! The single-cell end-to-end simulator — now a thin orchestrator over
//! the staged per-TTI pipeline in [`crate::stages`].
//!
//! One [`Cell`] owns the full downlink path of Figure 11(b):
//!
//! * **Server side** — one TCP sender per flow (Cubic), emitting
//!   segments that reach the xNodeB after the wired CN delay
//!   ([`crate::stages::IngressStage`]);
//! * **xNodeB** — per-UE PDCP flow table (MLFQ marking), per-UE RLC
//!   entity ([`crate::stages::RlcDownStage`]), and a MAC
//!   scheduler invoked every TTI over the PHY channel's per-RB rates
//!   ([`crate::stages::MacSchedStage`]);
//! * **Air interface** — per-(UE, subband) transport-block error draws
//!   ([`crate::stages::PhyTxStage`]);
//! * **UE side** — RLC reassembly, per-flow TCP receiver, cumulative
//!   ACKs returning over the uplink delay
//!   ([`crate::stages::DeliveryStage`]);
//! * **Maintenance** — fault edges, invariant audits, RLC timers and GC
//!   ([`crate::stages::HousekeepingStage`]).
//!
//! Stages own disjoint slices of the former monolith's state and talk
//! only through the typed messages in [`crate::stages`]; the `Cell`
//! sequences them. All randomness is forked from one seed: equal seeds
//! ⇒ identical runs.

pub use crate::config::{CellConfig, FlowDone, GbrBearer, RlcMode, SchedulerKind};

use crate::stages::{
    DeliveryStage, HousekeepingStage, IngressStage, MacSchedStage, ObserverHost, PhyTxStage,
    RlcDownStage, RlcRx, RlcTx, StageId, StageObserver, TtiSummary, UeContext,
};
use outran_faults::{AuditSnapshot, ByteLedger, FaultStats, InvariantAuditor, Violation};
use outran_metrics::{CellMetrics, FctCollector};
use outran_pdcp::FiveTuple;
use outran_rlc::am::AmPdu;
use outran_rlc::sdu::RlcSegment;
use outran_simcore::snap::{SnapError, SnapReader, SnapWriter};
use outran_simcore::{Dur, PoolStats, Rng, Time, VecPool};

use crate::stages::HarqData;

/// Recycled payload-buffer pools threaded through the PHY-transmit and
/// delivery stages each TTI.
///
/// Pools are *runtime machinery*, not simulation state: their contents
/// never influence an outcome (a pooled `Vec` and a fresh one behave
/// identically), so they are never serialized and are rebuilt on
/// [`Cell::load_snap`] (construct-then-overlay). Each pool is
/// pre-populated with [`CellPools::PREWARM`] zero-capacity buffers at
/// construction, so a take only misses when more payloads are
/// simultaneously in flight (held by HARQ) than the arena was sized
/// for; buffer *capacity* still grows organically during warmup. In
/// steady state these paths perform zero heap allocations — `misses`
/// never advances, which the bench harness enforces (the `pooled`
/// section of `BENCH_2.json`).
pub struct CellPools {
    /// UM HARQ transport-block payloads (`Vec<RlcSegment>`).
    pub segs: VecPool<RlcSegment>,
    /// AM transport-block payloads (`Vec<AmPdu>`).
    pub pdus: VecPool<AmPdu>,
}

impl Default for CellPools {
    fn default() -> CellPools {
        CellPools::new()
    }
}

impl CellPools {
    /// Buffers pre-populated per pool at construction. Bounds the
    /// number of payloads simultaneously held by HARQ across all UEs;
    /// the throughput bench's steady-state miss gate is the audit that
    /// this is sized right (observed peaks are ~50 under 16 UEs at 5%
    /// residual loss).
    pub const PREWARM: usize = 256;

    /// Fresh pools, each pre-populated with [`CellPools::PREWARM`]
    /// zero-capacity buffers (prewarming is not traffic: counters
    /// start at zero).
    pub fn new() -> CellPools {
        let mut segs = VecPool::new();
        let mut pdus = VecPool::new();
        segs.prewarm(CellPools::PREWARM);
        pdus.prewarm(CellPools::PREWARM);
        CellPools { segs, pdus }
    }

    /// Return a HARQ payload's buffer to its pool of origin.
    pub fn put_payload(&mut self, payload: crate::stages::HarqPayload) {
        match payload.data {
            HarqData::Um(segs) => self.segs.put(segs),
            HarqData::Am(pdus) => self.pdus.put(pdus),
        }
    }

    /// Merged hit/miss/high-water counters across both pools.
    pub fn stats(&self) -> PoolStats {
        let mut s = self.segs.stats();
        s.merge(&self.pdus.stats());
        s
    }

    /// Bytes parked in free lists (resident-memory accounting).
    pub fn retained_bytes(&self) -> usize {
        self.segs.retained_bytes() + self.pdus.retained_bytes()
    }
}

/// One interrupted flow travelling with a handover: the undelivered
/// tail restarts at the target cell as a continuation flow keyed by the
/// original five-tuple.
#[derive(Debug, Clone)]
pub struct HandoverFlow {
    /// The flow's five-tuple at the source (kept verbatim at the target
    /// so imported PDCP state keys onto the continuation).
    pub tuple: FiveTuple,
    /// Bytes not yet cumulatively ACKed at detach — the continuation size.
    pub remaining: u64,
    /// Original flow size in bytes (for FCT attribution at the network).
    pub size: u64,
    /// Original server-side spawn instant.
    pub spawn: Time,
    /// Flow index inside the source cell (origin-chain bookkeeping).
    pub src_flow: usize,
}

/// Everything that travels from source to target at a handover: the
/// PDCP flow state (§7) and the interrupted flows' tails.
#[derive(Debug, Clone, Default)]
pub struct HandoverExport {
    /// Exported PDCP per-flow state (five-tuple → MLFQ sent-bytes).
    pub pdcp: Vec<(FiveTuple, u64)>,
    /// Interrupted flows, in source flow-index order.
    pub flows: Vec<HandoverFlow>,
}

/// The single-cell simulator: the orchestrator of the staged pipeline.
pub struct Cell {
    cfg: CellConfig,
    now: Time,
    tti: Dur,
    /// Per-UE contexts shared across stages (flow table, RLC, HARQ).
    ues: Vec<UeContext>,
    ingress: IngressStage,
    rlc_down: RlcDownStage,
    mac: MacSchedStage,
    phy: PhyTxStage,
    delivery: DeliveryStage,
    hk: HousekeepingStage,
    /// Recycled payload buffers (runtime machinery, never snapshotted).
    pools: CellPools,
    /// Optional structural pipeline observer (see [`crate::stages`]).
    observer: ObserverHost,
    /// One-way air latency of delivered GBR packets (ms).
    pub gbr_latency: outran_simcore::Percentiles,
    /// FCT statistics.
    pub fct: FctCollector,
    /// Cell-level telemetry.
    pub metrics: CellMetrics,
    /// TTIs in which the cell had no work to do. Idle TTIs run O(1)
    /// accounting and draw no randomness in *both* stepping modes (see
    /// DESIGN.md "Virtual-time skipping").
    pub idle_ttis: u64,
    /// Idle TTIs crossed in one [`Cell::fast_forward`] jump instead of
    /// being stepped individually (event-driven mode only; always 0
    /// under [`Cell::run_until_dense`]).
    pub skipped_ttis: u64,
    /// Idle TTIs accrued since the last active one, not yet folded into
    /// the scheduler's averages (applied as one composed `on_idle` at
    /// the next active TTI — identically in both stepping modes).
    pending_idle: u64,
    /// Cumulative RBs granted by the MAC across the whole run. The
    /// network layer diffs this at epoch barriers to derive the cell's
    /// published PRB utilization (X2 load exchange); idle TTIs use zero
    /// RBs, so no idle-path accounting is needed.
    used_rbs_cum: u64,
}

impl Cell {
    /// Build a cell from its configuration.
    pub fn new(cfg: CellConfig) -> Cell {
        let root = Rng::new(cfg.seed);
        let tti = cfg.channel.radio.tti();
        let bandwidth_hz = cfg.channel.radio.bandwidth_khz as f64 * 1e3;
        Cell {
            now: Time::ZERO,
            tti,
            ues: UeContext::build_all(&cfg),
            ingress: IngressStage::new(),
            rlc_down: RlcDownStage::new(&cfg),
            mac: MacSchedStage::new(&cfg, tti),
            phy: PhyTxStage::new(&cfg, &root),
            delivery: DeliveryStage::new(),
            pools: CellPools::new(),
            hk: HousekeepingStage::new(&cfg, &root),
            observer: ObserverHost::default(),
            gbr_latency: outran_simcore::Percentiles::new(),
            fct: FctCollector::new(),
            metrics: CellMetrics::new(bandwidth_hz, cfg.n_ues, tti, 50, cfg.tf),
            idle_ttis: 0,
            skipped_ttis: 0,
            pending_idle: 0,
            used_rbs_cum: 0,
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// TTI length in force.
    pub fn tti(&self) -> Dur {
        self.tti
    }

    /// Configuration (read-only).
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Register a flow of `bytes` toward `ue`, starting at the server at
    /// `at` (≥ now). `conn` groups flows onto a shared five-tuple (QUIC
    /// multiplexing, §4.2 limitation); `None` gives the flow its own.
    /// A parked slot is unparked: a slot with traffic is never parked.
    pub fn schedule_flow(&mut self, at: Time, ue: usize, bytes: u64, conn: Option<u64>) -> usize {
        assert!(ue < self.cfg.n_ues);
        assert!(bytes > 0);
        self.phy.unpark(ue);
        self.ingress
            .schedule_flow(self.now, self.tti, &self.cfg, at, ue, bytes, conn)
    }

    /// Attach a dedicated GBR bearer (semi-persistent grants, outside
    /// the dynamic scheduler) — the Conversational class of Table 1.
    pub fn add_gbr_bearer(&mut self, bearer: GbrBearer) {
        assert!(bearer.ue < self.cfg.n_ues);
        assert!(bearer.pkt_bytes > 0 && bearer.interval > Dur::ZERO);
        self.phy.unpark(bearer.ue);
        self.mac.add_gbr_bearer(self.now, bearer);
    }

    /// Drain completed-flow records accumulated since the last call.
    pub fn take_completions(&mut self) -> Vec<FlowDone> {
        self.delivery.take_completions()
    }

    /// Advance the simulation until `t`, event-driven: dense per-TTI
    /// stepping while any work is pending, one [`Cell::fast_forward`]
    /// jump across every provably idle span. Ends on the same TTI-grid
    /// point, with bit-identical state, as [`Cell::run_until_dense`].
    pub fn run_until(&mut self, t: Time) {
        while self.now < t {
            let na = self.next_activity_time();
            let limit = if na < t { na } else { t };
            // Every TTI ending strictly before `limit` is provably
            // idle: skip them in one jump, then step the TTI that
            // contains `limit` (step() re-checks, so an over-estimate
            // merely lands on another idle tick).
            let skip = limit.since(self.now).as_nanos().saturating_sub(1) / self.tti.as_nanos();
            if skip > 0 {
                self.fast_forward(self.now + Dur(self.tti.as_nanos() * skip));
            }
            self.step();
        }
    }

    /// Advance the simulation until `t` by stepping every TTI — the
    /// pre-event-driven loop, kept as the reference arm for equivalence
    /// tests and the dense side of the idle-heavy benchmark.
    pub fn run_until_dense(&mut self, t: Time) {
        while self.now < t {
            self.step();
        }
    }

    /// Advance one TTI. An idle TTI — no due event, no queued or
    /// in-flight data anywhere, no GBR grant or fault edge due — does
    /// O(1) accounting and draws no randomness; an active TTI runs the
    /// full stage pipeline. Dense and event-driven runs share this entry
    /// point, so they execute identical work at identical instants.
    pub fn step(&mut self) {
        self.now += self.tti;
        if self.has_work_at(self.now) {
            self.active_step();
        } else {
            self.idle_accrue(1);
        }
    }

    /// Whether any subsystem has (or may have) work at instant `now`,
    /// the end of the current TTI. `false` certifies that the full
    /// pipeline would be a no-op apart from O(1) accounting.
    fn has_work_at(&self, now: Time) -> bool {
        if self.ingress.open_flows() > 0 {
            // A started flow owns in-flight packets, queued data or a
            // pending RTO; conservatively treat it as work every TTI so
            // the RTO/watchdog scans run exactly as in dense stepping.
            return true;
        }
        if let Some(t) = self.ingress.peek_event_time() {
            if t <= now {
                return true;
            }
        }
        if let Some(e) = self.hk.next_fault_edge() {
            if e <= now {
                return true;
            }
        }
        if self.mac.gbr_has_work(now) {
            return true;
        }
        self.ues.iter().any(|ctx| ctx.has_radio_work())
    }

    /// Earliest instant at which the cell may next have work to do.
    ///
    /// Returns `now` while anything is pending; otherwise the minimum
    /// over the processes that can create work out of quiet: the event
    /// queue's head, the next GBR packet generation and the next
    /// fault-window edge. CQI reports and mobility are deliberately
    /// *not* activity sources — the channel freezes across idle spans
    /// in both stepping modes and is composed lazily on wake (DESIGN.md
    /// "Virtual-time skipping"). Never later than the first TTI at
    /// which dense stepping would do work; `Time(u64::MAX)` when no
    /// future work can arise.
    pub fn next_activity_time(&self) -> Time {
        if self.has_work_at(self.now) {
            return self.now;
        }
        let mut next = Time(u64::MAX);
        if let Some(t) = self.ingress.peek_event_time() {
            next = next.min(t);
        }
        if let Some(t) = self.mac.next_gbr_gen() {
            next = next.min(t);
        }
        if let Some(e) = self.hk.next_fault_edge() {
            next = next.min(e);
        }
        next
    }

    /// Jump the clock across a span of idle TTIs in O(1). `to` must lie
    /// on the TTI grid strictly ahead of `now`, and every TTI ending at
    /// or before `to` must be idle (callers derive `to` from
    /// [`Cell::next_activity_time`]). Skipped TTIs draw no randomness
    /// in either stepping mode, so only integer accounting (and any
    /// crossed priority-reset periods) applies; fading and mobility are
    /// composed lazily by the next active TTI's channel advance.
    pub fn fast_forward(&mut self, to: Time) {
        debug_assert!(to > self.now, "fast_forward must move forward");
        debug_assert_eq!(
            to.since(self.now).as_nanos() % self.tti.as_nanos(),
            0,
            "fast_forward target must be TTI-grid aligned"
        );
        let k = to.since(self.now).as_nanos() / self.tti.as_nanos();
        self.now = to;
        self.skipped_ttis += k;
        self.idle_accrue(k);
    }

    /// Book `k` idle TTIs ending at `now`: idle counters, the metrics
    /// wall-clock, and any priority-reset periods the span crossed.
    /// Yields the same state whether called once per idle TTI (dense)
    /// or once per skipped span (event-driven).
    fn idle_accrue(&mut self, k: u64) {
        self.idle_ttis += k;
        self.pending_idle += k;
        self.metrics.note_idle_ttis(k);
        self.hk.idle_reset_catch_up(self.now, &mut self.ues);
    }

    /// Attach a structural pipeline observer (replacing any previous
    /// one). The observer sees every stage bracket and an end-of-TTI
    /// [`TtiSummary`] on active TTIs — see [`crate::stages`].
    pub fn set_stage_observer(&mut self, obs: Box<dyn StageObserver + Send>) {
        self.observer.install(obs);
    }

    /// The full per-TTI pipeline (runs only on TTIs that have work):
    /// housekeeping (fault edges) → ingress → PHY (channel) → MAC →
    /// PHY (transmit) → delivery → housekeeping (timers, audit).
    fn active_step(&mut self) {
        let now = self.now;
        // Fold the idle span since the last active TTI into the
        // scheduler's long-term averages first, so this tick's `allocate`
        // sees the same decayed state a per-TTI zero-service update would
        // have produced.
        if self.pending_idle > 0 {
            let k = self.pending_idle;
            self.pending_idle = 0;
            self.mac.fold_idle(k);
        }
        self.hk.observe_clock(now);

        // Fault engine: flatten the plan at `now` and apply window
        // edges (flush on RLF/detach entry, capacity clamps, …).
        self.observer.enter(StageId::Housekeeping);
        self.hk
            .apply_fault_edges(now, &self.cfg, &mut self.ues, &mut self.phy);
        self.observer.exit(StageId::Housekeeping);

        // Ingress: event drain (arrivals, packets, ACKs, STATUS), RTO
        // scan, stalled-flow watchdog. Packets reaching the xNodeB
        // cross into the RLC-down stage.
        self.observer.enter(StageId::Ingress);
        self.ingress.run(
            now,
            &self.cfg,
            &mut self.ues,
            &mut self.rlc_down,
            &mut self.hk,
            &mut self.observer,
        );
        self.observer.exit(StageId::Ingress);

        // Channel evolution (CQI staleness/corruption pushed first).
        self.observer.enter(StageId::PhyTx);
        self.phy
            .advance_channel(now, self.cfg.n_ues, self.hk.faults());
        self.observer.exit(StageId::PhyTx);

        // Scheduler inputs — semi-persistent GBR grants are carved out
        // first, so the dynamic scheduler only sees the leftover RBs —
        // then RB allocation.
        self.observer.enter(StageId::MacSched);
        self.mac
            .refresh_rates(&self.cfg, self.phy.channel(), self.hk.faults());
        self.mac.serve_gbr(now, self.tti, &mut self.gbr_latency);
        self.mac.build_ue_inputs(
            now,
            &self.cfg,
            &self.ingress,
            self.hk.faults(),
            &mut self.ues,
        );
        let (alloc, used_rbs, total_rbs) = self.mac.allocate(now);
        self.hk.observe_rbs(now, used_rbs, total_rbs);
        self.used_rbs_cum += used_rbs as u64;
        self.observer.exit(StageId::MacSched);

        // Transmission: per-(UE, subband) transport-block groups, HARQ
        // and residual-error draws; survivors become the ordered
        // delivery batch.
        self.observer.enter(StageId::PhyTx);
        self.phy.transmit(
            now,
            self.tti,
            &self.cfg,
            &alloc,
            self.mac.rates(),
            &mut self.ues,
            &mut self.hk,
            &mut self.pools,
            &mut self.observer,
        );
        self.observer.exit(StageId::PhyTx);

        // Delivery: replay the batch into the UE stacks (reassembly,
        // TCP receive, completion recording).
        self.observer.enter(StageId::Delivery);
        let mut batch = self.phy.take_deliveries();
        self.delivery.run(
            now,
            &self.cfg,
            &mut batch,
            &mut self.ues,
            &mut self.ingress,
            &mut self.hk,
            &mut self.fct,
            &mut self.metrics,
            &mut self.pools,
        );
        self.phy.restore_deliveries(batch);
        self.observer.exit(StageId::Delivery);

        // Scheduler feedback and telemetry.
        self.observer.enter(StageId::MacSched);
        self.mac.on_served(self.phy.transmitted());
        self.observer.exit(StageId::MacSched);
        self.metrics
            .on_tti(self.phy.delivered(), self.mac.had_data());

        // Housekeeping: RLC timers, priority reset, flow-table GC and
        // the periodic invariant audit.
        self.observer.enter(StageId::Housekeeping);
        self.hk.timers_and_gc(now, &mut self.ues);
        if self.hk.audit_due() {
            let snap = self.audit_snapshot();
            self.hk.audit_check(now, &snap);
        }
        self.observer.exit(StageId::Housekeeping);

        if self.observer.is_active() {
            let summary = TtiSummary {
                used_rbs,
                total_rbs,
                delivered_bytes: self.delivery.delivered_bytes(),
                completed_flows: self.fct.count() as u64,
            };
            self.observer.on_tti(now, &summary);
        }
    }

    /// Assemble the full invariant snapshot from the stages' ledger
    /// terms. The byte ledger is exact in UM mode only: AM
    /// retransmissions would double-count, so AM runs audit queue
    /// depths and ordering but skip conservation.
    fn audit_snapshot(&self) -> AuditSnapshot {
        let queue_depths = self
            .ues
            .iter()
            .enumerate()
            .map(|(ue, ctx)| (ue, ctx.rlc_tx.len_sdus()))
            .collect();
        let queue_bound = self
            .ues
            .iter()
            .map(|ctx| ctx.rlc_tx.capacity_sdus())
            .max()
            .unwrap_or(self.cfg.buffer_sdus);
        let bytes = (self.cfg.rlc_mode == RlcMode::Um).then(|| {
            let queued: u64 = self
                .ues
                .iter()
                .map(|ctx| match &ctx.rlc_tx {
                    RlcTx::Um(um) => um.queued_bytes(),
                    RlcTx::Am(_) => 0,
                })
                .sum();
            let (held, discarded) = self
                .ues
                .iter()
                .map(|ctx| match &ctx.rlc_rx {
                    RlcRx::Um(um) => (um.held_bytes(), um.discarded_bytes),
                    RlcRx::Am(_) => (0, 0),
                })
                .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
            let dropped = self.ingress.dropped_bytes()
                + self.rlc_down.dropped_bytes()
                + self.phy.dropped_bytes()
                + self.hk.dropped_bytes();
            ByteLedger {
                injected: self.ingress.injected_bytes(),
                delivered: self.delivery.delivered_bytes(),
                dropped: dropped + discarded,
                in_flight: self.ingress.cn_in_flight_bytes()
                    + queued
                    + self.phy.harq_held_bytes()
                    + held,
            }
        });
        AuditSnapshot {
            bytes,
            queue_depths,
            queue_bound,
        }
    }

    /// Run the full invariant check right now (end-of-run hook) and
    /// return the total violation count so far.
    pub fn audit_now(&mut self) -> u64 {
        let snap = self.audit_snapshot();
        self.hk.audit_check(self.now, &snap);
        self.hk.auditor().total_violations()
    }

    /// Retained invariant violations, in observation order.
    pub fn violations(&self) -> &[Violation] {
        self.hk.auditor().violations()
    }

    /// Total invariant violations observed (including unretained ones).
    pub fn total_violations(&self) -> u64 {
        self.hk.auditor().total_violations()
    }

    /// The invariant auditor (checks run, cleanliness, …).
    pub fn auditor(&self) -> &InvariantAuditor {
        self.hk.auditor()
    }

    /// The current byte-conservation ledger (UM mode only).
    pub fn byte_ledger(&self) -> Option<ByteLedger> {
        self.audit_snapshot().bytes
    }

    /// Fault and recovery counters, merged with the live PHY/PDCP views.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.hk.counters();
        s.cqi_frozen_reports = self.phy.channel().cqi_frozen_reports();
        s.cqi_corrupted_reports = self.phy.channel().cqi_corrupted_reports();
        s.flows_evicted = self.ues.iter().map(|ctx| ctx.flow_table.evictions()).sum();
        s
    }

    /// Export one UE's PDCP flow state — the §7 handover path ("the flow
    /// state of a user can also be copied along with the data").
    pub fn export_flow_state(&self, ue: usize) -> Vec<(FiveTuple, u64)> {
        self.ues[ue].flow_table.export()
    }

    /// Import flow state captured from a source cell at handover.
    pub fn import_flow_state(&mut self, ue: usize, entries: &[(FiveTuple, u64)]) {
        self.ues[ue].flow_table.import(entries, self.now);
    }

    /// Cumulative RBs granted by the MAC so far (the X2 load term — see
    /// the field docs on `used_rbs_cum`).
    pub fn used_rbs_cum(&self) -> u64 {
        self.used_rbs_cum
    }

    /// Whether `ue`'s radio link is currently up (no RLF/detach window).
    pub fn ue_link_up(&self, ue: usize) -> bool {
        self.hk.faults().link_up(ue)
    }

    /// Network-layer geometry push for one UE slot (external-geometry
    /// mode only): serving-site distance, shadowing and I+N.
    pub fn set_ue_geometry(&mut self, ue: usize, dist_m: f64, shadow_db: f64, iplusn_dbm: f64) {
        self.phy.set_ue_geometry(ue, dist_m, shadow_db, iplusn_dbm);
    }

    /// Park vacant slot `ue`: its channel stops evolving every TTI and
    /// catches up exactly when next read or written (see
    /// [`outran_phy::channel::CellChannel::park`]). The slot must carry
    /// no traffic; scheduling a flow onto it, or attaching a UE to it,
    /// unparks it.
    pub(crate) fn park_slot(&mut self, ue: usize) {
        assert!(ue < self.cfg.n_ues);
        self.phy.park(ue);
    }

    /// The PHY channel (read-only).
    #[cfg(test)]
    pub(crate) fn channel(&self) -> &outran_phy::channel::CellChannel {
        self.phy.channel()
    }

    /// Re-prime CQI reports after the initial geometry push (see
    /// [`outran_phy::channel::CellChannel::reprime_reports`]).
    pub fn reprime_reports(&mut self) {
        self.phy.reprime_reports();
    }

    /// Detach `ue` from this cell at the epoch barrier (handover source
    /// side): every incomplete flow toward the UE is terminally aborted
    /// (the undelivered tail becomes a continuation flow at the target),
    /// the PDCP flow state is exported, and the RLC entities + HARQ are
    /// flushed through the same re-establishment the RLF machinery uses.
    /// The slot then carries no traffic, and the network layer parks it
    /// (`Cell::park_slot`): its channel keeps evolving lazily, and a
    /// future occupant finds it exactly as if it had never been parked.
    pub fn handover_detach(&mut self, ue: usize) -> HandoverExport {
        assert!(ue < self.cfg.n_ues);
        let mut flows = Vec::new();
        for fi in 0..self.ingress.n_flows() {
            if self.ingress.flow_ue(fi) != ue || self.ingress.flow_done(fi) {
                continue;
            }
            let remaining = self.ingress.abort_flow(fi);
            if remaining == 0 {
                continue;
            }
            flows.push(HandoverFlow {
                tuple: self.ingress.flow_tuple(fi),
                remaining,
                size: self.ingress.flow_size(fi),
                spawn: self.ingress.flow_spawn(fi),
                src_flow: fi,
            });
        }
        let pdcp = self.ues[ue].flow_table.export();
        self.ues[ue].flow_table.clear();
        self.ues[ue].flows.clear();
        self.hk
            .handover_reestablish(ue, &mut self.ues[ue], &mut self.phy);
        HandoverExport { pdcp, flows }
    }

    /// Attach a handed-over UE's state to slot `ue` (target side): import
    /// the PDCP flow state, then restart every interrupted flow as a
    /// continuation carrying its original five-tuple (so the imported
    /// MLFQ sent-bytes keep counting) sized at the undelivered tail.
    /// Returns the continuation flow indices, in `export.flows` order,
    /// so the caller can map completions back to flow origins. A parked
    /// slot is caught up and unparked first.
    pub fn handover_attach(&mut self, ue: usize, export: &HandoverExport) -> Vec<usize> {
        assert!(ue < self.cfg.n_ues);
        self.phy.unpark(ue);
        self.ues[ue].flow_table.import(&export.pdcp, self.now);
        let now = self.now;
        export
            .flows
            .iter()
            .map(|hf| {
                self.ingress.schedule_flow_with_tuple(
                    now,
                    self.tti,
                    &self.cfg,
                    now,
                    ue,
                    hf.remaining,
                    hf.tuple,
                )
            })
            .collect()
    }

    /// Total flows registered.
    pub fn n_flows(&self) -> usize {
        self.ingress.n_flows()
    }

    /// Number of completed flows.
    pub fn n_completed(&self) -> usize {
        self.ingress.n_completed()
    }

    /// Aggregate PDCP flow-table state bytes (Fig 13 memory accounting).
    pub fn flow_state_bytes(&self) -> usize {
        self.ues
            .iter()
            .map(|ctx| ctx.flow_table.state_bytes())
            .sum()
    }

    /// Total flow-table entries across UEs.
    pub fn flow_table_entries(&self) -> usize {
        self.ues.iter().map(|ctx| ctx.flow_table.len()).sum()
    }

    /// Total UM reassembly-window discards across UEs (the §4.4 hazard
    /// the segmented-SDU promotion guards against).
    pub fn reassembly_discards(&self) -> u64 {
        self.ues
            .iter()
            .map(|ctx| match &ctx.rlc_rx {
                RlcRx::Um(um) => um.discarded_sdus,
                RlcRx::Am(_) => 0,
            })
            .sum()
    }

    /// SDUs dropped at full RLC buffers.
    pub fn buffer_drops(&self) -> u64 {
        self.rlc_down.buffer_drops()
    }

    /// Transport blocks wasted by (HARQ-recovered) errors.
    pub fn harq_wasted_tbs(&self) -> u64 {
        self.phy.harq_wasted_tbs()
    }

    /// Residual-loss events (post-HARQ losses surfaced to TCP/RLC).
    pub fn residual_losses(&self) -> u64 {
        self.phy.residual_losses()
    }

    /// The most recent RTT observed by any flow of `ue` (Fig 17 ①).
    pub fn last_rtt_of_ue(&self, ue: usize) -> Option<Dur> {
        self.ingress.last_rtt_of_ue(ue)
    }

    /// Mean of the last RTT samples across flows (Fig 17 ①).
    pub fn mean_last_rtt_ms(&self) -> f64 {
        self.ingress.mean_last_rtt_ms()
    }

    /// HARQ retransmissions served across UEs (explicit-HARQ mode).
    #[doc(hidden)]
    pub fn harq_retx_served(&self) -> u64 {
        self.ues.iter().map(|ctx| ctx.harq.retx_served).sum()
    }

    /// Priority resets executed so far (`None` if no reset period).
    #[doc(hidden)]
    pub fn priority_resets(&self) -> Option<u64> {
        self.hk.priority_resets()
    }

    /// Merged payload-pool counters (hits/misses/returns/high-water).
    /// After warmup, `misses` must stop advancing — the zero-allocation
    /// steady-state invariant the bench gate enforces.
    pub fn pool_stats(&self) -> PoolStats {
        self.pools.stats()
    }

    /// Bytes parked in the payload pools' free lists.
    pub fn pool_retained_bytes(&self) -> usize {
        self.pools.retained_bytes()
    }

    /// Serialize the cell's full dynamic state (checkpointing): the
    /// clock, every per-UE context, all six pipeline stages and the
    /// collectors. The configuration and the TTI length are *not*
    /// written — restore is construct-then-overlay: build the cell from
    /// the identical [`CellConfig`], then [`Cell::load_snap`] the
    /// dynamic state on top. The pipeline observer is runtime-only
    /// wiring and does not travel.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.time(self.now);
        w.seq(self.ues.iter(), |w, u| u.snap(w));
        self.ingress.snap(w);
        self.rlc_down.snap(w);
        self.mac.snap(w);
        self.phy.snap(w);
        self.delivery.snap(w);
        self.hk.snap(w);
        self.gbr_latency.snap(w);
        self.fct.snap(w);
        self.metrics.snap(w);
        w.u64(self.idle_ttis);
        w.u64(self.skipped_ttis);
        w.u64(self.pending_idle);
        w.u64(self.used_rbs_cum);
    }

    /// Overlay checkpointed state from [`Cell::snap`] output onto a
    /// cell freshly built from the *same* configuration. After this, the
    /// cell continues bit-identically to the one that was snapshotted —
    /// in both dense and event-driven stepping.
    pub fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = r.time()?;
        let n_ues = r.usize()?;
        if n_ues != self.ues.len() {
            return Err(SnapError::Malformed(
                "UE count disagrees with configuration",
            ));
        }
        for ue in &mut self.ues {
            ue.load_snap(&self.cfg, r)?;
        }
        self.ingress.load_snap(&self.cfg, r)?;
        self.rlc_down.load_snap(r)?;
        self.mac.load_snap(r)?;
        self.phy.load_snap(r)?;
        self.delivery.load_snap(r)?;
        self.hk.load_snap(r)?;
        self.gbr_latency = outran_simcore::Percentiles::unsnap(r)?;
        self.fct = FctCollector::unsnap(r)?;
        self.metrics.load_snap(r)?;
        self.idle_ttis = r.u64()?;
        self.skipped_ttis = r.u64()?;
        self.pending_idle = r.u64()?;
        self.used_rbs_cum = r.u64()?;
        // Pools are runtime machinery: never serialized, rebuilt empty
        // here so a restored cell matches a freshly constructed one
        // (they re-warm identically; contents never affect outcomes).
        self.pools = CellPools::new();
        Ok(())
    }

    /// Diagnostics helper: dump stalled-flow state (for debugging only).
    #[doc(hidden)]
    pub fn debug_stall(&self) {
        self.ingress.debug_dump_stalled();
        for (u, ctx) in self.ues.iter().enumerate() {
            if !ctx.harq.is_empty() {
                println!(
                    "ue {u} harq pending {} retx_served {} dropped {}",
                    ctx.harq.len(),
                    ctx.harq.retx_served,
                    ctx.harq.dropped_tbs
                );
            }
        }
        for (u, ctx) in self.ues.iter().enumerate() {
            let q = match &ctx.rlc_tx {
                RlcTx::Um(um) => um.queued_bytes(),
                RlcTx::Am(am) => am.buffer_status().total(),
            };
            if q > 0 {
                println!("ue {u} rlc queued {q}");
            }
        }
    }
}
