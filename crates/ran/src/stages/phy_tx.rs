//! Stage 4 — **PHY transmit**: channel evolution, HARQ and the air
//! interface.
//!
//! Owns the cell channel, the main simulation RNG and the per-UE HARQ
//! accounting. Each active TTI it serves the MAC allocation: pulls RLC
//! data per (UE, subband) transport-block group, draws HARQ/residual
//! errors, and emits the surviving payloads as an *ordered batch* of
//! [`AirDelivery`] messages for the delivery stage. Deferring delivery
//! out of the transmit loop is bit-identical to the former inline
//! delivery: this stage draws every random number, the delivery stage
//! draws none, and nothing the transmit loop reads (RLC tx entities,
//! channel state, HARQ queues) is mutated by delivery effects (receive
//! windows, TCP receivers, future-time ACK/STATUS events).

use crate::cell::CellPools;
use crate::config::CellConfig;
use crate::stages::{
    AirDelivery, HarqPayload, HousekeepingStage, ObserverHost, RlcTx, StageId, TtiRates, UeContext,
};
use outran_faults::ActiveFaults;
use outran_mac::Allocation;
use outran_phy::channel::CellChannel;
use outran_rlc::sdu::RlcSegment;
use outran_simcore::snap::{SnapError, SnapReader, SnapWriter};
use outran_simcore::{Dur, Rng, Time};

/// The PHY transmit stage (see module docs).
pub struct PhyTxStage {
    channel: CellChannel,
    rng: Rng,
    harq_wasted_tbs: u64,
    residual_losses: u64,
    harq_held_bytes: u64,
    dropped_bytes: u64,
    // Reusable per-TTI buffers (no per-tick allocation); drained or
    // rewritten inside every active TTI, never read across a boundary.
    group_bits: Vec<f64>,  // outran-lint: allow(S3) -- per-TTI scratch
    fresh_ok: Vec<bool>,   // outran-lint: allow(S3) -- per-TTI scratch
    segs: Vec<RlcSegment>, // outran-lint: allow(S3) -- per-TTI scratch
    transmitted: Vec<f64>, // outran-lint: allow(S3) -- per-TTI scratch
    delivered: Vec<f64>,   // outran-lint: allow(S3) -- per-TTI scratch
    deliveries: Vec<AirDelivery>,
}

impl PhyTxStage {
    /// Build the channel and fork the main simulation RNG from `root`.
    pub fn new(cfg: &CellConfig, root: &Rng) -> PhyTxStage {
        PhyTxStage {
            channel: CellChannel::new(cfg.channel, cfg.n_ues, root),
            rng: root.fork(0xCE11),
            harq_wasted_tbs: 0,
            residual_losses: 0,
            harq_held_bytes: 0,
            dropped_bytes: 0,
            // outran-lint: allow(D10) -- one-shot constructor (next 6 lines)
            group_bits: Vec::new(),
            fresh_ok: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
            segs: Vec::new(),     // outran-lint: allow(D10) -- one-shot constructor
            transmitted: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
            delivered: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
            deliveries: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
        }
    }

    /// Channel evolution (CQI staleness/corruption pushed first).
    /// `advance_to` composes any idle gap since the previous active TTI
    /// into one distribution-preserving jump; with no gap it is the
    /// plain per-TTI advance.
    pub fn advance_channel(&mut self, now: Time, n_ues: usize, faults: &ActiveFaults) {
        for ue in 0..n_ues {
            self.channel.set_cqi_frozen(ue, faults.cqi_frozen(ue));
            self.channel.set_cqi_corrupt(ue, faults.cqi_corrupted(ue));
        }
        self.channel.advance_to(now);
    }

    /// Serve the allocation: pull RLC data per (UE, subband) group, draw
    /// HARQ/residual errors, and append surviving payloads to the
    /// delivery batch in transmission order.
    ///
    /// Two air-interface error models are supported:
    /// * **folded HARQ** (default, `cfg.harq = None`): a failed TB is
    ///   never pulled from RLC — retransmission happens implicitly when
    ///   the data is re-served later (wasted airtime, added delay);
    /// * **explicit HARQ** (`cfg.harq = Some(..)`): failed TBs carry
    ///   their payload into per-UE HARQ processes, are retransmitted
    ///   after the HARQ RTT with chase-combining gain, and are dropped
    ///   to the residual-loss path after `max_tx` attempts. Due
    ///   retransmissions are served ahead of fresh data.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit(
        &mut self,
        now: Time,
        tti: Dur,
        cfg: &CellConfig,
        alloc: &Allocation,
        rates: &TtiRates,
        ues: &mut [UeContext],
        hk: &mut HousekeepingStage,
        pools: &mut CellPools,
        obs: &mut ObserverHost,
    ) {
        let n_ues = cfg.n_ues;
        let n_sb = cfg.channel.n_subbands;
        let group_bits = &mut self.group_bits;
        group_bits.clear();
        group_bits.resize(n_ues * n_sb, 0.0);
        for (rb, assigned) in alloc.rb_to_ue.iter().enumerate() {
            if let Some(ue) = assigned {
                let u = *ue as usize;
                let sb = rates.rb_to_sb[rb];
                group_bits[u * n_sb + sb] += rates.per_ue_sb[u * n_sb + sb];
            }
        }
        self.transmitted.clear();
        self.transmitted.resize(n_ues, 0.0);
        self.delivered.clear();
        self.delivered.resize(n_ues, 0.0);
        let explicit_harq = cfg.harq.is_some();
        // A loss-spike window adds to the configured residual loss.
        let eff_loss = (cfg.residual_loss + hk.faults().extra_loss).min(1.0);
        let spiking = hk.faults().extra_loss > 0.0;
        for (ue, ctx) in ues.iter_mut().enumerate() {
            if explicit_harq {
                // Serve due HARQ retransmissions ahead of fresh data,
                // drawing on the UE's *whole* TTI grant (a retransmitted
                // TB is not tied to the subband split of this TTI).
                let mut total: f64 = (0..n_sb).map(|sb| group_bits[ue * n_sb + sb]).sum();
                while let Some(tb) = ctx.harq.pop_due(now, total) {
                    total -= tb.bits;
                    self.transmitted[ue] += tb.bits;
                    // Charge the airtime against the fullest groups.
                    let mut owed = tb.bits;
                    while owed > 0.0 {
                        let Some(max_sb) = (0..n_sb)
                            .max_by(|&a, &b| {
                                group_bits[ue * n_sb + a].total_cmp(&group_bits[ue * n_sb + b])
                            })
                            .filter(|&sb| group_bits[ue * n_sb + sb] > 0.0)
                        else {
                            break;
                        };
                        let take = owed.min(group_bits[ue * n_sb + max_sb]);
                        group_bits[ue * n_sb + max_sb] -= take;
                        owed -= take;
                    }
                    let gain = tb.combining_gain_db(ctx.harq.config());
                    // Retransmissions frequency-hop (as LTE HARQ does),
                    // decorrelating the retry from the fade that killed
                    // the original transmission.
                    let sb = (tb.subband + tb.attempts as usize) % n_sb;
                    let pb = tb.payload.bytes;
                    if self.channel.transmission_succeeds_with_gain(ue, sb, gain) {
                        self.delivered[ue] += tb.bits;
                        self.harq_held_bytes -= pb;
                        self.deliveries.push(AirDelivery::Harq {
                            ue,
                            payload: tb.payload,
                        });
                    } else if let Some(payload) = ctx.harq.on_failure(tb, now, tti) {
                        // Block exhausted its attempts: the payload is
                        // lost to the upper layers; its buffer recycles.
                        self.residual_losses += 1;
                        self.harq_held_bytes -= pb;
                        self.dropped_bytes += pb;
                        pools.put_payload(payload);
                    }
                }
            }
            // Fresh transmissions: outcomes for the whole UE are drawn in
            // one batched channel pass (after the HARQ retransmissions
            // above, which share the UE's RNG stream, and after they have
            // charged their airtime against `group_bits`). Draw order is
            // identical to per-subband calls inside the loop below.
            self.fresh_ok.clear();
            self.fresh_ok.resize(n_sb, false);
            self.channel.fresh_outcomes(
                ue,
                &group_bits[ue * n_sb..(ue + 1) * n_sb],
                8.0,
                &mut self.fresh_ok,
            );
            for sb in 0..n_sb {
                let bits = group_bits[ue * n_sb + sb];
                if bits < 8.0 {
                    continue;
                }
                let budget_bits = bits;
                // Fresh transmission (pre-drawn above).
                let fresh_ok = self.fresh_ok[sb];
                if !explicit_harq && !fresh_ok {
                    // Folded model: the TB would need retransmission; we
                    // model it as wasted airtime with the data left queued.
                    self.harq_wasted_tbs += 1;
                    continue;
                }
                let budget = (budget_bits / 8.0).floor() as u64;
                match &mut ctx.rlc_tx {
                    RlcTx::Um(um) => {
                        self.segs.clear();
                        obs.enter(StageId::RlcDown);
                        let used = um.pull_into(&mut self.segs, budget);
                        obs.exit(StageId::RlcDown);
                        if self.segs.is_empty() {
                            continue;
                        }
                        self.transmitted[ue] += used as f64 * 8.0;
                        if !fresh_ok {
                            // Explicit HARQ: the whole TB awaits retx.
                            self.harq_wasted_tbs += 1;
                            // The segment buffer travels into the HARQ
                            // process; the scratch slot is refilled from
                            // the pool so the next pull reuses capacity.
                            let segs = std::mem::replace(&mut self.segs, pools.segs.take());
                            let payload = HarqPayload::um(segs);
                            let pb = payload.bytes;
                            if let Some(payload) = ctx.harq.on_failure(
                                outran_phy::harq::HarqTb {
                                    payload,
                                    bits: used as f64 * 8.0,
                                    subband: sb,
                                    attempts: 1,
                                },
                                now,
                                tti,
                            ) {
                                self.residual_losses += 1;
                                self.dropped_bytes += pb;
                                pools.put_payload(payload);
                            } else {
                                self.harq_held_bytes += pb;
                            }
                            continue;
                        }
                        for seg in self.segs.drain(..) {
                            // Residual (post-HARQ) loss is per segment:
                            // isolated holes that fast retransmit can
                            // repair, not whole-TB burst losses.
                            if self.rng.chance(eff_loss) {
                                self.residual_losses += 1;
                                self.dropped_bytes += seg.len as u64;
                                if spiking {
                                    hk.note_spiked_loss();
                                }
                                continue;
                            }
                            self.delivered[ue] += seg.len as f64 * 8.0;
                            self.deliveries.push(AirDelivery::UmSeg { ue, seg });
                        }
                    }
                    RlcTx::Am(am) => {
                        let mut pdus = pools.pdus.take();
                        obs.enter(StageId::RlcDown);
                        let (_ctrl, used) = am.pull_into(&mut pdus, budget, now);
                        obs.exit(StageId::RlcDown);
                        if used == 0 {
                            pools.pdus.put(pdus);
                            continue;
                        }
                        self.transmitted[ue] += used as f64 * 8.0;
                        if !fresh_ok {
                            self.harq_wasted_tbs += 1;
                            if let Some(payload) = ctx.harq.on_failure(
                                outran_phy::harq::HarqTb {
                                    payload: HarqPayload::am(pdus),
                                    bits: used as f64 * 8.0,
                                    subband: sb,
                                    attempts: 1,
                                },
                                now,
                                tti,
                            ) {
                                // AM recovers via NACK once the poll
                                // machinery notices the gap.
                                self.residual_losses += 1;
                                pools.put_payload(payload);
                            }
                            continue;
                        }
                        if self.rng.chance(eff_loss) {
                            self.residual_losses += 1;
                            if spiking {
                                hk.note_spiked_loss();
                            }
                            // PDUs lost; AM will NACK-recover. The
                            // buffer itself recycles.
                            pools.pdus.put(pdus);
                            continue;
                        }
                        self.delivered[ue] += used as f64 * 8.0;
                        self.deliveries.push(AirDelivery::AmPdus { ue, pdus });
                    }
                }
            }
        }
    }

    /// Hand over this TTI's ordered delivery batch (allocation is
    /// returned via [`PhyTxStage::restore_deliveries`] for reuse).
    pub fn take_deliveries(&mut self) -> Vec<AirDelivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Return the drained batch vector so its allocation is reused.
    pub fn restore_deliveries(&mut self, mut batch: Vec<AirDelivery>) {
        batch.clear();
        self.deliveries = batch;
    }

    /// Book a reestablishment flush of `bytes` held in HARQ processes
    /// (housekeeping clears the queues; the ledger terms live here).
    pub fn forget_harq(&mut self, bytes: u64) {
        self.harq_held_bytes -= bytes;
        self.dropped_bytes += bytes;
    }

    /// The PHY channel (read-only).
    pub fn channel(&self) -> &CellChannel {
        &self.channel
    }

    /// Network-layer geometry push for one UE slot (external-geometry
    /// mode): serving-site distance, shadowing and interference-plus-
    /// noise (see [`CellChannel::set_ue_geometry`]).
    pub fn set_ue_geometry(&mut self, ue: usize, dist_m: f64, shadow_db: f64, iplusn_dbm: f64) {
        self.channel
            .set_ue_geometry(ue, dist_m, shadow_db, iplusn_dbm);
    }

    /// Epoch-boundary interference update for one UE slot (see
    /// [`CellChannel::set_ue_iplusn`]).
    pub fn set_ue_iplusn(&mut self, ue: usize, iplusn_dbm: f64) {
        self.channel.set_ue_iplusn(ue, iplusn_dbm);
    }

    /// Park UE slot `ue` (see [`CellChannel::park`]).
    pub fn park(&mut self, ue: usize) {
        self.channel.park(ue);
    }

    /// Catch up and unpark UE slot `ue` (see [`CellChannel::unpark`]).
    pub fn unpark(&mut self, ue: usize) {
        self.channel.unpark(ue);
    }

    /// Re-prime CQI reports after an external geometry push (see
    /// [`CellChannel::reprime_reports`]).
    pub fn reprime_reports(&mut self) {
        self.channel.reprime_reports();
    }

    /// Per-UE bits put on the air this TTI.
    pub fn transmitted(&self) -> &[f64] {
        &self.transmitted
    }

    /// Per-UE bits that survived the air interface this TTI.
    pub fn delivered(&self) -> &[f64] {
        &self.delivered
    }

    /// Transport blocks wasted by (HARQ-recovered) errors.
    pub fn harq_wasted_tbs(&self) -> u64 {
        self.harq_wasted_tbs
    }

    /// Residual-loss events.
    pub fn residual_losses(&self) -> u64 {
        self.residual_losses
    }

    /// Bytes currently held in HARQ processes (ledger term).
    pub fn harq_held_bytes(&self) -> u64 {
        self.harq_held_bytes
    }

    /// Bytes terminally dropped at the air interface (ledger term).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Serialize the stage (checkpointing): the full channel state, the
    /// main simulation RNG and the air-interface counters. The per-TTI
    /// scratch buffers (`group_bits`, `segs`, `transmitted`, `delivered`,
    /// `deliveries`) are drained/rewritten inside every active TTI and
    /// never read across a TTI boundary, so they are not written.
    pub fn snap(&self, w: &mut SnapWriter) {
        debug_assert!(
            self.deliveries.is_empty(),
            "checkpointing mid-TTI: delivery batch not drained"
        );
        self.channel.snap(w);
        self.rng.snap(w);
        w.u64(self.harq_wasted_tbs);
        w.u64(self.residual_losses);
        w.u64(self.harq_held_bytes);
        w.u64(self.dropped_bytes);
    }

    /// Restore from [`PhyTxStage::snap`] output. The scratch buffers are
    /// left empty, matching the between-TTI state at snapshot time.
    pub fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.channel.load_snap(r)?;
        self.rng = Rng::unsnap(r)?;
        self.harq_wasted_tbs = r.u64()?;
        self.residual_losses = r.u64()?;
        self.harq_held_bytes = r.u64()?;
        self.dropped_bytes = r.u64()?;
        Ok(())
    }
}
