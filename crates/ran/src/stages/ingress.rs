//! Stage 1 — **ingress**: the server/CN side of the pipeline.
//!
//! Owns the TCP endpoints, the discrete event queue (flow arrivals,
//! packet/ACK propagation, AM STATUS PDUs), the RTO and stalled-flow
//! watchdog scans, and the CN-side terms of the byte-conservation
//! ledger. Downlink packets that survive the CN link are handed to the
//! RLC-down stage as typed [`SduIngress`] messages; the delivery stage
//! hands reassembled SDUs back via [`IngressStage::accept_sdu`].

use crate::config::CellConfig;
use crate::stages::{
    HousekeepingStage, ObserverHost, RlcDownStage, SduIngress, StageId, UeContext,
};
use outran_pdcp::FiveTuple;
use outran_rlc::am::StatusPdu;
use outran_rlc::um::DeliveredSdu;
use outran_simcore::snap::{SnapError, SnapReader, SnapWriter};
use outran_simcore::{Dur, EventQueue, Time};
use outran_transport::{Segment, TcpReceiver, TcpSender};

/// A completed-flow record emitted by [`IngressStage::accept_sdu`]; the
/// delivery stage folds it into the cell's FCT collector.
pub use crate::config::FlowDone;

enum Ev {
    Arrival { flow: usize },
    PktAtEnb { flow: usize, seq: u64, len: u32 },
    AckAtServer { flow: usize, cum: u64 },
    StatusAtEnb { ue: usize, status: StatusPdu },
}

struct FlowRt {
    ue: usize,
    size: u64,
    spawn: Time,
    tuple: FiveTuple,
    sender: TcpSender,
    receiver: TcpReceiver,
    started: bool,
    done: bool,
    /// Watchdog state: highest cumulative ACK seen, and when it moved.
    last_cum: u64,
    last_progress: Time,
}

/// The ingress stage (see module docs).
pub struct IngressStage {
    flows: Vec<FlowRt>,
    events: EventQueue<Ev>,
    /// Ids of the started-but-incomplete flows, ascending. The per-TTI
    /// RTO and watchdog scans walk only these, and its length is the
    /// O(1) core of the idle test. Rebuilt from `flows` on restore.
    open: Vec<usize>,
    // CN-side byte-conservation ledger terms.
    injected_bytes: u64,
    cn_in_flight_bytes: u64,
    dropped_bytes: u64,
    emit_scratch: Vec<Segment>, // outran-lint: allow(S3) -- per-TTI scratch, drained before snap
}

impl IngressStage {
    /// Fresh stage with no flows.
    pub fn new() -> IngressStage {
        IngressStage {
            flows: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
            events: EventQueue::new(),
            open: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
            injected_bytes: 0,
            cn_in_flight_bytes: 0,
            dropped_bytes: 0,
            emit_scratch: Vec::new(), // outran-lint: allow(D10) -- one-shot constructor
        }
    }

    /// Register a flow of `bytes` toward `ue`, starting at the server at
    /// `at` (≥ now). `conn` groups flows onto a shared five-tuple.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_flow(
        &mut self,
        now: Time,
        tti: Dur,
        cfg: &CellConfig,
        at: Time,
        ue: usize,
        bytes: u64,
        conn: Option<u64>,
    ) -> usize {
        let id = self.flows.len();
        let tuple = match conn {
            Some(c) => FiveTuple::simulated(c, ue as u16),
            None => FiveTuple::simulated(1_000_000 + id as u64, ue as u16),
        };
        // The connection handshake already sampled one wired+air RTT.
        let handshake_rtt =
            Dur(2 * (cfg.cn_delay.as_nanos() + cfg.ul_air_delay.as_nanos()) + tti.as_nanos() * 4);
        self.flows.push(FlowRt {
            ue,
            size: bytes,
            spawn: at,
            tuple,
            sender: TcpSender::with_initial_rtt(cfg.tcp, bytes, handshake_rtt),
            receiver: TcpReceiver::new(bytes),
            started: false,
            done: false,
            last_cum: 0,
            last_progress: at,
        });
        self.events.schedule(at.max(now), Ev::Arrival { flow: id });
        id
    }

    /// Register a flow carrying an *explicit* five-tuple — the handover
    /// attach path: the continuation flow at the target cell must keep
    /// the tuple it had at the source so the imported PDCP state (MLFQ
    /// sent-bytes) keys onto it.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_flow_with_tuple(
        &mut self,
        now: Time,
        tti: Dur,
        cfg: &CellConfig,
        at: Time,
        ue: usize,
        bytes: u64,
        tuple: FiveTuple,
    ) -> usize {
        let id = self.schedule_flow(now, tti, cfg, at, ue, bytes, None);
        self.flows[id].tuple = tuple;
        id
    }

    /// Terminally abort flow `fi` (handover detach from the source cell):
    /// marks it done so no further server emission, delivery or ACK
    /// processing happens, and returns the bytes not yet cumulatively
    /// ACKed — the size of the continuation flow at the target. In-flight
    /// CN copies drain through the stale-packet path of the byte ledger.
    /// Returns 0 (and does nothing) if the flow already completed.
    pub fn abort_flow(&mut self, fi: usize) -> u64 {
        let f = &mut self.flows[fi];
        if f.done {
            return 0;
        }
        f.done = true;
        let remaining = f.size.saturating_sub(f.receiver.cum());
        if f.started {
            self.close(fi);
        }
        remaining
    }

    /// Per-TTI ingress pass: drain due events (arrivals, packets, ACKs,
    /// STATUS), then the RTO scan, then the stalled-flow watchdog. The
    /// CN link faults act here: an outage drops every traversing packet,
    /// a degrade window loses them with probability `cn_loss`. Packets
    /// that reach the xNodeB cross into the RLC-down stage (bracketed
    /// for the observer, since that work belongs to the RLC layer).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        rlc: &mut RlcDownStage,
        hk: &mut HousekeepingStage,
        obs: &mut ObserverHost,
    ) {
        // 1. Event processing.
        while let Some((_, ev)) = self.events.pop_due(now) {
            match ev {
                Ev::Arrival { flow } => {
                    // A flow aborted before its arrival fired (handover
                    // detach) must not open: `done` is terminal.
                    if !self.flows[flow].done {
                        self.flows[flow].started = true;
                        // Arrivals need not fire in id order (handover
                        // continuations), so insert in place.
                        if let Err(at) = self.open.binary_search(&flow) {
                            self.open.insert(at, flow);
                        }
                        self.server_emit(now, cfg, hk, flow);
                    }
                }
                Ev::PktAtEnb { flow, seq, len } => {
                    self.cn_in_flight_bytes -= len as u64;
                    if hk.cn_loses_packet() {
                        self.dropped_bytes += len as u64;
                        hk.note_cn_dropped_data(len as u64);
                    } else {
                        self.on_pkt_at_enb(now, ues, rlc, obs, flow, seq, len);
                    }
                }
                Ev::AckAtServer { flow, cum } => {
                    if hk.cn_loses_packet() {
                        hk.note_cn_dropped_ack();
                    } else {
                        let f = &mut self.flows[flow];
                        f.sender.on_ack(now, cum);
                        self.server_emit(now, cfg, hk, flow);
                    }
                }
                Ev::StatusAtEnb { ue, status } => {
                    obs.enter(StageId::RlcDown);
                    rlc.on_status(&mut ues[ue], &status);
                    obs.exit(StageId::RlcDown);
                }
            }
        }

        debug_assert!(self.open_is_consistent());

        // 2. RTO scan over the open flows, ascending id. Neither scan
        // opens or closes a flow, so `open` is stable while walked.
        for i in 0..self.open.len() {
            let flow = self.open[i];
            if let Some(deadline) = self.flows[flow].sender.rto_deadline() {
                if deadline <= now {
                    self.flows[flow].sender.on_rto(now);
                    self.server_emit(now, cfg, hk, flow);
                }
            }
        }

        // 2b. Stalled-flow watchdog: a started flow whose cumulative ACK
        // has not moved for the configured interval gets a forced TCP
        // timeout (go-back-N refill) — the recovery of last resort when
        // every in-flight copy of a segment was lost to faults.
        if let Some(stall) = cfg.watchdog {
            for i in 0..self.open.len() {
                let flow = self.open[i];
                let kick = {
                    let f = &mut self.flows[flow];
                    let cum = f.receiver.cum();
                    if cum > f.last_cum {
                        f.last_cum = cum;
                        f.last_progress = now;
                        false
                    } else {
                        now.saturating_since(f.last_progress) >= stall
                    }
                };
                if kick && hk.faults().link_up(self.flows[flow].ue) {
                    self.flows[flow].last_progress = now;
                    self.flows[flow].sender.on_rto(now);
                    hk.note_watchdog_kick();
                    self.server_emit(now, cfg, hk, flow);
                }
            }
        }
    }

    /// Let the server push whatever the flow's window allows.
    fn server_emit(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        hk: &mut HousekeepingStage,
        flow: usize,
    ) {
        // Emit into the recycled scratch buffer: no per-call allocation.
        let mut segs = std::mem::take(&mut self.emit_scratch);
        segs.clear();
        {
            let f = &mut self.flows[flow];
            if f.done {
                self.emit_scratch = segs;
                return;
            }
            f.sender.emit_into(now, &mut segs);
        }
        let delay = cfg.cn_delay + hk.cn_extra_delay();
        let degraded = hk.cn_extra_delay() > Dur::ZERO;
        for seg in segs.drain(..) {
            self.injected_bytes += seg.len as u64;
            self.cn_in_flight_bytes += seg.len as u64;
            if degraded {
                hk.note_cn_delayed_pkt();
            }
            self.events.schedule(
                now + delay,
                Ev::PktAtEnb {
                    flow,
                    seq: seg.seq,
                    len: seg.len,
                },
            );
        }
        self.emit_scratch = segs;
    }

    /// A downlink packet arrives at the xNodeB: cross into RLC-down.
    #[allow(clippy::too_many_arguments)]
    fn on_pkt_at_enb(
        &mut self,
        now: Time,
        ues: &mut [UeContext],
        rlc: &mut RlcDownStage,
        obs: &mut ObserverHost,
        flow: usize,
        seq: u64,
        len: u32,
    ) {
        let (ue, tuple, size) = {
            let f = &self.flows[flow];
            (f.ue, f.tuple, f.size)
        };
        if self.flows[flow].done {
            // Stale retransmission of a completed flow: terminal for the
            // byte ledger.
            self.dropped_bytes += len as u64;
            return;
        }
        let msg = SduIngress {
            flow,
            ue,
            tuple,
            seq,
            len,
            oracle_remaining: size.saturating_sub(seq),
        };
        obs.enter(StageId::RlcDown);
        rlc.ingest(now, msg, &mut ues[ue]);
        obs.exit(StageId::RlcDown);
    }

    /// Deliver one reassembled SDU into the flow's TCP receiver and
    /// schedule the cumulative ACK back to the server; returns the
    /// completion record when this SDU finished the flow.
    pub fn accept_sdu(&mut self, now: Time, ul_delay: Dur, d: &DeliveredSdu) -> Option<FlowDone> {
        let flow = d.flow_id as usize;
        let f = &mut self.flows[flow];
        if f.done {
            return None;
        }
        let cum = f.receiver.on_segment(d.seq, d.len);
        self.events
            .schedule(now + ul_delay, Ev::AckAtServer { flow, cum });
        if f.receiver.complete() {
            f.done = true;
            let done = FlowDone {
                id: flow,
                ue: f.ue,
                bytes: f.size,
                spawn: f.spawn,
                fct: now.saturating_since(f.spawn),
            };
            self.close(flow);
            return Some(done);
        }
        None
    }

    /// Drop a started flow that just became `done` from the open list.
    fn close(&mut self, flow: usize) {
        if let Ok(at) = self.open.binary_search(&flow) {
            self.open.remove(at);
        }
    }

    /// The open list is strictly ascending and holds exactly the
    /// started-but-incomplete flows.
    fn open_is_consistent(&self) -> bool {
        self.open.windows(2).all(|w| w[0] < w[1])
            && self
                .open
                .iter()
                .all(|&i| self.flows[i].started && !self.flows[i].done)
            && self.open.len() == self.flows.iter().filter(|f| f.started && !f.done).count()
    }

    /// Schedule an AM STATUS PDU's uplink arrival at the xNodeB.
    pub fn schedule_status(&mut self, at: Time, ue: usize, status: StatusPdu) {
        self.events.schedule(at, Ev::StatusAtEnb { ue, status });
    }

    // ---- read-side accessors ------------------------------------------

    /// Started-but-incomplete flow count.
    pub fn open_flows(&self) -> u64 {
        self.open.len() as u64
    }

    /// Instant of the earliest queued event, if any.
    pub fn peek_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Whether flow `fi` has completed.
    pub fn flow_done(&self, fi: usize) -> bool {
        self.flows[fi].done
    }

    /// Whether flow `fi` is short (≤ 10 kB — the QoS-oracle class).
    pub fn flow_is_short(&self, fi: usize) -> bool {
        self.flows[fi].size <= 10_000
    }

    /// Bytes of flow `fi` not yet cumulatively ACKed.
    pub fn flow_remaining(&self, fi: usize) -> u64 {
        let f = &self.flows[fi];
        f.size.saturating_sub(f.receiver.cum())
    }

    /// Destination UE of flow `fi`.
    pub fn flow_ue(&self, fi: usize) -> usize {
        self.flows[fi].ue
    }

    /// Total size of flow `fi` in bytes.
    pub fn flow_size(&self, fi: usize) -> u64 {
        self.flows[fi].size
    }

    /// Server-side spawn instant of flow `fi`.
    pub fn flow_spawn(&self, fi: usize) -> Time {
        self.flows[fi].spawn
    }

    /// Five-tuple of flow `fi`.
    pub fn flow_tuple(&self, fi: usize) -> FiveTuple {
        self.flows[fi].tuple
    }

    /// Bytes of flow `fi` cumulatively ACKed so far.
    pub fn flow_cum(&self, fi: usize) -> u64 {
        self.flows[fi].receiver.cum()
    }

    /// Whether flow `fi`'s arrival has fired at the server.
    pub fn flow_started(&self, fi: usize) -> bool {
        self.flows[fi].started
    }

    /// Total flows registered.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of completed flows.
    pub fn n_completed(&self) -> usize {
        self.flows.iter().filter(|f| f.done).count()
    }

    /// The most recent RTT observed by any flow of `ue`.
    pub fn last_rtt_of_ue(&self, ue: usize) -> Option<Dur> {
        self.flows
            .iter()
            .filter(|f| f.ue == ue)
            .filter_map(|f| f.sender.last_rtt)
            .next_back()
    }

    /// Mean of the last RTT samples across flows.
    pub fn mean_last_rtt_ms(&self) -> f64 {
        let rtts: Vec<f64> = self
            .flows
            .iter()
            .filter_map(|f| f.sender.last_rtt)
            .map(|d| d.as_millis_f64())
            .collect();
        if rtts.is_empty() {
            f64::NAN
        } else {
            rtts.iter().sum::<f64>() / rtts.len() as f64
        }
    }

    /// Bytes injected by the servers (byte-conservation ledger term).
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Bytes currently traversing the CN link (ledger term).
    pub fn cn_in_flight_bytes(&self) -> u64 {
        self.cn_in_flight_bytes
    }

    /// Bytes terminally dropped at ingress (CN loss, stale packets).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Serialize the stage (checkpointing): every flow's TCP endpoints
    /// and watchdog state plus the discrete event queue (the queue's
    /// sequence counter travels too, so restored tie-breaking is exact).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.flows.iter(), |w, f| {
            w.usize(f.ue);
            w.u64(f.size);
            w.time(f.spawn);
            f.tuple.snap(w);
            f.sender.snap(w);
            f.receiver.snap(w);
            w.bool(f.started);
            w.bool(f.done);
            w.u64(f.last_cum);
            w.time(f.last_progress);
        });
        self.events.snap_with(w, |w, ev| match ev {
            Ev::Arrival { flow } => {
                w.u8(0);
                w.usize(*flow);
            }
            Ev::PktAtEnb { flow, seq, len } => {
                w.u8(1);
                w.usize(*flow);
                w.u64(*seq);
                w.u32(*len);
            }
            Ev::AckAtServer { flow, cum } => {
                w.u8(2);
                w.usize(*flow);
                w.u64(*cum);
            }
            Ev::StatusAtEnb { ue, status } => {
                w.u8(3);
                w.usize(*ue);
                status.snap(w);
            }
        });
        w.u64(self.open.len() as u64);
        w.u64(self.injected_bytes);
        w.u64(self.cn_in_flight_bytes);
        w.u64(self.dropped_bytes);
    }

    /// Restore from [`IngressStage::snap`] output. TCP senders are
    /// rebuilt against `cfg.tcp` (the endpoint configuration is not part
    /// of the snapshot).
    pub fn load_snap(&mut self, cfg: &CellConfig, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.flows = r.seq(|r| {
            Ok(FlowRt {
                ue: r.usize()?,
                size: r.u64()?,
                spawn: r.time()?,
                tuple: FiveTuple::unsnap(r)?,
                sender: TcpSender::unsnap(cfg.tcp, r)?,
                receiver: TcpReceiver::unsnap(r)?,
                started: r.bool()?,
                done: r.bool()?,
                last_cum: r.u64()?,
                last_progress: r.time()?,
            })
        })?;
        self.events = EventQueue::unsnap_with(r, |r| {
            Ok(match r.u8()? {
                0 => Ev::Arrival { flow: r.usize()? },
                1 => Ev::PktAtEnb {
                    flow: r.usize()?,
                    seq: r.u64()?,
                    len: r.u32()?,
                },
                2 => Ev::AckAtServer {
                    flow: r.usize()?,
                    cum: r.u64()?,
                },
                3 => Ev::StatusAtEnb {
                    ue: r.usize()?,
                    status: StatusPdu::unsnap(r)?,
                },
                _ => return Err(SnapError::Malformed("unknown ingress event tag")),
            })
        })?;
        self.open = (0..self.flows.len())
            .filter(|&i| self.flows[i].started && !self.flows[i].done)
            .collect();
        if r.u64()? != self.open.len() as u64 {
            return Err(SnapError::Malformed(
                "ingress open-flow count disagrees with flows",
            ));
        }
        self.injected_bytes = r.u64()?;
        self.cn_in_flight_bytes = r.u64()?;
        self.dropped_bytes = r.u64()?;
        Ok(())
    }

    /// Dump incomplete-flow diagnostics (debug only).
    pub fn debug_dump_stalled(&self) {
        for (i, f) in self.flows.iter().enumerate() {
            if !f.done {
                println!(
                    "flow {i} ue {} size {} cum {} snd_una {} in_flight {} rto {:?}",
                    f.ue,
                    f.size,
                    f.receiver.cum(),
                    f.sender.in_flight(),
                    f.sender.in_flight(),
                    f.sender.rto_deadline()
                );
            }
        }
    }
}

impl Default for IngressStage {
    fn default() -> Self {
        IngressStage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use outran_simcore::Rng;

    /// One ingress stage with the neighbours `run` needs.
    struct Rig {
        cfg: CellConfig,
        ues: Vec<UeContext>,
        rlc: RlcDownStage,
        hk: HousekeepingStage,
        obs: ObserverHost,
        ing: IngressStage,
    }

    impl Rig {
        fn new() -> Rig {
            let cfg = CellConfig::lte_default(2, SchedulerKind::Pf, 5);
            Rig {
                ues: UeContext::build_all(&cfg),
                rlc: RlcDownStage::new(&cfg),
                hk: HousekeepingStage::new(&cfg, &Rng::new(cfg.seed)),
                obs: ObserverHost::default(),
                ing: IngressStage::new(),
                cfg,
            }
        }

        fn flow_at(&mut self, at_ms: u64, bytes: u64) -> usize {
            let at = Time::from_millis(at_ms);
            let tti = Dur::from_millis(1);
            self.ing
                .schedule_flow(Time::ZERO, tti, &self.cfg, at, 0, bytes, None)
        }

        fn run_at(&mut self, ms: u64) {
            let now = Time::from_millis(ms);
            self.ing.run(
                now,
                &self.cfg,
                &mut self.ues,
                &mut self.rlc,
                &mut self.hk,
                &mut self.obs,
            );
        }

        fn deliver_all(&mut self, ms: u64, flow: usize) -> Option<FlowDone> {
            let d = DeliveredSdu {
                sdu_id: 0,
                flow_id: flow as u64,
                len: self.ing.flow_size(flow) as u32,
                seq: 0,
            };
            self.ing
                .accept_sdu(Time::from_millis(ms), Dur::from_millis(1), &d)
        }

        fn snap_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.ing.snap(&mut w);
            w.into_bytes()
        }
    }

    #[test]
    fn later_id_arriving_first_keeps_the_list_ascending() {
        let mut rig = Rig::new();
        let a = rig.flow_at(10, 5_000);
        let b = rig.flow_at(5, 5_000);
        rig.run_at(5);
        assert_eq!(rig.ing.open, vec![b]);
        rig.run_at(10);
        assert_eq!(rig.ing.open, vec![a, b]);
        assert_eq!(rig.ing.open_flows(), 2);
    }

    #[test]
    fn completion_leaves_the_list() {
        let mut rig = Rig::new();
        let a = rig.flow_at(1, 3_000);
        let b = rig.flow_at(1, 3_000);
        rig.run_at(1);
        let done = rig.deliver_all(2, a).expect("whole flow delivered");
        assert_eq!(done.id, a);
        assert_eq!(rig.ing.open, vec![b]);
        rig.run_at(3);
        assert_eq!(rig.ing.open_flows(), 1);
    }

    #[test]
    fn abort_before_start_never_opens() {
        let mut rig = Rig::new();
        let a = rig.flow_at(10, 4_000);
        assert_eq!(rig.ing.abort_flow(a), 4_000);
        rig.run_at(10);
        assert!(!rig.ing.flow_started(a));
        assert!(rig.ing.open.is_empty());
        assert_eq!(rig.ing.open_flows(), 0);
    }

    #[test]
    fn abort_after_start_leaves_the_list() {
        let mut rig = Rig::new();
        let a = rig.flow_at(1, 4_000);
        let b = rig.flow_at(1, 4_000);
        rig.run_at(1);
        assert_eq!(rig.ing.open, vec![a, b]);
        assert_eq!(rig.ing.abort_flow(b), 4_000);
        assert_eq!(rig.ing.open, vec![a]);
        assert_eq!(rig.ing.abort_flow(b), 0);
        rig.run_at(2);
        assert_eq!(rig.ing.open, vec![a]);
    }

    #[test]
    fn snapshot_round_trip_rebuilds_the_list() {
        let mut rig = Rig::new();
        let a = rig.flow_at(1, 3_000);
        let b = rig.flow_at(1, 3_000);
        let c = rig.flow_at(1, 3_000);
        rig.flow_at(50, 3_000);
        rig.run_at(1);
        rig.deliver_all(2, b).expect("whole flow delivered");
        let bytes = rig.snap_bytes();

        let mut back = IngressStage::new();
        let mut r = SnapReader::new(&bytes);
        back.load_snap(&rig.cfg, &mut r).expect("restores");
        assert!(r.is_exhausted());
        assert_eq!(back.open, vec![a, c]);
        assert_eq!(back.open_flows(), 2);
    }

    #[test]
    fn snapshot_with_a_tampered_open_count_is_rejected() {
        let mut rig = Rig::new();
        rig.flow_at(1, 3_000);
        rig.run_at(1);
        let mut bytes = rig.snap_bytes();
        // The count is followed by the three ledger `u64`s.
        let at = bytes.len() - 4 * 8;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());

        let mut back = IngressStage::new();
        let err = back
            .load_snap(&rig.cfg, &mut SnapReader::new(&bytes))
            .expect_err("count disagrees with the flows");
        assert!(matches!(err, SnapError::Malformed(_)), "{err:?}");
    }
}
