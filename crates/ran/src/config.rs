//! Cell configuration surface: scheduler selection, radio/transport
//! knobs and the public flow-completion record.
//!
//! Split out of [`crate::cell`] so the orchestrator stays a thin
//! pipeline driver; every name here is re-exported from `cell` for
//! source compatibility.

use outran_core::OutRanConfig;
use outran_faults::{AuditConfig, FaultPlan};
use outran_phy::channel::ChannelConfig;
use outran_simcore::{Dur, Time};
use outran_transport::TcpConfig;

/// Which MAC scheduler drives the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Proportional Fair (baseline).
    Pf,
    /// Max Throughput.
    Mt,
    /// Round Robin.
    Rr,
    /// Blind Equal Throughput (classic LTE baseline).
    Bet,
    /// Modified Largest Weighted Delay First (classic LTE baseline).
    Mlwdf,
    /// Oracle SRJF (channel-blind, perfect flow sizes).
    Srjf,
    /// Priority Set Scheduler (QoS-aware baseline).
    Pss,
    /// Channel & QoS Aware scheduler (QoS-aware baseline).
    Cqa,
    /// OutRAN with the paper's default ε = 0.2 over PF.
    OutRan,
    /// OutRAN with an explicit ε over PF (ε = 0 ⇒ intra-user only).
    OutRanEps(f64),
    /// OutRAN over the MT metric (Fig 18b ablation).
    OutRanOverMt(f64),
    /// Strict MLFQ: ε = 1, the "entire room for SJF" comparison (Fig 7).
    StrictMlfq,
}

impl SchedulerKind {
    /// Whether this scheduler family uses the per-UE MLFQ at RLC
    /// (baselines run the legacy FIFO).
    pub fn uses_mlfq(self) -> bool {
        matches!(
            self,
            SchedulerKind::OutRan
                | SchedulerKind::OutRanEps(_)
                | SchedulerKind::OutRanOverMt(_)
                | SchedulerKind::StrictMlfq
        )
    }

    /// Whether this scheduler performs *flow-level* scheduling with
    /// oracle flow sizes (SRJF): the RLC then orders SDUs by remaining
    /// flow size instead of PDCP's sent-bytes MLFQ, reproducing the
    /// NS-3 SRJF that "schedules flows based on the remaining flow size".
    pub fn uses_oracle_priority(self) -> bool {
        matches!(self, SchedulerKind::Srjf)
    }

    /// Display name. Allocation-free: parameterized variants render
    /// their family name — benches that sweep ε build their own labels,
    /// and [`SchedulerKind::label`] renders the parameter when needed.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Pf => "PF",
            SchedulerKind::Mt => "MT",
            SchedulerKind::Rr => "RR",
            SchedulerKind::Bet => "BET",
            SchedulerKind::Mlwdf => "M-LWDF",
            SchedulerKind::Srjf => "SRJF",
            SchedulerKind::Pss => "PSS",
            SchedulerKind::Cqa => "CQA",
            SchedulerKind::OutRan => "OutRAN",
            SchedulerKind::OutRanEps(_) => "OutRAN(e)",
            SchedulerKind::OutRanOverMt(_) => "OutRAN-MT(e)",
            SchedulerKind::StrictMlfq => "StrictMLFQ",
        }
    }

    /// Full display label including any scheduler parameter (allocates;
    /// use [`SchedulerKind::name`] on hot rendering paths).
    pub fn label(self) -> String {
        match self {
            SchedulerKind::OutRanEps(e) => format!("OutRAN(e={e})"),
            SchedulerKind::OutRanOverMt(e) => format!("OutRAN-MT(e={e})"),
            other => other.name().to_string(),
        }
    }
}

/// RLC mode for the data bearers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlcMode {
    /// Unacknowledged Mode (the paper's default).
    Um,
    /// Acknowledged Mode (§6.3 case study).
    Am,
}

/// Full cell configuration.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// PHY/channel configuration (see [`outran_phy::scenario`]).
    pub channel: ChannelConfig,
    /// Number of attached UEs.
    pub n_ues: usize,
    /// MAC scheduler.
    pub scheduler: SchedulerKind,
    /// PF fairness window T_f.
    pub tf: Dur,
    /// OutRAN policy knobs (MLFQ thresholds, promotion, reset, …).
    pub outran: OutRanConfig,
    /// RLC mode.
    pub rlc_mode: RlcMode,
    /// Per-UE RLC buffer capacity in SDUs (srsENB default 128; Fig 3b
    /// scales it ×5).
    pub buffer_sdus: usize,
    /// One-way server↔P-GW wired delay (Fig 11b: 10 ms; Fig 17: 20 ms
    /// remote / 5 ms MEC).
    pub cn_delay: Dur,
    /// Extra uplink latency for ACK/STATUS delivery beyond `cn_delay`
    /// (air + processing).
    pub ul_air_delay: Dur,
    /// TCP endpoint configuration.
    pub tcp: TcpConfig,
    /// Residual (post-HARQ) transport-block loss probability.
    pub residual_loss: f64,
    /// Leftover-capacity policy of the SRJF oracle (see
    /// [`outran_mac::srjf::SrjfMode`]). `Waterfall` is the good-faith
    /// engineering reading; `WinnerOnly` reproduces the severe
    /// SE/fairness/long-flow damage the paper measures under its
    /// high-variance LTE channel trace, where most of the full-bandwidth
    /// grant to the shortest flow's user is wasted.
    pub srjf_mode: outran_mac::srjf::SrjfMode,
    /// Explicit HARQ retransmission modelling (`None` = the default
    /// folded model where a failed TB simply is not pulled from RLC).
    /// With `Some`, failed blocks are retransmitted after the HARQ RTT
    /// with chase-combining gain and dropped after `max_tx` attempts.
    pub harq: Option<outran_phy::harq::HarqConfig>,
    /// Root seed.
    pub seed: u64,
    /// Scheduled fault timeline (empty = fault-free run).
    pub faults: FaultPlan,
    /// Invariant-auditor cadence and retention.
    pub audit: AuditConfig,
    /// Stalled-flow watchdog: force a TCP timeout after this long with
    /// no cumulative-ACK progress on a started flow (`None` disables).
    pub watchdog: Option<Dur>,
    /// Per-UE PDCP flow-table admission cap (`None` = unbounded); when
    /// full, the least-recently-seen entry is evicted to admit new flows.
    pub max_flow_entries: Option<usize>,
}

impl CellConfig {
    /// The paper's main LTE setting (§3/§6.2) for a given scheduler.
    pub fn lte_default(n_ues: usize, scheduler: SchedulerKind, seed: u64) -> CellConfig {
        CellConfig {
            channel: ChannelConfig::lte_default(),
            n_ues,
            scheduler,
            tf: Dur::from_millis(1000),
            outran: OutRanConfig::default(),
            rlc_mode: RlcMode::Um,
            buffer_sdus: 128,
            cn_delay: Dur::from_millis(10),
            ul_air_delay: Dur::from_millis(4),
            tcp: TcpConfig::default(),
            residual_loss: 0.002,
            srjf_mode: outran_mac::srjf::SrjfMode::Waterfall,
            harq: None,
            seed,
            faults: FaultPlan::new(),
            audit: AuditConfig::default(),
            watchdog: None,
            max_flow_entries: None,
        }
    }
}

/// A dedicated-bearer (GBR) traffic source — the Conversational class of
/// Table 1, served by semi-persistent grants outside the dynamic
/// scheduler (how VoLTE is carried in practice). OutRAN never touches
/// this traffic: it targets only the default best-effort bearer.
#[derive(Debug, Clone, Copy)]
pub struct GbrBearer {
    /// Destination UE.
    pub ue: usize,
    /// Packet payload size in bytes (VoLTE AMR frame bundles ~35 B).
    pub pkt_bytes: u32,
    /// Packet generation interval (VoLTE: 20 ms).
    pub interval: Dur,
}

impl GbrBearer {
    /// A VoLTE-like bearer at the Table 1 GBR of 14 kbps.
    pub fn volte(ue: usize) -> GbrBearer {
        GbrBearer {
            ue,
            pkt_bytes: 35,
            interval: Dur::from_millis(20),
        }
    }
}

/// A completed flow record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDone {
    /// Flow index (as returned by [`crate::cell::Cell::schedule_flow`]).
    pub id: usize,
    /// Destination UE.
    pub ue: usize,
    /// Flow size in bytes.
    pub bytes: u64,
    /// When the flow started at the server.
    pub spawn: Time,
    /// Flow completion time.
    pub fct: Dur,
}
