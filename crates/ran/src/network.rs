//! The coupled radio network: shared geometry, load-coupled
//! interference and deterministic A3 handover over many cells.
//!
//! [`crate::multicell`] models cells as fully independent simulators on
//! separate carriers, run straight to the horizon. A [`Network`] lifts
//! that worldview into one co-channel deployment, advanced in 1 s epochs
//! under a wall-time watchdog with periodic and abort checkpoints:
//!
//! * **Shared geometry** — sites sit on a hex grid
//!   ([`outran_phy::geometry::hex_sites`]), each carrying
//!   `sectors_per_site` co-sited cells with 120°-spaced boresights and
//!   the 3GPP sector pattern
//!   ([`outran_phy::geometry::sector_gain_db`]). UEs move in *global*
//!   coordinates — site-anchored random walks for pedestrians, fixed
//!   vehicular corridors ([`outran_phy::geometry::CorridorWalk`]) — and
//!   see every cell through the same path-loss law the cell channel
//!   itself uses.
//! * **Load-coupled interference** — at every epoch barrier each cell
//!   publishes its PRB utilization (the diff of
//!   [`crate::cell::Cell::used_rbs_cum`], an X2 load exchange), and each
//!   UE's interference-plus-noise is recomputed as thermal noise plus
//!   every non-serving cell's received power scaled by that cell's load
//!   ([`outran_phy::geometry::iplusn_dbm`]). The result is pushed into
//!   the channel's cached SINR plane, so per-TTI kernels stay untouched.
//! * **A3 handover** — per-epoch RSRP measurement with hysteresis and a
//!   time-to-trigger counter; fired handovers execute *at the barrier*,
//!   sorted by `(source cell, UE id)`: detach (terminal flow abort + the
//!   RLF re-establishment path), PDCP flow-state transfer, and re-attach
//!   of every interrupted flow as a continuation keyed by its original
//!   five-tuple. Undelivered tails complete at the target; FCT is
//!   attributed to the *original* spawn via an origin chain that
//!   survives repeated handovers.
//! * **Slot lifecycle** — each cell provisions `slots_per_cell` UE
//!   slots, more than it fills, as handover headroom. A slot nobody
//!   occupies is *parked*
//!   ([`outran_phy::channel::CellChannel::park`]): its channel skips the
//!   per-TTI fading and reporting passes and logs the advances instead.
//!   [`Network`] parks every vacant slot once the initial geometry is
//!   pushed, parks a handover's source slot right after the detach, and
//!   [`crate::cell::Cell::handover_attach`] unparks the target slot, which
//!   first replays the log. A resume restores every channel unparked and
//!   re-parks the slots the restored registry leaves vacant. Replay is
//!   exact, so parking changes no simulated byte; it only skips the work
//!   of slots that stay vacant.
//!
//! Every inter-cell decision happens serially at the barrier in a fixed
//! order, and cells only run in parallel *between* barriers, so the
//! merged report is byte-identical for any thread count. Checkpoints
//! extend the ORSN format with a `network` section (UE registry, A3
//! timers, load vector, origin map) next to the usual per-cell sections;
//! resume is construct-then-overlay, bit-identical to an uninterrupted
//! run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use outran_faults::{FaultPlan, FaultStats, HandoverStats};
use outran_metrics::{FctCollector, FctReport};
use outran_phy::geometry::{self, CorridorWalk, NetGeometry};
use outran_phy::mobility::{Pos, RandomWalk};
use outran_phy::{ChannelConfig, Scenario};
use outran_simcore::snap::{write_atomic, SnapError, SnapReader, SnapWriter, SnapshotFile};
use outran_simcore::{Dur, Normal, Rng, Time};
use outran_workload::{FlowArrival, FlowSizeDist, PoissonFlowGen};

use crate::cell::{Cell, CellConfig, SchedulerKind};
use crate::checkpoint::CheckpointMeta;
use crate::pool::parallel_map_eager;

/// Epoch length: the cadence of the barrier at which load is exchanged,
/// mobility advances, A3 is evaluated and handovers execute. It is also
/// the watchdog's and the checkpoints' granularity.
const EPOCH: Dur = Dur(1_000_000_000);

/// A coupled multi-cell deployment (builder + runner).
#[derive(Debug, Clone)]
pub struct Network {
    /// RF scenario for every cell (carrier, numerology, path-loss law).
    pub scenario: Scenario,
    /// Cell sites on the hex grid (1 = just the centre site, 7 = one
    /// ring, 19 = the two-ring metro layout).
    pub n_sites: usize,
    /// Co-sited cells per site (1 = omni, 3 = classic 120° sectors).
    pub sectors_per_site: usize,
    /// Inter-site distance (m).
    pub isd_m: f64,
    /// UE slots provisioned per cell — the attach capacity. Handovers
    /// into a full cell are blocked (counted, not silently dropped).
    pub slots_per_cell: usize,
    /// Network UEs (must fit in `n_sites · sectors_per_site ·
    /// slots_per_cell` slots, with headroom for handover churn).
    pub n_ues: usize,
    /// Fraction of UEs on vehicular corridors instead of pedestrian
    /// walks (drawn per UE from its own stream).
    pub corridor_frac: f64,
    /// Vehicular corridor speed (m/s).
    pub vehicle_speed_mps: f64,
    /// A3 hysteresis (dB): a neighbor must beat the serving cell by this
    /// margin before the time-to-trigger starts counting.
    pub hysteresis_db: f64,
    /// A3 time-to-trigger, in epochs the condition must hold.
    pub ttt_epochs: u32,
    /// A handover back to the previous serving cell within this many
    /// epochs counts as a ping-pong.
    pub ping_pong_window: u64,
    /// MAC scheduler under test (every cell runs the same one).
    pub scheduler: SchedulerKind,
    /// Offered load per cell (the network generator targets
    /// `load · n_cells · per-cell capacity` in aggregate).
    pub load: f64,
    /// Flow-size distribution.
    pub dist: FlowSizeDist,
    /// Scripted fault plan applied to *every* cell (chaos runs). Each
    /// cell flattens the same timeline against its own UE slots.
    pub faults: FaultPlan,
    /// Arrival horizon; the run drains 4 extra seconds beyond it.
    pub duration: Time,
    /// Flows whose origin spawn falls before this are excluded from the
    /// FCT report (matching [`crate::experiment::Experiment`]).
    pub warmup: Dur,
    /// Root seed; cell `c` runs with `seed + c`, UEs and arrivals fork
    /// their own streams.
    pub seed: u64,
    /// Worker threads to shard cells across between barriers (1 =
    /// serial). The report is byte-identical for every value.
    pub threads: usize,
    /// Wall-time watchdog: if one epoch (cell stepping plus barrier)
    /// takes longer than this to compute, the run is presumed wedged
    /// (livelock, thrashing) and aborts gracefully after the barrier,
    /// writing a final `metro-abort-<t>s.orsn` checkpoint when
    /// [`Network::checkpoint_dir`] is set. The wall clock only gates
    /// whether the run continues, never any simulated quantity. `None`
    /// disables the watchdog.
    pub epoch_wall_limit: Option<std::time::Duration>,
    /// Periodic checkpointing interval in *simulated* time (rounded up
    /// to whole epochs). `None` disables periodic checkpoints.
    pub checkpoint_every: Option<Dur>,
    /// Directory for periodic and abort checkpoints.
    pub checkpoint_dir: Option<PathBuf>,
    /// Canonical argv recorded in checkpoint metadata so `resume` can
    /// rebuild the configuration (the library never reads the process
    /// environment itself).
    pub argv: Vec<String>,
}

impl Network {
    /// The metro default: one hex ring of 3-sector sites, a mixed
    /// pedestrian/vehicular population, 3 dB / 2-epoch A3.
    pub fn metro(scenario: Scenario, scheduler: SchedulerKind, load: f64) -> Network {
        Network {
            scenario,
            n_sites: 7,
            sectors_per_site: 3,
            isd_m: 500.0,
            slots_per_cell: 8,
            n_ues: 96,
            corridor_frac: 0.25,
            vehicle_speed_mps: 15.0,
            hysteresis_db: 3.0,
            ttt_epochs: 2,
            ping_pong_window: 4,
            scheduler,
            load,
            dist: FlowSizeDist::LteCellular,
            faults: FaultPlan::new(),
            duration: Time::from_secs(10),
            warmup: Dur::from_secs(1),
            seed: 42,
            threads: 1,
            epoch_wall_limit: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            argv: Vec::new(),
        }
    }

    /// Total cells in the deployment.
    pub fn n_cells(&self) -> usize {
        self.n_sites * self.sectors_per_site
    }

    /// The shared channel configuration, switched to external geometry.
    fn channel_config(&self) -> ChannelConfig {
        let mut ch = self.scenario.channel_config();
        ch.external_geometry = true;
        ch
    }

    /// Run the deployment to the end of its drain window.
    pub fn run(&self) -> NetworkRun {
        let st = self.build_state();
        self.run_state(st)
    }

    /// Resume a run from a checkpoint written by this configuration.
    /// Construct-then-overlay: the state is rebuilt from the
    /// configuration, then every `cell.<i>` section and the `network`
    /// section are overlaid. The continuation is bit-identical to the
    /// uninterrupted run.
    pub fn resume(&self, file: &SnapshotFile) -> Result<NetworkRun, SnapError> {
        let st = self.restore_state(file)?;
        Ok(self.run_state(st))
    }

    /// Rebuild the state a checkpoint written by this configuration
    /// holds (see [`Network::resume`]).
    fn restore_state(&self, file: &SnapshotFile) -> Result<NetState, SnapError> {
        let mut st = self.build_state();
        for i in 0..st.cells.len() {
            crate::checkpoint::restore_cell(file, i, &mut st.cells[i])?;
        }
        let mut r = SnapReader::new(file.section("network")?);
        st.load_snap(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapError::Malformed("trailing bytes in network section"));
        }
        // The restored channels come back unparked; park the slots the
        // restored registry leaves vacant.
        st.park_vacant_slots();
        Ok(st)
    }

    /// Build the full initial state: cells in external-geometry mode,
    /// the UE registry (placement, mobility, per-site shadowing), the
    /// precomputed arrival schedule, and the initial geometry push.
    fn build_state(&self) -> NetState {
        let n_cells = self.n_cells();
        assert!(self.n_sites >= 1 && self.sectors_per_site >= 1);
        assert!(
            self.n_ues <= n_cells * self.slots_per_cell,
            "{} UEs need more than {} slots",
            self.n_ues,
            n_cells * self.slots_per_cell
        );
        let geo = NetGeometry::hex(self.n_sites, self.isd_m);
        let chan = self.channel_config();

        // Every cell shares one OutRAN policy, so resolve its MLFQ
        // thresholds once here instead of once per `Cell::new`.
        let thresholds = self.scheduler.uses_mlfq().then(|| {
            CellConfig::lte_default(self.slots_per_cell, self.scheduler, self.seed)
                .outran
                .resolve_mlfq()
                .thresholds
        });
        let mut cells = Vec::with_capacity(n_cells);
        for c in 0..n_cells {
            let mut cfg =
                CellConfig::lte_default(self.slots_per_cell, self.scheduler, self.seed + c as u64);
            cfg.channel = chan;
            cfg.faults = self.faults.clone();
            cfg.outran.thresholds = thresholds.clone();
            cells.push(Cell::new(cfg));
        }

        // UE registry. Each UE forks its own stream and draws, in fixed
        // order: static per-site shadowing, the mobility-class coin, the
        // mobility model itself.
        let root = Rng::new(self.seed ^ 0x6E07);
        let shadow_dist = Normal::new(0.0, chan.shadowing_sd_db);
        let walker_radius = (self.isd_m * 0.6).max(chan.min_radius_m + 1.0);
        let mut ues: Vec<NetUe> = (0..self.n_ues)
            .map(|i| {
                let mut rng = root.fork(0x0E_0000 + i as u64);
                let shadow_site_db: Vec<f64> = (0..self.n_sites)
                    .map(|_| shadow_dist.sample(&mut rng))
                    .collect();
                let vehicular = self.n_sites >= 2 && rng.f64() < self.corridor_frac;
                let mobility = if vehicular {
                    let a = rng.below(self.n_sites as u64) as usize;
                    let b = (a + 1 + rng.below(self.n_sites as u64 - 1) as usize) % self.n_sites;
                    NetMobility::Corridor(CorridorWalk::new(
                        geo.site(a),
                        geo.site(b),
                        self.vehicle_speed_mps,
                        &mut rng,
                    ))
                } else {
                    let site = rng.below(self.n_sites as u64) as usize;
                    NetMobility::Walk {
                        site,
                        walk: RandomWalk::new(
                            walker_radius,
                            chan.min_radius_m,
                            chan.ue_speed_mps,
                            rng.fork(2),
                        ),
                    }
                };
                NetUe {
                    mobility,
                    shadow_site_db,
                    serving: 0,
                    slot: 0,
                    a3_target: None,
                    a3_count: 0,
                    prev_cell: None,
                    last_ho_epoch: 0,
                }
            })
            .collect();

        // Initial attach, in UE id order: strongest cell with a free
        // slot, lowest free slot index.
        let mut slot_owner: Vec<Vec<Option<usize>>> =
            vec![vec![None; self.slots_per_cell]; n_cells];
        for (i, ue) in ues.iter_mut().enumerate() {
            let pos = ue.pos(&geo);
            let mut best: Option<(f64, usize)> = None;
            for (c, slots) in slot_owner.iter().enumerate() {
                if !slots.iter().any(|s| s.is_none()) {
                    continue;
                }
                let r = rsrp_cell(
                    &geo,
                    &chan,
                    self.sectors_per_site,
                    c,
                    pos,
                    &ue.shadow_site_db,
                );
                if best.map(|(b, _)| r > b).unwrap_or(true) {
                    best = Some((r, c));
                }
            }
            // outran-lint: allow(D5,S2) -- n_ues <= cells*slots is validated at build entry, so some cell always has a free slot
            let (_, c) = best.expect("attach capacity checked above");
            // outran-lint: allow(D5,S2) -- cell c was selected because this scan found a free slot two loops above
            let slot = slot_owner[c].iter().position(|s| s.is_none()).unwrap();
            slot_owner[c][slot] = Some(i);
            ue.serving = c;
            ue.slot = slot;
        }

        // Arrival schedule: one global Poisson process over the whole
        // population, targeting `load` on every cell in aggregate.
        // Precomputed so the cursor is the only arrival state a
        // checkpoint must carry.
        let per_cell_capacity = chan.radio.peak_rate_bps(chan.table.peak_efficiency()) * 0.85;
        let mut gen = PoissonFlowGen::new(
            self.dist,
            self.load,
            per_cell_capacity * n_cells as f64,
            self.n_ues,
            Rng::new(self.seed ^ 0xC0105),
        );
        let arrivals = gen.take_until(self.duration);

        let mut st = NetState {
            cells,
            ues,
            slot_owner,
            loads: vec![0.0; n_cells],
            prev_rbs: vec![0; n_cells],
            arrivals,
            cursor: 0,
            completed: 0,
            origins: BTreeMap::new(),
            fct: FctCollector::new(),
            stats: HandoverStats::default(),
            epoch: 0,
        };

        // Initial geometry: place every slot at the cell edge, then push
        // the real per-UE geometry (no neighbor loads yet, so I+N is the
        // noise floor) and re-prime the CQI reports — construction
        // measured them at a placeholder distance. Then park the slots
        // nobody occupies.
        for cell in &mut st.cells {
            for s in 0..self.slots_per_cell {
                cell.set_ue_geometry(s, self.isd_m, 0.0, chan.noise_dbm());
            }
        }
        self.push_geometry(&geo, &chan, &mut st);
        for cell in &mut st.cells {
            cell.reprime_reports();
        }
        st.park_vacant_slots();
        st
    }

    /// Push every attached UE's serving-link geometry (distance, shadow
    /// + sector gain) and load-coupled I+N into its cell's channel.
    fn push_geometry(&self, geo: &NetGeometry, chan: &ChannelConfig, st: &mut NetState) {
        let sectors = self.sectors_per_site;
        for ue in &st.ues {
            let pos = ue.pos(geo);
            let site = ue.serving / sectors;
            let dist = geo.dist_to_site(site, pos);
            let gain = serving_gain(geo, sectors, ue.serving, pos);
            let ipn = geometry::iplusn_dbm(
                chan.noise_dbm(),
                (0..st.loads.len())
                    .filter(|&c| c != ue.serving && st.loads[c] > 0.0)
                    .map(|c| {
                        (
                            st.loads[c],
                            rsrp_cell(geo, chan, sectors, c, pos, &ue.shadow_site_db),
                        )
                    }),
            );
            st.cells[ue.serving].set_ue_geometry(
                ue.slot,
                dist,
                ue.shadow_site_db[site] + gain,
                ipn,
            );
        }
    }

    /// The epoch barrier: drain completions, publish loads, advance
    /// mobility, evaluate A3, execute handovers in `(source cell, UE)`
    /// order, then push the refreshed geometry. Everything here runs
    /// serially in a fixed order — the determinism anchor.
    fn barrier(&self, geo: &NetGeometry, chan: &ChannelConfig, st: &mut NetState, span: Dur) {
        let warmup_end = Time::ZERO + self.warmup;

        // 1. Completions, in cell-index order, attributed to origins.
        for c in 0..st.cells.len() {
            for d in st.cells[c].take_completions() {
                st.completed += 1;
                let (bytes, spawn, fct) = match st.origins.remove(&(c, d.id)) {
                    Some(o) => (o.bytes, o.spawn, (d.spawn + d.fct).since(o.spawn)),
                    None => (d.bytes, d.spawn, d.fct),
                };
                if spawn >= warmup_end {
                    st.fct.record(bytes, fct);
                }
            }
        }

        // 2. X2 load exchange: per-cell PRB utilization over the epoch.
        let tti = chan.radio.tti();
        let epoch_ttis = (span.as_nanos() / tti.as_nanos()).max(1);
        let rbs_per_tti = chan.radio.num_rbs() as u64;
        for (c, cell) in st.cells.iter().enumerate() {
            let cum = cell.used_rbs_cum();
            let delta = cum - st.prev_rbs[c];
            st.prev_rbs[c] = cum;
            st.loads[c] = (delta as f64 / (epoch_ttis * rbs_per_tti) as f64).clamp(0.0, 1.0);
        }

        // 3. Mobility, in UE id order.
        for ue in &mut st.ues {
            ue.advance(span, chan.mobility_step);
        }

        // 4. A3 measurement, in UE id order.
        let sectors = self.sectors_per_site;
        let mut requests: Vec<(usize, usize, usize)> = Vec::new();
        for (i, ue) in st.ues.iter_mut().enumerate() {
            let pos = ue.pos(geo);
            let serving = rsrp_cell(geo, chan, sectors, ue.serving, pos, &ue.shadow_site_db);
            let mut best: Option<(f64, usize)> = None;
            for c in 0..st.loads.len() {
                if c == ue.serving {
                    continue;
                }
                let r = rsrp_cell(geo, chan, sectors, c, pos, &ue.shadow_site_db);
                if best.map(|(b, _)| r > b).unwrap_or(true) {
                    best = Some((r, c));
                }
            }
            match best {
                Some((r, target)) if r > serving + self.hysteresis_db => {
                    if ue.a3_target == Some(target) {
                        ue.a3_count += 1;
                    } else {
                        ue.a3_target = Some(target);
                        ue.a3_count = 1;
                    }
                    if ue.a3_count >= self.ttt_epochs {
                        requests.push((ue.serving, i, target));
                    }
                }
                _ => {
                    ue.a3_target = None;
                    ue.a3_count = 0;
                }
            }
        }

        // 5. Handover execution at the barrier, sorted by (source cell,
        // UE id) — the deterministic order that makes threads=N replay
        // byte-identical to serial.
        requests.sort_unstable();
        for (src, uid, dst) in requests {
            st.stats.attempts += 1;
            let Some(dst_slot) = st.slot_owner[dst].iter().position(|s| s.is_none()) else {
                // Target full: blocked. Restart the time-to-trigger so a
                // persistent condition retries after another TTT.
                st.stats.blocked += 1;
                st.ues[uid].a3_target = None;
                st.ues[uid].a3_count = 0;
                continue;
            };
            let src_slot = st.ues[uid].slot;
            if !st.cells[src].ue_link_up(src_slot) {
                // The source link is in RLF while the handover executes:
                // the transfer still rides the re-establishment path, but
                // the event is surfaced as a handover failure mode.
                st.stats.rlf_failures += 1;
            }
            let export = st.cells[src].handover_detach(src_slot);
            st.slot_owner[src][src_slot] = None;
            st.cells[src].park_slot(src_slot);
            let conts = st.cells[dst].handover_attach(dst_slot, &export);
            st.stats.flows_transferred += export.flows.len() as u64;
            for (hf, &ni) in export.flows.iter().zip(&conts) {
                let origin = st
                    .origins
                    .remove(&(src, hf.src_flow))
                    .unwrap_or(FlowOrigin {
                        bytes: hf.size,
                        spawn: hf.spawn,
                    });
                st.origins.insert((dst, ni), origin);
            }
            st.slot_owner[dst][dst_slot] = Some(uid);
            let ue = &mut st.ues[uid];
            if ue.prev_cell == Some(dst) && st.epoch - ue.last_ho_epoch <= self.ping_pong_window {
                st.stats.ping_pongs += 1;
            }
            st.stats.successes += 1;
            ue.prev_cell = Some(src);
            ue.last_ho_epoch = st.epoch;
            ue.serving = dst;
            ue.slot = dst_slot;
            ue.a3_target = None;
            ue.a3_count = 0;
        }

        // 6. Refresh every UE's geometry under the new loads and
        // assignments.
        self.push_geometry(geo, chan, st);
    }

    /// Write a full network checkpoint (`meta` + `cell.<i>` sections +
    /// the `network` section) atomically.
    fn write_checkpoint(&self, st: &NetState, t: Time, path: &Path) -> Result<(), SnapError> {
        let meta = CheckpointMeta {
            argv: self.argv.clone(),
            sim_time: t,
            dense: false,
            n_cells: st.cells.len(),
        };
        let refs: Vec<&Cell> = st.cells.iter().collect();
        let mut file = crate::checkpoint::snapshot_cells(&meta, &refs);
        let mut w = SnapWriter::new();
        st.snap(&mut w);
        file.add("network", w);
        write_atomic(path, &file.to_bytes())
    }

    /// One epoch from `t` to `t_next`: inject its arrivals, step the
    /// cells in parallel, then run the barrier.
    fn run_epoch(
        &self,
        geo: &NetGeometry,
        chan: &ChannelConfig,
        st: &mut NetState,
        t: Time,
        t_next: Time,
    ) {
        // Inject this epoch's arrivals into each UE's *current* serving
        // cell before the cells advance; `conn` carries the global
        // arrival index so five-tuples are collision-free network-wide
        // (continuations keep their original tuple).
        while st.cursor < st.arrivals.len() && st.arrivals[st.cursor].at <= t_next {
            let a: FlowArrival = st.arrivals[st.cursor];
            let ue = &st.ues[a.ue];
            st.cells[ue.serving].schedule_flow(a.at, ue.slot, a.bytes, Some(st.cursor as u64));
            st.cursor += 1;
        }
        st.cells = parallel_map_eager(self.threads, std::mem::take(&mut st.cells), |mut c| {
            c.run_until(t_next);
            c
        });
        st.epoch += 1;
        self.barrier(geo, chan, st, t_next.since(t));
    }

    /// The epoch loop over an initial (or restored) state.
    fn run_state(&self, mut st: NetState) -> NetworkRun {
        let geo = NetGeometry::hex(self.n_sites, self.isd_m);
        let chan = self.channel_config();
        let end = Time(self.duration.0 + Time::from_secs(4).0);
        let ckpt_epochs = self
            .checkpoint_every
            .map(|d| d.as_nanos().div_ceil(EPOCH.as_nanos()).max(1));
        let mut t = Time(EPOCH.as_nanos() * st.epoch);
        let mut aborted_at = None;
        let mut checkpoint = None;
        while t < end {
            let t_next = (t + EPOCH).min(end);
            // The watchdog gates only *whether the run continues*, never
            // any simulated quantity.
            // outran-lint: allow(D1,S5) -- wall-time watchdog, measurement only; never feeds sim state
            let epoch_start = std::time::Instant::now();
            self.run_epoch(&geo, &chan, &mut st, t, t_next);
            t = t_next;
            let over_limit = self
                .epoch_wall_limit
                .map(|limit| epoch_start.elapsed() > limit)
                .unwrap_or(false);
            if over_limit {
                eprintln!("warning: network epoch to {t} exceeded the wall limit; aborting");
                aborted_at = Some(t);
                if let Some(dir) = &self.checkpoint_dir {
                    let secs = t.as_nanos() / 1_000_000_000;
                    let path = dir.join(format!("metro-abort-{secs}s.orsn"));
                    match self.write_checkpoint(&st, t, &path) {
                        Ok(()) => checkpoint = Some(path),
                        Err(e) => {
                            eprintln!("warning: abort checkpoint {} failed: {e}", path.display())
                        }
                    }
                }
                break;
            }
            if let (Some(every), Some(dir)) = (ckpt_epochs, &self.checkpoint_dir) {
                if st.epoch.is_multiple_of(every) && t < end {
                    let secs = t.as_nanos() / 1_000_000_000;
                    let path = dir.join(format!("metro-ckpt-{secs}s.orsn"));
                    if let Err(e) = self.write_checkpoint(&st, t, &path) {
                        eprintln!("warning: checkpoint {} failed: {e}", path.display());
                    }
                }
            }
        }

        let per_cell_completed = st.cells.iter().map(|c| c.n_completed()).collect();
        let mut fault_stats = FaultStats::default();
        let mut total_violations = 0;
        for cell in &mut st.cells {
            cell.audit_now();
            total_violations += cell.total_violations();
            fault_stats.merge(&cell.fault_stats());
        }
        NetworkRun {
            report: NetworkReport {
                scheduler: self.scheduler.label(),
                fct: st.fct.report(),
                handover: st.stats,
                fault_stats,
                completed: st.completed,
                offered: st.cursor,
                total_violations,
                per_cell_completed,
            },
            aborted_at,
            checkpoint,
        }
    }
}

/// Boresight angle of cell `c` (sector `c % sectors`).
fn boresight(sectors: usize, c: usize) -> f64 {
    (c % sectors) as f64 * std::f64::consts::TAU / sectors as f64
}

/// Sector gain of cell `c` toward global position `pos` (0 dB for omni
/// deployments).
fn serving_gain(geo: &NetGeometry, sectors: usize, c: usize, pos: Pos) -> f64 {
    if sectors <= 1 {
        return 0.0;
    }
    let sp = geo.site(c / sectors);
    let bearing = (pos.y - sp.y).atan2(pos.x - sp.x);
    geometry::sector_gain_db(boresight(sectors, c), bearing)
}

/// RSRP (dBm) of cell `c` at `pos` through the UE's static per-site
/// shadowing — the quantity both attachment and A3 rank on, built from
/// the *same* path-loss law the serving channel uses.
fn rsrp_cell(
    geo: &NetGeometry,
    chan: &ChannelConfig,
    sectors: usize,
    c: usize,
    pos: Pos,
    shadow_site_db: &[f64],
) -> f64 {
    let site = c / sectors;
    geometry::rsrp_dbm(
        chan.tx_power_dbm,
        chan.pathloss_ref_db,
        chan.pathloss_exp,
        geo.dist_to_site(site, pos),
        shadow_site_db[site] + serving_gain(geo, sectors, c, pos),
    )
}

/// A UE's mobility model in global coordinates.
#[derive(Debug, Clone)]
enum NetMobility {
    /// Pedestrian: a site-anchored random walk (the walk is relative to
    /// its anchor site's position).
    Walk {
        /// Anchor site index.
        site: usize,
        /// The site-relative walker.
        walk: RandomWalk,
    },
    /// Vehicular: ping-pong travel along a fixed inter-site corridor.
    Corridor(CorridorWalk),
}

/// One network-scoped UE: identity that survives cell crossings.
#[derive(Debug, Clone)]
struct NetUe {
    mobility: NetMobility,
    /// Static log-normal shadowing toward each *site* (shared by its
    /// co-sited sectors, as physics demands).
    shadow_site_db: Vec<f64>,
    /// Serving cell index.
    serving: usize,
    /// Slot inside the serving cell.
    slot: usize,
    /// A3 candidate being timed, if any.
    a3_target: Option<usize>,
    /// Consecutive epochs the A3 condition has held for `a3_target`.
    a3_count: u32,
    /// Previous serving cell (ping-pong detection).
    prev_cell: Option<usize>,
    /// Epoch of the last executed handover.
    last_ho_epoch: u64,
}

impl NetUe {
    /// Current global position.
    fn pos(&self, geo: &NetGeometry) -> Pos {
        match &self.mobility {
            NetMobility::Walk { site, walk } => {
                let s = geo.site(*site);
                let p = walk.pos();
                Pos {
                    x: s.x + p.x,
                    y: s.y + p.y,
                }
            }
            NetMobility::Corridor(c) => c.pos(),
        }
    }

    /// Advance mobility across one epoch. Walkers take the same
    /// `mobility_step`-sized steps the single-cell channel takes, so a
    /// UE behaves identically whether the cell or the network owns it.
    fn advance(&mut self, span: Dur, step: Dur) {
        match &mut self.mobility {
            NetMobility::Walk { walk, .. } => {
                walk.advance_steps(step, span.as_nanos() / step.as_nanos());
            }
            NetMobility::Corridor(c) => c.advance(span),
        }
    }

    /// Serialize the UE (checkpointing).
    fn snap(&self, w: &mut SnapWriter) {
        match &self.mobility {
            NetMobility::Walk { site, walk } => {
                w.u8(0);
                w.usize(*site);
                walk.snap(w);
            }
            NetMobility::Corridor(c) => {
                w.u8(1);
                c.snap(w);
            }
        }
        w.seq(self.shadow_site_db.iter(), |w, &v| w.f64(v));
        w.usize(self.serving);
        w.usize(self.slot);
        w.opt(&self.a3_target, |w, &t| w.usize(t));
        w.u32(self.a3_count);
        w.opt(&self.prev_cell, |w, &c| w.usize(c));
        w.u64(self.last_ho_epoch);
    }

    /// Restore a UE from [`NetUe::snap`] output.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<NetUe, SnapError> {
        let mobility = match r.u8()? {
            0 => NetMobility::Walk {
                site: r.usize()?,
                walk: RandomWalk::unsnap(r)?,
            },
            1 => NetMobility::Corridor(CorridorWalk::unsnap(r)?),
            _ => return Err(SnapError::Malformed("unknown mobility tag")),
        };
        Ok(NetUe {
            mobility,
            shadow_site_db: r.seq(|r| r.f64())?,
            serving: r.usize()?,
            slot: r.usize()?,
            a3_target: r.opt(|r| r.usize())?,
            a3_count: r.u32()?,
            prev_cell: r.opt(|r| r.usize())?,
            last_ho_epoch: r.u64()?,
        })
    }
}

/// Where a (possibly multiply-handed-over) flow originally came from:
/// the attribution record for network-level FCT.
#[derive(Debug, Clone, Copy)]
struct FlowOrigin {
    /// Original flow size (bytes).
    bytes: u64,
    /// Original server-side spawn instant.
    spawn: Time,
}

/// The full mutable state of a network run. Cells snapshot through the
/// usual `cell.<i>` sections; everything here lands in the `network`
/// section. The arrival schedule and slot-owner table are *derived*
/// state (pure functions of the configuration / the UE registry) and are
/// rebuilt on restore rather than serialized.
struct NetState {
    // outran-lint: allow(S3) -- cells snapshot through their own `cell.<i>` ORSN sections
    cells: Vec<Cell>,
    ues: Vec<NetUe>,
    /// Per cell, per slot: the network UE occupying it.
    slot_owner: Vec<Vec<Option<usize>>>,
    /// Last epoch's published PRB utilization per cell.
    loads: Vec<f64>,
    /// `used_rbs_cum` at the previous barrier, per cell.
    prev_rbs: Vec<u64>,
    /// Precomputed arrival schedule (not serialized; rebuilt on
    /// construct).
    // outran-lint: allow(S3) -- pure function of the configuration, rebuilt on construct
    arrivals: Vec<FlowArrival>,
    /// Next arrival to inject.
    cursor: usize,
    /// Network flows fully completed (continuation chains count once).
    completed: usize,
    /// `(cell, flow index)` → origin, for continuation flows only.
    origins: BTreeMap<(usize, usize), FlowOrigin>,
    /// Network-level FCT statistics (origin-attributed, warmup-filtered).
    fct: FctCollector,
    /// Handover counters.
    stats: HandoverStats,
    /// Completed epochs.
    epoch: u64,
}

impl NetState {
    /// Park every slot `slot_owner` leaves vacant.
    fn park_vacant_slots(&mut self) {
        for (cell, slots) in self.cells.iter_mut().zip(&self.slot_owner) {
            for (s, owner) in slots.iter().enumerate() {
                if owner.is_none() {
                    cell.park_slot(s);
                }
            }
        }
    }

    /// Serialize the network section.
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.epoch);
        w.usize(self.cursor);
        w.usize(self.completed);
        w.seq(self.ues.iter(), |w, u| u.snap(w));
        w.seq(self.loads.iter(), |w, &v| w.f64(v));
        w.seq(self.prev_rbs.iter(), |w, &v| w.u64(v));
        w.seq(self.origins.iter(), |w, (&(c, f), o)| {
            w.usize(c);
            w.usize(f);
            w.u64(o.bytes);
            w.time(o.spawn);
        });
        self.fct.snap(w);
        self.stats.snap(w);
    }

    /// Overlay the network section onto freshly built state, rebuilding
    /// the slot-owner table from the restored UE registry.
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.epoch = r.u64()?;
        self.cursor = r.usize()?;
        self.completed = r.usize()?;
        let ues = r.seq(NetUe::unsnap)?;
        if ues.len() != self.ues.len() {
            return Err(SnapError::Malformed(
                "UE count disagrees with configuration",
            ));
        }
        self.ues = ues;
        let loads = r.seq(|r| r.f64())?;
        if loads.len() != self.loads.len() {
            return Err(SnapError::Malformed(
                "cell count disagrees with configuration",
            ));
        }
        self.loads = loads;
        self.prev_rbs = r.seq(|r| r.u64())?;
        self.origins = r
            .seq(|r| {
                let key = (r.usize()?, r.usize()?);
                let o = FlowOrigin {
                    bytes: r.u64()?,
                    spawn: r.time()?,
                };
                Ok((key, o))
            })?
            .into_iter()
            .collect();
        self.fct = FctCollector::unsnap(r)?;
        self.stats = HandoverStats::unsnap(r)?;
        for slots in &mut self.slot_owner {
            slots.fill(None);
        }
        for (i, ue) in self.ues.iter().enumerate() {
            if ue.serving >= self.slot_owner.len() || ue.slot >= self.slot_owner[ue.serving].len() {
                return Err(SnapError::Malformed("UE slot out of range"));
            }
            if self.slot_owner[ue.serving][ue.slot].is_some() {
                return Err(SnapError::Malformed("two UEs share one slot"));
            }
            self.slot_owner[ue.serving][ue.slot] = Some(i);
        }
        Ok(())
    }
}

/// Results of one network run.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Origin-attributed FCT summary (a flow interrupted by handover is
    /// one flow, timed spawn→final-delivery across cells).
    pub fct: FctReport,
    /// Handover health counters.
    pub handover: HandoverStats,
    /// Fault and recovery counters merged across cells (handover
    /// re-establishments land in `reestablishments`).
    pub fault_stats: FaultStats,
    /// Network flows fully completed.
    pub completed: usize,
    /// Flow arrivals injected.
    pub offered: usize,
    /// Invariant violations across all cells (end-of-run audit included).
    pub total_violations: u64,
    /// Per-cell completed-flow counts (continuations count where they
    /// finished).
    pub per_cell_completed: Vec<usize>,
}

/// Outcome of [`Network::run`]: the report plus what the watchdog did.
#[derive(Debug)]
pub struct NetworkRun {
    /// The merged, origin-attributed report.
    pub report: NetworkReport,
    /// Simulation instant the watchdog aborted at, or `None` for a full
    /// run.
    pub aborted_at: Option<Time>,
    /// Path of the final checkpoint written on abort, when requested.
    pub checkpoint: Option<PathBuf>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::Pf, 0.25);
        net.n_sites = 2;
        net.isd_m = 350.0;
        net.slots_per_cell = 8;
        net.n_ues = 12;
        net.corridor_frac = 0.5;
        net.vehicle_speed_mps = 30.0;
        net.duration = Time::from_secs(5);
        net.seed = 7;
        net
    }

    #[test]
    fn metro_runs_and_hands_over() {
        let out = tiny().run();
        let r = out.report;
        assert!(out.aborted_at.is_none());
        assert!(r.fct.count > 5, "completed={}", r.fct.count);
        assert!(r.handover.successes > 0, "handover={:?}", r.handover);
        assert_eq!(r.total_violations, 0);
        assert!(r.completed <= r.offered);
    }

    #[test]
    fn report_is_deterministic() {
        let a = tiny().run();
        let b = tiny().run();
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    #[test]
    fn watchdog_abort_checkpoint_resumes_to_the_full_run() {
        let dir = std::env::temp_dir().join(format!("outran-net-wd-{}", std::process::id()));
        let mut net = tiny();
        // A zero wall limit trips after the very first epoch.
        net.epoch_wall_limit = Some(std::time::Duration::ZERO);
        net.checkpoint_dir = Some(dir.clone());
        let out = net.run();
        assert_eq!(out.aborted_at, Some(Time::from_secs(1)));
        let ckpt = out.checkpoint.expect("abort checkpoint should be written");
        assert_eq!(ckpt, dir.join("metro-abort-1s.orsn"));
        let (meta, file) = crate::checkpoint::read_checkpoint(&ckpt).unwrap();
        assert_eq!(meta.n_cells, net.n_cells());
        assert_eq!(meta.sim_time, Time::from_secs(1));
        // The abort checkpoint resumes to exactly the uninterrupted run.
        let resumed = tiny().resume(&file).unwrap();
        assert!(resumed.aborted_at.is_none());
        assert_eq!(
            format!("{:?}", resumed.report),
            format!("{:?}", tiny().run().report)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outran_cells_share_the_default_thresholds() {
        let mut net = tiny();
        net.scheduler = SchedulerKind::OutRan;
        let want = outran_core::OutRanConfig::default()
            .resolve_mlfq()
            .thresholds;
        let st = net.build_state();
        assert!(st.cells.len() > 1);
        for cell in &st.cells {
            assert_eq!(cell.config().outran.thresholds.as_ref(), Some(&want));
        }
    }

    #[test]
    fn attach_fills_best_cells_first() {
        let net = tiny();
        let st = net.build_state();
        // Every UE occupies a unique (cell, slot) pair.
        let mut seen = std::collections::BTreeSet::new();
        for ue in &st.ues {
            assert!(seen.insert((ue.serving, ue.slot)));
            assert!(ue.serving < net.n_cells());
            assert!(ue.slot < net.slots_per_cell);
        }
    }

    /// Every slot is parked exactly when no UE occupies it.
    fn assert_parked_iff_vacant(st: &NetState) {
        for (c, slots) in st.slot_owner.iter().enumerate() {
            for (s, owner) in slots.iter().enumerate() {
                assert_eq!(
                    st.cells[c].channel().is_parked(s),
                    owner.is_none(),
                    "cell {c} slot {s} (owner {owner:?})"
                );
            }
        }
    }

    /// Step `st` epoch by epoch until a handover has executed (at most
    /// the configured duration); returns the instant reached.
    fn run_to_first_handover(net: &Network, st: &mut NetState) -> Time {
        let geo = NetGeometry::hex(net.n_sites, net.isd_m);
        let chan = net.channel_config();
        let mut t = Time::ZERO;
        while st.stats.successes == 0 && t < net.duration {
            let before: Vec<(usize, usize)> = st.ues.iter().map(|u| (u.serving, u.slot)).collect();
            let t_next = t + EPOCH;
            net.run_epoch(&geo, &chan, st, t, t_next);
            t = t_next;
            assert_parked_iff_vacant(st);
            for (ue, &(src, src_slot)) in st.ues.iter().zip(&before) {
                if (ue.serving, ue.slot) != (src, src_slot) {
                    assert!(!st.cells[ue.serving].channel().is_parked(ue.slot));
                    let vacated = st.slot_owner[src][src_slot].is_none();
                    assert_eq!(st.cells[src].channel().is_parked(src_slot), vacated);
                }
            }
        }
        assert!(st.stats.successes > 0, "no handover to check");
        t
    }

    #[test]
    fn vacant_slots_are_parked_after_build() {
        let st = tiny().build_state();
        assert_parked_iff_vacant(&st);
        let parked = st
            .slot_owner
            .iter()
            .flatten()
            .filter(|o| o.is_none())
            .count();
        assert_eq!(
            parked,
            tiny().n_cells() * tiny().slots_per_cell - tiny().n_ues
        );
    }

    #[test]
    fn handover_parks_the_source_slot_and_unparks_the_target() {
        let net = tiny();
        let mut st = net.build_state();
        run_to_first_handover(&net, &mut st);
    }

    #[test]
    fn resume_parks_the_restored_vacant_slots() {
        let dir = std::env::temp_dir().join(format!("outran-net-park-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let net = tiny();
        let mut st = net.build_state();
        let t = run_to_first_handover(&net, &mut st);
        let path = dir.join("park.orsn");
        net.write_checkpoint(&st, t, &path).unwrap();
        let (_, file) = crate::checkpoint::read_checkpoint(&path).unwrap();
        let restored = net.restore_state(&file).unwrap();
        assert_eq!(restored.slot_owner, st.slot_owner);
        assert_parked_iff_vacant(&restored);
        // Parked slots snapshot caught up, so both states write the same
        // cell bytes.
        for (a, b) in st.cells.iter().zip(&restored.cells) {
            let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
            a.snap(&mut wa);
            b.snap(&mut wb);
            assert!(wa.into_bytes() == wb.into_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn busy_cell_keeps_a_short_catch_up_log() {
        let net = tiny();
        let mut st = net.build_state();
        let (c, busy, parked) = st
            .slot_owner
            .iter()
            .enumerate()
            .find_map(|(c, slots)| {
                let busy = slots.iter().position(|o| o.is_some())?;
                let parked = slots.iter().position(|o| o.is_none())?;
                Some((c, busy, parked))
            })
            .expect("a cell with an occupied and a vacant slot");
        let cell = &mut st.cells[c];
        // One flow far larger than three seconds can carry keeps the
        // cell active on every TTI.
        cell.schedule_flow(Time::ZERO, busy, 1 << 30, None);
        cell.run_until(Time::from_secs(3));
        assert!(cell.channel().is_parked(parked));
        assert!(cell.channel().tti_index() >= 3000);
        assert!(
            cell.channel().park_log_len() <= 2,
            "log holds {} runs",
            cell.channel().park_log_len()
        );
    }
}
