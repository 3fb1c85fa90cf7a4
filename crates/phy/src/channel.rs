//! The composed per-cell channel model.
//!
//! [`CellChannel`] holds the per-UE channel state in a structure-of-arrays
//! layout (one contiguous plane per quantity, indexed by dense UE index)
//! and exposes exactly the interface a MAC scheduler consumes:
//!
//! * `reported_rate_per_rb(ue, rb)` — the achievable rate `r_{u,b}(t)` of
//!   eq. (1), derived from the **reported** (periodic, possibly stale) CQI;
//! * `actual_sinr_db(ue, rb)` — ground truth at transmission time, feeding
//!   the BLER model for link-layer losses;
//! * `advance_tti()` — evolves fading/mobility/shadowing and refreshes CQI
//!   reports on their period.
//!
//! SINR composition (all in dB):
//!
//! ```text
//! SINR = tx_power − pathloss(d) − noise(+NF) + shadowing + fading·scale
//! ```
//!
//! with log-distance path loss, AR(1) log-normal shadowing decorrelating
//! over distance, and the Rayleigh subband fading of [`crate::fading`]
//! (the same AR(1) tap recursion, batched here over flat tap planes).
//! `fading·scale` lets scenarios dial channel volatility: the paper's LTE
//! traces are volatile (SRJF collapses, §6.2) while its 5G-LENA traces are
//! "more stable and steady" (SRJF ideal, Appendix B) — we reproduce both
//! regimes with the same machinery.
//!
//! ## Data layout & bit-identity
//!
//! The hot per-TTI state lives in flat `Vec`s keyed by `ue * n_subbands +
//! sb` (tap planes, CQI planes) or by `ue` (large-scale terms, RNG
//! streams, reporting clocks). The large-scale part of the SINR —
//! `((tx − pathloss) − noise) + shadow` — is cached per UE and refreshed
//! only when mobility or shadowing actually changes it, so the per-TTI
//! loops are pure array passes. Every cached value is a pure function of
//! the state it is derived from, every floating-point expression keeps
//! the historical association order, and every RNG stream is walked in
//! the historical draw order, so results are bit-identical to the
//! previous per-UE-struct implementation (locked in by the golden-trace
//! digest tests in `outran-ran`).
//!
//! ## Parked slots
//!
//! A network layer provisions more UE slots than it fills, and a vacant
//! slot's channel is never read. [`CellChannel::park`] takes a slot out
//! of the per-TTI passes: each advance is appended to a run-length
//! catch-up log instead, and the slot replays the log through the same
//! per-UE fading, mobility and reporting steps before anything reads or
//! writes its state. The replay walks the slot's own RNG streams in the
//! same order with the same `ρᵏ`, so a parked slot ends up bit-identical
//! to one that was never parked (see DESIGN.md "Virtual-time skipping").

use std::borrow::Cow;
use std::f64::consts::FRAC_1_SQRT_2;

use outran_simcore::{Dur, Normal, Rng, Time};

use crate::bler::BlerModel;
use crate::cqi::{Cqi, CqiTable};
use crate::mobility::RandomWalk;
use crate::numerology::RadioConfig;
use crate::UeId;

/// Static configuration of the cell channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Frame/bandwidth configuration.
    pub radio: RadioConfig,
    /// MCS table in use.
    pub table: CqiTable,
    /// Number of frequency subbands with independent fading.
    pub n_subbands: usize,
    /// Downlink carrier frequency (Hz) — sets the Doppler spread.
    pub carrier_hz: f64,
    /// Transmit power per RB (dBm).
    pub tx_power_dbm: f64,
    /// UE receiver noise figure (dB).
    pub noise_figure_db: f64,
    /// Log-distance path-loss exponent.
    pub pathloss_exp: f64,
    /// Path loss at the 1 m reference distance (dB).
    pub pathloss_ref_db: f64,
    /// Log-normal shadowing standard deviation (dB).
    pub shadowing_sd_db: f64,
    /// Shadowing decorrelation distance (m).
    pub shadowing_corr_m: f64,
    /// Fading amplitude scale: 1.0 = full Rayleigh, 0.0 = AWGN-like.
    pub fading_scale: f64,
    /// Mixing weight of flat (wideband) fading vs per-subband fading.
    pub flatness: f64,
    /// Cell radius (m) and minimum UE distance (m).
    pub radius_m: f64,
    /// Minimum UE distance from the antenna (m).
    pub min_radius_m: f64,
    /// UE speed (m/s); 0 = static.
    pub ue_speed_mps: f64,
    /// CQI reporting period, in TTIs.
    pub cqi_period_ttis: u32,
    /// Age of the report when the scheduler uses it, in TTIs.
    pub cqi_delay_ttis: u32,
    /// SINR ceiling (dB) modelling interference/EVM floors.
    pub sinr_cap_db: f64,
    /// BLER truth model.
    pub bler: BlerModel,
    /// Mobility update period.
    pub mobility_step: Dur,
    /// External geometry mode: a network layer owns UE positions,
    /// shadowing and interference and pushes them through
    /// [`CellChannel::set_ue_geometry`]; the cell's own walkers stay
    /// frozen. `false` (the default) keeps the historical single-cell
    /// behaviour bit for bit.
    pub external_geometry: bool,
}

impl ChannelConfig {
    /// Sensible LTE macro-cell defaults (pedestrian scenario, §3/§6.2).
    pub fn lte_default() -> ChannelConfig {
        ChannelConfig {
            radio: RadioConfig::lte20(),
            table: CqiTable::Qam256,
            n_subbands: 8,
            carrier_hz: 1.805e9, // Band 3 DL as in the NS-3 LTE setting
            tx_power_dbm: 23.0,
            noise_figure_db: 7.0,
            // Calibrated so the mean-SINR spread across the 10–200 m cell
            // matches Fig 2b (≈2–45 dB, Medium/Good/Excellent, no UE in
            // outage).
            pathloss_exp: 3.5,
            pathloss_ref_db: 46.0,
            shadowing_sd_db: 4.0,
            shadowing_corr_m: 37.0,
            fading_scale: 1.0,
            flatness: 0.3,
            radius_m: 200.0,
            min_radius_m: 10.0,
            ue_speed_mps: 1.4,
            cqi_period_ttis: 5,
            cqi_delay_ttis: 2,
            sinr_cap_db: 45.0,
            bler: BlerModel::default(),
            mobility_step: Dur::from_millis(100),
            external_geometry: false,
        }
    }

    /// Thermal noise power over one RB bandwidth, plus noise figure (dBm).
    pub fn noise_dbm(&self) -> f64 {
        let bw_hz = self.radio.numerology.subchannel_khz() as f64 * 1e3;
        -174.0 + 10.0 * bw_hz.log10() + self.noise_figure_db
    }

    /// Maximum Doppler shift for the configured speed/carrier (Hz).
    pub fn doppler_hz(&self) -> f64 {
        self.ue_speed_mps * self.carrier_hz / 299_792_458.0
    }
}

/// One catch-up log entry: `n` consecutive advances of `k` TTIs each,
/// the first starting at TTI index `from` and ending at instant `now`.
/// Step `j` starts at `from + j·k` and ends at `now + j·k` TTIs.
#[derive(Debug, Clone, Copy)]
struct LoggedRun {
    from: u64,
    now: Time,
    k: u64,
    n: u64,
}

impl LoggedRun {
    /// TTI index right after the run's last step.
    fn end(&self) -> u64 {
        self.from + self.n * self.k
    }
}

/// The full cell channel: configuration + per-UE state planes.
///
/// Per-(UE, subband) planes are indexed `ue * n_subbands + sb`; per-UE
/// planes by the dense UE index. The RNG streams are exactly those of the
/// historical per-UE-struct layout: one general-purpose stream per UE
/// (shadowing innovations, CQI corruption, BLER draws), one mobility
/// stream inside each [`RandomWalk`], and one fading stream per UE.
#[derive(Debug, Clone)]
pub struct CellChannel {
    cfg: ChannelConfig,
    n_ues: usize,
    n_subbands: usize,
    rbs_per_subband: u16,
    tti_index: u64,

    // Large-scale state (cold path: changes on mobility steps only).
    walkers: Vec<RandomWalk>,
    shadow_db: Vec<f64>,
    dist_since_shadow: Vec<f64>,
    /// Cached `pathloss_db(distance)` per UE.
    pathloss_db: Vec<f64>,
    /// Cached `((tx − pathloss) − noise) + shadow` per UE — the exact
    /// large-scale prefix of the SINR composition.
    sinr_const_db: Vec<f64>,
    /// Hoisted `cfg.noise_dbm()` (pure function of the config).
    noise_dbm: f64,
    /// Per-UE interference-plus-noise power (dBm). Initialised to the
    /// thermal `noise_dbm` (an isolated cell sees no interference); a
    /// network layer overwrites it at epoch boundaries with the
    /// load-coupled neighbor interference, which then flows into the
    /// cached `sinr_const_db` plane so the dense kernels stay branch-free.
    iplusn_dbm: Vec<f64>,
    /// Per-UE serving-site distance (m) pushed by the network layer; only
    /// read when `ext_geometry` is set.
    ext_dist_m: Vec<f64>,
    /// Whether geometry (distance / shadowing / I+N) is owned externally
    /// (see [`ChannelConfig::external_geometry`]).
    ext_geometry: bool,

    // Small-scale fading tap planes (hot path: advanced every TTI).
    fade_sb_re: Vec<f64>,
    fade_sb_im: Vec<f64>,
    fade_wb_re: Vec<f64>,
    fade_wb_im: Vec<f64>,
    /// Per-UE AR(1) coefficient (snapshots may carry per-UE values).
    fade_rho: Vec<f64>,
    /// Per-UE wideband mixing weight.
    fade_flatness: Vec<f64>,
    fade_rng: Vec<Rng>,

    // CQI reporting planes.
    /// Reported CQI per (UE, subband) — what the scheduler sees.
    reported: Vec<Cqi>,
    /// Pending (measured, undelivered) CQI per (UE, subband).
    pending: Vec<Cqi>,
    /// Version stamp of each UE's reported row: bumped on every delivered
    /// report, so the MAC can cache per-UE metric rows and revalidate in
    /// O(1).
    reported_rev: Vec<u64>,
    /// Whether `pending` holds a measurement not yet delivered (guards
    /// against re-delivering the same report every TTI).
    pending_fresh: Vec<bool>,
    pending_due: Vec<Time>,
    next_report_at: Vec<Time>,
    ue_rng: Vec<Rng>,
    /// Achievable bits per RB per TTI for each CQI value (pure function
    /// of the MCS table and numerology).
    rate_per_cqi: [f64; 16],

    // Fault injection.
    cqi_frozen: Vec<bool>,
    cqi_corrupt: Vec<bool>,
    /// Reports suppressed by freeze windows, parked slots' pending
    /// replays excluded (read through [`CellChannel::cqi_frozen_reports`]).
    frozen_reports: u64,
    /// Reports replaced by corruption windows, likewise.
    corrupted_reports: u64,

    // Parked slots (runtime machinery, never snapshotted: a snapshot
    // writes every slot caught up, and a restore starts unparked).
    /// Whether each UE slot is parked.
    parked: Vec<bool>,
    /// TTI index a parked slot's state is current at.
    parked_at: Vec<u64>,
    /// Number of parked slots; the log is kept only while it is positive.
    n_parked: usize,
    /// The advances some parked slot has not replayed yet, oldest first.
    park_log: Vec<LoggedRun>,
}

impl CellChannel {
    /// Create a channel with `n_ues` UEs placed per the config.
    pub fn new(cfg: ChannelConfig, n_ues: usize, root_rng: &Rng) -> CellChannel {
        let n_rbs = cfg.radio.num_rbs();
        let n_subbands = cfg.n_subbands.min(n_rbs as usize).max(1);
        let rbs_per_subband = n_rbs.div_ceil(n_subbands as u16);
        let rho = if cfg.doppler_hz() <= 0.0 {
            1.0
        } else {
            // Clarke's rule of thumb: T_c ≈ 0.423 / f_d (see crate::fading).
            let coherence_s = 0.423 / cfg.doppler_hz();
            (-cfg.radio.tti().as_secs_f64() / coherence_s).exp()
        };
        let g = Normal::new(0.0, FRAC_1_SQRT_2);

        let mut ch = CellChannel {
            cfg,
            n_ues,
            n_subbands,
            rbs_per_subband,
            tti_index: 0,
            walkers: Vec::with_capacity(n_ues),
            shadow_db: Vec::with_capacity(n_ues),
            dist_since_shadow: vec![0.0; n_ues],
            pathloss_db: vec![0.0; n_ues],
            sinr_const_db: vec![0.0; n_ues],
            noise_dbm: cfg.noise_dbm(),
            iplusn_dbm: vec![cfg.noise_dbm(); n_ues],
            ext_dist_m: vec![0.0; n_ues],
            ext_geometry: cfg.external_geometry,
            fade_sb_re: Vec::with_capacity(n_ues * n_subbands),
            fade_sb_im: Vec::with_capacity(n_ues * n_subbands),
            fade_wb_re: Vec::with_capacity(n_ues),
            fade_wb_im: Vec::with_capacity(n_ues),
            fade_rho: vec![rho; n_ues],
            fade_flatness: vec![cfg.flatness; n_ues],
            fade_rng: Vec::with_capacity(n_ues),
            reported: vec![Cqi(0); n_ues * n_subbands],
            pending: vec![Cqi(0); n_ues * n_subbands],
            reported_rev: vec![0; n_ues],
            pending_fresh: vec![false; n_ues],
            pending_due: vec![Time::ZERO; n_ues],
            next_report_at: vec![Time::ZERO; n_ues],
            ue_rng: Vec::with_capacity(n_ues),
            rate_per_cqi: rate_lut(&cfg),
            cqi_frozen: vec![false; n_ues],
            cqi_corrupt: vec![false; n_ues],
            frozen_reports: 0,
            corrupted_reports: 0,
            parked: vec![false; n_ues],
            parked_at: vec![0; n_ues],
            n_parked: 0,
            park_log: Vec::new(),
        };

        for i in 0..n_ues {
            // Historical per-UE stream layout: general stream forked off
            // the root, walker and fading streams forked off that one.
            let mut rng = root_rng.fork(0x9999_0000 + i as u64);
            let walker = RandomWalk::new(
                cfg.radius_m,
                cfg.min_radius_m,
                cfg.ue_speed_mps,
                rng.fork(1),
            );
            // Initial taps: subband taps in index order, then the
            // wideband tap, each drawing re before im (Tap::new order).
            let mut frng = rng.fork(2);
            for _ in 0..n_subbands {
                ch.fade_sb_re.push(g.sample(&mut frng));
                ch.fade_sb_im.push(g.sample(&mut frng));
            }
            ch.fade_wb_re.push(g.sample(&mut frng));
            ch.fade_wb_im.push(g.sample(&mut frng));
            ch.fade_rng.push(frng);
            let shadow_db = Normal::new(0.0, cfg.shadowing_sd_db).sample(&mut rng);
            ch.walkers.push(walker);
            ch.shadow_db.push(shadow_db);
            ch.ue_rng.push(rng);
            ch.refresh_large_scale(i);
        }
        // Prime reports so the first TTI already has usable CQI.
        for u in 0..n_ues {
            ch.measure_into_pending(u);
            let base = u * n_subbands;
            ch.reported[base..base + n_subbands]
                .copy_from_slice(&ch.pending[base..base + n_subbands]);
            ch.reported_rev[u] = 1;
        }
        ch
    }

    /// Configuration in use.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Number of attached UEs.
    pub fn n_ues(&self) -> usize {
        self.n_ues
    }

    /// Number of RBs in the bandwidth.
    pub fn n_rbs(&self) -> u16 {
        self.cfg.radio.num_rbs()
    }

    /// Subband index carrying resource block `rb`.
    pub fn subband_of_rb(&self, rb: u16) -> usize {
        ((rb / self.rbs_per_subband) as usize).min(self.cfg.n_subbands - 1)
    }

    fn pathloss_db(&self, dist_m: f64) -> f64 {
        crate::geometry::pathloss_db(self.cfg.pathloss_ref_db, self.cfg.pathloss_exp, dist_m)
    }

    /// Recompute the cached large-scale SINR terms for `ue` (call after
    /// any mobility, shadowing or interference change).
    ///
    /// The `− iplusn_dbm[ue]` term replaces the historical `− noise_dbm`
    /// scalar with the *same expression shape*; the plane is initialised
    /// to exactly `noise_dbm`, so an isolated cell computes bit-identical
    /// SINR to the pre-network implementation.
    fn refresh_large_scale(&mut self, ue: usize) {
        let dist = if self.ext_geometry {
            self.ext_dist_m[ue]
        } else {
            self.walkers[ue].pos().dist_origin()
        };
        let pl = self.pathloss_db(dist);
        self.pathloss_db[ue] = pl;
        self.sinr_const_db[ue] =
            self.cfg.tx_power_dbm - pl - self.iplusn_dbm[ue] + self.shadow_db[ue];
    }

    /// Instantaneous fading power gain (linear) for `(ue, sb)` — the
    /// [`crate::fading::FadingProcess::gain_linear`] composition over the
    /// flat tap planes.
    fn fading_gain_linear(&self, ue: usize, sb: usize) -> f64 {
        let i = ue * self.n_subbands + sb;
        let s = self.fade_sb_re[i] * self.fade_sb_re[i] + self.fade_sb_im[i] * self.fade_sb_im[i];
        let w =
            self.fade_wb_re[ue] * self.fade_wb_re[ue] + self.fade_wb_im[ue] * self.fade_wb_im[ue];
        self.fade_flatness[ue] * w + (1.0 - self.fade_flatness[ue]) * s
    }

    /// Instantaneous fading gain in dB for `(ue, sb)`.
    fn fading_gain_db(&self, ue: usize, sb: usize) -> f64 {
        10.0 * self.fading_gain_linear(ue, sb).max(1e-12).log10()
    }

    /// Ground-truth SINR (dB) of `ue` on subband `sb` right now.
    pub fn actual_sinr_db_subband(&self, ue: usize, sb: usize) -> f64 {
        let fading = self.fading_gain_db(ue, sb) * self.cfg.fading_scale;
        let sinr = self.sinr_const_db[ue] + fading;
        sinr.min(self.cfg.sinr_cap_db)
    }

    /// Ground-truth SINR (dB) of `ue` on RB `rb` right now.
    pub fn actual_sinr_db(&self, ue: usize, rb: u16) -> f64 {
        self.debug_assert_current(ue);
        self.actual_sinr_db_subband(ue, self.subband_of_rb(rb))
    }

    /// Mean (distance + shadowing only) SINR of a UE — the Fig 2b quantity.
    pub fn mean_sinr_db(&self, ue: usize) -> f64 {
        self.debug_assert_current(ue);
        self.sinr_const_db[ue].min(self.cfg.sinr_cap_db)
    }

    /// Measure the current CQI of every subband of `ue` into its pending
    /// row (no allocation — the hot-path replacement of the old
    /// measure-into-a-fresh-`Vec`).
    fn measure_into_pending(&mut self, ue: usize) {
        let base = ue * self.n_subbands;
        for sb in 0..self.n_subbands {
            let sinr = self.actual_sinr_db_subband(ue, sb);
            self.pending[base + sb] = self.cfg.table.sinr_to_cqi(sinr);
        }
    }

    /// CQI the scheduler currently believes for `ue` on subband `sb`.
    pub fn reported_cqi_subband(&self, ue: usize, sb: usize) -> Cqi {
        self.debug_assert_current(ue);
        self.reported[ue * self.n_subbands + sb]
    }

    /// Version stamp of `ue`'s reported CQI vector: two equal stamps
    /// guarantee identical reported rates on every subband, letting the
    /// MAC revalidate cached metric rows without touching the CQIs.
    pub fn report_version(&self, ue: usize) -> u64 {
        self.debug_assert_current(ue);
        self.reported_rev[ue]
    }

    /// CQI the scheduler currently believes for `ue` on RB `rb`.
    pub fn reported_cqi(&self, ue: usize, rb: u16) -> Cqi {
        self.reported_cqi_subband(ue, self.subband_of_rb(rb))
    }

    /// Achievable bits in one RB over one TTI for `ue` on `rb`, per the
    /// reported CQI — the `r_{u,b}(t)` of eq. (1) expressed in bits/TTI.
    pub fn reported_rate_per_rb(&self, ue: usize, rb: u16) -> f64 {
        let cqi = self.reported_cqi(ue, rb);
        self.rate_per_cqi[cqi.0 as usize]
    }

    /// Same as [`CellChannel::reported_rate_per_rb`] but per subband
    /// (cheaper for the scheduler's inner loop).
    pub fn reported_rate_per_rb_subband(&self, ue: usize, sb: usize) -> f64 {
        let cqi = self.reported_cqi_subband(ue, sb);
        self.rate_per_cqi[cqi.0 as usize]
    }

    /// Fill `out` (length ≥ number of subbands) with `ue`'s reported
    /// achievable rates per subband — the bulk form of
    /// [`CellChannel::reported_rate_per_rb_subband`] for the MAC's flat
    /// rate-matrix refresh.
    pub fn fill_reported_rates(&self, ue: usize, out: &mut [f64]) {
        self.debug_assert_current(ue);
        let base = ue * self.n_subbands;
        for (sb, r) in out.iter_mut().enumerate().take(self.n_subbands) {
            *r = self.rate_per_cqi[self.reported[base + sb].0 as usize];
        }
    }

    /// Draw the success/failure of a transport block sent to `ue` across
    /// subband `sb` at the MCS implied by the reported CQI.
    pub fn transmission_succeeds(&mut self, ue: usize, sb: usize) -> bool {
        self.transmission_succeeds_with_gain(ue, sb, 0.0)
    }

    /// Batched form of [`CellChannel::transmission_succeeds`] for one
    /// UE's fresh transport blocks: for every subband whose scheduled
    /// bits reach `min_bits`, draw the air-interface outcome into
    /// `out[sb]`, ascending. The per-UE terms (wideband tap power,
    /// flatness, large-scale SINR, RNG) are hoisted out of the subband
    /// loop; draw order and results are identical to calling
    /// [`CellChannel::transmission_succeeds`] per qualifying subband in
    /// order. Below-threshold subbands draw nothing and read `false`.
    pub fn fresh_outcomes(
        &mut self,
        ue: usize,
        bits_per_sb: &[f64],
        min_bits: f64,
        out: &mut [bool],
    ) {
        let n_sb = self.n_subbands;
        debug_assert!(bits_per_sb.len() >= n_sb && out.len() >= n_sb);
        if self.parked[ue] && bits_per_sb[..n_sb].iter().any(|&b| b >= min_bits) {
            self.catch_up(ue);
        }
        let base = ue * n_sb;
        let sb_re = &self.fade_sb_re[base..base + n_sb];
        let sb_im = &self.fade_sb_im[base..base + n_sb];
        let reported = &self.reported[base..base + n_sb];
        let w =
            self.fade_wb_re[ue] * self.fade_wb_re[ue] + self.fade_wb_im[ue] * self.fade_wb_im[ue];
        let flat = self.fade_flatness[ue];
        let sinr_const = self.sinr_const_db[ue];
        let cap = self.cfg.sinr_cap_db;
        let scale = self.cfg.fading_scale;
        let bler = self.cfg.bler;
        let table = self.cfg.table;
        let rng = &mut self.ue_rng[ue];
        for sb in 0..n_sb {
            out[sb] = false;
            if bits_per_sb[sb] < min_bits {
                continue;
            }
            let s = sb_re[sb] * sb_re[sb] + sb_im[sb] * sb_im[sb];
            let gain_db = 10.0 * (flat * w + (1.0 - flat) * s).max(1e-12).log10();
            let actual = (sinr_const + gain_db * scale).min(cap);
            let p_err = bler.error_prob(table, reported[sb], actual);
            out[sb] = !rng.chance(p_err);
        }
    }

    /// Like [`CellChannel::transmission_succeeds`], with an extra
    /// effective-SINR gain in dB (HARQ chase combining).
    pub fn transmission_succeeds_with_gain(&mut self, ue: usize, sb: usize, gain_db: f64) -> bool {
        self.catch_up(ue);
        let cqi = self.reported[ue * self.n_subbands + sb];
        let actual = self.actual_sinr_db_subband(ue, sb) + gain_db;
        let p_err = self.cfg.bler.error_prob(self.cfg.table, cqi, actual);
        !self.ue_rng[ue].chance(p_err)
    }

    /// Advance the channel by one TTI: fading always, mobility/shadowing on
    /// their period, CQI reporting per the configured period and delay.
    pub fn advance_tti(&mut self, now: Time) {
        self.advance_span(now, 1);
    }

    /// Advance the channel to the TTI grid point `now`, composing every
    /// TTI since the previous advance into one distribution-preserving
    /// jump (see DESIGN.md "Virtual-time skipping"). A one-TTI gap is
    /// bitwise-identical to [`CellChannel::advance_tti`]; a no-op when
    /// the channel is already at (or past) `now`.
    pub fn advance_to(&mut self, now: Time) {
        let tti = self.cfg.radio.tti();
        let target = now.as_nanos() / tti.as_nanos();
        if target > self.tti_index {
            self.advance_span(now, target - self.tti_index);
        }
    }

    /// Number of TTIs the channel has advanced through.
    pub fn tti_index(&self) -> u64 {
        self.tti_index
    }

    /// Advance all per-UE processes by `k` TTIs ending at `now`.
    ///
    /// Fading takes one composed AR(1) jump (`ρᵏ`), mobility takes one
    /// composed walk covering every crossed mobility period, and the CQI
    /// reporting loop runs once at `now` — identical draw sequence
    /// whether a gap is skipped here or never existed.
    ///
    /// The three concerns run as three array passes. Splitting the old
    /// per-UE loop this way is bit-identical because each pass walks a
    /// disjoint RNG stream set per UE (fading stream / walker stream /
    /// general stream), and within every single stream the draw order is
    /// unchanged (for the shared general stream: shadowing innovations in
    /// the mobility pass still precede that UE's corruption draws in the
    /// reporting pass). The same independence lets a parked slot skip
    /// all three passes and replay them later, one UE at a time.
    fn advance_span(&mut self, now: Time, k: u64) {
        let from = self.tti_index;
        self.tti_index += k;
        let tti = self.cfg.radio.tti();
        let crossings = self.crossings(from, k);
        if self.n_parked > 0 {
            self.log_advance(from, now, k);
        }

        self.advance_fading(k);
        // In external-geometry mode the network layer owns positions and
        // shadowing (pushed at epoch boundaries); the per-cell walkers
        // stay frozen and the UE streams draw no shadowing innovations.
        if crossings > 0 && !self.ext_geometry {
            self.advance_mobility(crossings);
        }
        self.reporting_pass(now, tti);
    }

    /// Mobility periods crossed by an advance of `k` TTIs from TTI
    /// index `from`.
    fn crossings(&self, from: u64, k: u64) -> u64 {
        let tti = self.cfg.radio.tti();
        let mobility_every = (self.cfg.mobility_step.as_nanos() / tti.as_nanos()).max(1);
        (from + k) / mobility_every - from / mobility_every
    }

    /// Batched AR(1) fading advance: one walk down each unparked UE's
    /// fading stream, updating the flat tap planes in place.
    fn advance_fading(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        let g = Normal::new(0.0, FRAC_1_SQRT_2);
        for ue in 0..self.n_ues {
            if !self.parked[ue] {
                self.fade_ue(ue, k, &g);
            }
        }
    }

    /// Advance `ue`'s fading taps by `k` TTIs.
    #[inline]
    fn fade_ue(&mut self, ue: usize, k: u64, g: &Normal) {
        let rho = self.fade_rho[ue];
        if rho >= 1.0 {
            return; // static channel: no draws
        }
        // k-step AR(1) composition: coefficient ρᵏ, one draw pair per
        // tap (k == 1 keeps ρ itself, matching the historical
        // single-step path bit for bit).
        let rho_k = if k == 1 {
            rho
        } else {
            rho.powi(k.min(i32::MAX as u64) as i32)
        };
        let w = (1.0 - rho_k * rho_k).sqrt();
        let rng = &mut self.fade_rng[ue];
        let base = ue * self.n_subbands;
        // Draw order per tap: re before im; subband taps in index
        // order, wideband last (the Tap::advance order).
        for t in base..base + self.n_subbands {
            let z_re = g.sample(rng);
            let z_im = g.sample(rng);
            self.fade_sb_re[t] = rho_k * self.fade_sb_re[t] + w * z_re;
            self.fade_sb_im[t] = rho_k * self.fade_sb_im[t] + w * z_im;
        }
        let z_re = g.sample(rng);
        let z_im = g.sample(rng);
        self.fade_wb_re[ue] = rho_k * self.fade_wb_re[ue] + w * z_re;
        self.fade_wb_im[ue] = rho_k * self.fade_wb_im[ue] + w * z_im;
    }

    /// Composed mobility + shadowing pass over all unparked UEs.
    fn advance_mobility(&mut self, crossings: u64) {
        for ue in 0..self.n_ues {
            if !self.parked[ue] {
                self.move_ue(ue, crossings);
            }
        }
    }

    /// Walk `ue` across `crossings` mobility periods, evolve its
    /// shadowing, and refresh its cached large-scale SINR terms.
    fn move_ue(&mut self, ue: usize, crossings: u64) {
        let before = self.walkers[ue].pos();
        // Step-by-step (not one composed jump) so heading changes
        // consume the whole elapsed span: idle skips and dense
        // stepping agree on walker statistics (see
        // `RandomWalk::advance_steps`).
        self.walkers[ue].advance_steps(self.cfg.mobility_step, crossings);
        let after = self.walkers[ue].pos();
        let moved = ((after.x - before.x).powi(2) + (after.y - before.y).powi(2)).sqrt();
        self.dist_since_shadow[ue] += moved;
        // Shadowing evolves once the UE crossed a correlation step.
        if self.dist_since_shadow[ue] >= self.cfg.shadowing_corr_m / 4.0 {
            let rho = (-self.dist_since_shadow[ue] / self.cfg.shadowing_corr_m).exp();
            let innovation =
                Normal::new(0.0, self.cfg.shadowing_sd_db).sample(&mut self.ue_rng[ue]);
            self.shadow_db[ue] = rho * self.shadow_db[ue] + (1.0 - rho * rho).sqrt() * innovation;
            self.dist_since_shadow[ue] = 0.0;
        }
        self.refresh_large_scale(ue);
    }

    /// CQI reporting pass over all unparked UEs.
    fn reporting_pass(&mut self, now: Time, tti: Dur) {
        for ue in 0..self.n_ues {
            if !self.parked[ue] {
                self.report_ue(ue, now, tti);
            }
        }
    }

    /// `ue`'s reporting step at `now`: deliver an aged pending report,
    /// take a new measurement on the reporting period, honour fault
    /// windows.
    #[inline]
    fn report_ue(&mut self, ue: usize, now: Time, tti: Dur) {
        // Freeze fault: the reporting loop stalls — no pending
        // delivery, no new measurement. The scheduler keeps acting on
        // the last delivered report while the channel drifts.
        if self.cqi_frozen[ue] {
            if self.next_report_at[ue] <= now {
                self.frozen_reports += 1;
                self.next_report_at[ue] = now + tti.mul(self.cfg.cqi_period_ttis as u64);
            }
            return;
        }
        // Deliver a pending report that has aged past the delay —
        // once per measurement (the fresh flag stops the old
        // per-TTI re-clone of an already-delivered report).
        if self.pending_fresh[ue] && self.pending_due[ue] <= now {
            let base = ue * self.n_subbands;
            for i in base..base + self.n_subbands {
                std::mem::swap(&mut self.reported[i], &mut self.pending[i]);
            }
            self.pending_fresh[ue] = false;
            self.reported_rev[ue] += 1;
        }
        // Take a new measurement on the reporting period.
        if self.next_report_at[ue] <= now {
            if self.cqi_corrupt[ue] {
                // Corruption fault: the report is garbage, drawn from
                // the UE's own stream so runs stay deterministic.
                self.corrupted_reports += 1;
                let base = ue * self.n_subbands;
                for sb in 0..self.n_subbands {
                    self.pending[base + sb] = Cqi(self.ue_rng[ue].index(16) as u8);
                }
            } else {
                self.measure_into_pending(ue);
            }
            self.pending_fresh[ue] = true;
            self.pending_due[ue] = now + tti.mul(self.cfg.cqi_delay_ttis as u64);
            self.next_report_at[ue] = now + tti.mul(self.cfg.cqi_period_ttis as u64);
        }
    }

    /// Park slot `ue`: the per-TTI passes skip it and every later
    /// advance is logged for it instead, until [`CellChannel::unpark`].
    /// Whatever reads or writes the slot's state first replays the log
    /// through the same per-UE steps, so parking never changes a result;
    /// it only saves the work nobody reads. The slot must carry no
    /// traffic while parked. A no-op on a parked slot.
    pub fn park(&mut self, ue: usize) {
        if !self.parked[ue] {
            self.parked[ue] = true;
            self.parked_at[ue] = self.tti_index;
            self.n_parked += 1;
        }
    }

    /// Catch slot `ue` up and return it to the per-TTI passes. A no-op
    /// on a slot that is not parked.
    pub fn unpark(&mut self, ue: usize) {
        if self.parked[ue] {
            self.catch_up(ue);
            self.parked[ue] = false;
            self.n_parked -= 1;
            self.trim_log();
        }
    }

    /// Whether slot `ue` is parked.
    pub fn is_parked(&self, ue: usize) -> bool {
        self.parked[ue]
    }

    /// Entries in the catch-up log. One entry covers a run of equal,
    /// back-to-back advances, so a busy cell adds one entry per
    /// composed jump, not one per TTI.
    pub fn park_log_len(&self) -> usize {
        self.park_log.len()
    }

    /// Whether `ue` is parked and behind the channel clock.
    fn lags(&self, ue: usize) -> bool {
        self.parked[ue] && self.parked_at[ue] < self.tti_index
    }

    fn debug_assert_current(&self, ue: usize) {
        debug_assert!(!self.lags(ue), "read of parked slot {ue} before catch-up");
    }

    /// Append an advance of `k` TTIs from TTI index `from`, ending at
    /// `now`, to the catch-up log, extending the last run when it
    /// continues it.
    fn log_advance(&mut self, from: u64, now: Time, k: u64) {
        let tti = self.cfg.radio.tti();
        if let Some(last) = self.park_log.last_mut() {
            if last.k == k && last.end() == from && last.now + tti.mul(last.n * k) == now {
                last.n += 1;
                return;
            }
        }
        self.park_log.push(LoggedRun { from, now, k, n: 1 });
    }

    /// Replay every logged advance parked slot `ue` has missed, step by
    /// step, through the per-UE fading, mobility and reporting steps the
    /// per-TTI passes run. A no-op on a current or unparked slot.
    fn catch_up(&mut self, ue: usize) {
        if !self.lags(ue) {
            return;
        }
        let g = Normal::new(0.0, FRAC_1_SQRT_2);
        let tti = self.cfg.radio.tti();
        let at = self.parked_at[ue];
        let first = self.park_log.partition_point(|r| r.end() <= at);
        for i in first..self.park_log.len() {
            let run = self.park_log[i];
            // Steps of this run the slot already went through.
            let done = at.saturating_sub(run.from) / run.k;
            for j in done..run.n {
                let from = run.from + j * run.k;
                self.fade_ue(ue, run.k, &g);
                let crossings = self.crossings(from, run.k);
                if crossings > 0 && !self.ext_geometry {
                    self.move_ue(ue, crossings);
                }
                self.report_ue(ue, run.now + tti.mul(j * run.k), tti);
            }
        }
        self.parked_at[ue] = self.tti_index;
        self.trim_log();
    }

    /// Drop the log prefix no parked slot still needs.
    fn trim_log(&mut self) {
        let oldest = (0..self.n_ues)
            .filter(|&u| self.parked[u])
            .map(|u| self.parked_at[u])
            .min();
        match oldest {
            Some(at) => {
                let stale = self.park_log.partition_point(|r| r.end() <= at);
                self.park_log.drain(..stale);
            }
            None => self.park_log.clear(),
        }
    }

    /// This channel, or a copy with every lagging parked slot picked by
    /// `pick` caught up: the view `&self` readers of cell-wide state use.
    fn caught_up(&self, pick: impl Fn(usize) -> bool) -> Cow<'_, CellChannel> {
        let behind: Vec<usize> = (0..self.n_ues)
            .filter(|&u| self.lags(u) && pick(u))
            .collect();
        if behind.is_empty() {
            return Cow::Borrowed(self);
        }
        let mut ch = self.clone();
        for ue in behind {
            ch.catch_up(ue);
        }
        Cow::Owned(ch)
    }

    /// Reports suppressed by freeze windows (diagnostics). Only a
    /// parked slot with a fault flag set can owe the counters a replay.
    pub fn cqi_frozen_reports(&self) -> u64 {
        self.caught_up(|u| self.cqi_frozen[u]).frozen_reports
    }

    /// Reports replaced by corruption windows (diagnostics).
    pub fn cqi_corrupted_reports(&self) -> u64 {
        self.caught_up(|u| self.cqi_corrupt[u]).corrupted_reports
    }

    /// Distance of `ue` from the base station (m).
    pub fn ue_distance(&self, ue: usize) -> f64 {
        self.debug_assert_current(ue);
        if self.ext_geometry {
            self.ext_dist_m[ue]
        } else {
            self.walkers[ue].pos().dist_origin()
        }
    }

    /// Thermal noise floor (dBm) hoisted from the config — the I+N value
    /// an interference-free UE sees.
    pub fn noise_floor_dbm(&self) -> f64 {
        self.noise_dbm
    }

    /// Whether geometry is owned by an external network layer.
    pub fn external_geometry(&self) -> bool {
        self.ext_geometry
    }

    /// Network-layer geometry push for `ue`: serving-site distance (m),
    /// shadowing toward the serving site (dB) and interference-plus-noise
    /// power (dBm). Refreshes the cached large-scale SINR immediately.
    /// Only meaningful in external-geometry mode.
    pub fn set_ue_geometry(&mut self, ue: usize, dist_m: f64, shadow_db: f64, iplusn_dbm: f64) {
        debug_assert!(
            self.ext_geometry,
            "set_ue_geometry on a channel that owns its own geometry"
        );
        self.catch_up(ue);
        self.ext_dist_m[ue] = dist_m;
        self.shadow_db[ue] = shadow_db;
        self.iplusn_dbm[ue] = iplusn_dbm;
        self.refresh_large_scale(ue);
    }

    /// Update only `ue`'s interference-plus-noise term (the epoch-boundary
    /// load-coupling path; position and shadowing are unchanged).
    pub fn set_ue_iplusn(&mut self, ue: usize, iplusn_dbm: f64) {
        self.catch_up(ue);
        self.iplusn_dbm[ue] = iplusn_dbm;
        self.refresh_large_scale(ue);
    }

    /// Re-prime every UE's reported CQI from the current channel state,
    /// exactly as construction does. Call after an external geometry push
    /// so the first scheduled TTIs don't act on placeholder-geometry
    /// reports. Draws no randomness; bumps each report version.
    pub fn reprime_reports(&mut self) {
        for u in 0..self.n_ues {
            self.catch_up(u);
            self.measure_into_pending(u);
            let base = u * self.n_subbands;
            self.reported[base..base + self.n_subbands]
                .copy_from_slice(&self.pending[base..base + self.n_subbands]);
            self.pending_fresh[u] = false;
            self.reported_rev[u] += 1;
        }
    }

    /// Fault injection: freeze or unfreeze `ue`'s CQI reporting loop.
    /// A parked slot catches up before its flag changes, so its log
    /// replays under the flags in force when each advance happened.
    pub fn set_cqi_frozen(&mut self, ue: usize, frozen: bool) {
        if self.cqi_frozen[ue] != frozen {
            self.catch_up(ue);
            self.cqi_frozen[ue] = frozen;
        }
    }

    /// Fault injection: corrupt (or stop corrupting) `ue`'s new CQI
    /// measurements (a parked slot catches up first, as for a freeze).
    pub fn set_cqi_corrupt(&mut self, ue: usize, corrupt: bool) {
        if self.cqi_corrupt[ue] != corrupt {
            self.catch_up(ue);
            self.cqi_corrupt[ue] = corrupt;
        }
    }
}

/// Precompute achievable bits/RB/TTI for every CQI value.
fn rate_lut(cfg: &ChannelConfig) -> [f64; 16] {
    let mut lut = [0.0; 16];
    for (c, slot) in lut.iter_mut().enumerate() {
        *slot = cfg.table.efficiency(Cqi(c as u8)) * cfg.radio.data_re_per_rb();
    }
    lut
}

/// Identifier helper: convert a [`UeId`] to the dense index used here.
pub fn ue_index(id: UeId) -> usize {
    id.0 as usize
}

use outran_simcore::snap::{SnapError, SnapReader, SnapWriter};

impl CellChannel {
    /// Serialize the dynamic channel state (checkpointing). The
    /// configuration and derived layout (`cfg`, `rbs_per_subband`) are
    /// re-established by constructing the channel from the run config
    /// before [`CellChannel::load_snap`].
    ///
    /// The wire format is unchanged from the per-UE-struct layout: a
    /// sequence of per-UE records (walker, fading taps + ρ + flatness +
    /// fading RNG, shadow, reported/pending CQI rows, reporting clocks,
    /// general RNG) followed by the cell-wide fields. Parked slots are
    /// written caught up (from a copy, so they stay parked here) and the
    /// park state itself is not written: the bytes equal those of a
    /// channel that never parked.
    pub fn snap(&self, w: &mut SnapWriter) {
        self.caught_up(|_| true).snap_current(w);
    }

    /// [`CellChannel::snap`] of a channel with no lagging slot.
    fn snap_current(&self, w: &mut SnapWriter) {
        w.seq(0..self.n_ues, |w, ue| {
            let base = ue * self.n_subbands;
            self.walkers[ue].snap(w);
            w.seq(base..base + self.n_subbands, |w, i| {
                w.f64(self.fade_sb_re[i]);
                w.f64(self.fade_sb_im[i]);
            });
            w.f64(self.fade_wb_re[ue]);
            w.f64(self.fade_wb_im[ue]);
            w.f64(self.fade_rho[ue]);
            w.f64(self.fade_flatness[ue]);
            self.fade_rng[ue].snap(w);
            w.f64(self.shadow_db[ue]);
            w.seq(
                self.reported[base..base + self.n_subbands].iter(),
                |w, c| w.u8(c.0),
            );
            w.u64(self.reported_rev[ue]);
            w.seq(self.pending[base..base + self.n_subbands].iter(), |w, c| {
                w.u8(c.0)
            });
            w.bool(self.pending_fresh[ue]);
            w.time(self.pending_due[ue]);
            w.time(self.next_report_at[ue]);
            self.ue_rng[ue].snap(w);
        });
        w.u64(self.tti_index);
        w.seq(self.dist_since_shadow.iter(), |w, &d| w.f64(d));
        w.seq(self.cqi_frozen.iter(), |w, &b| w.bool(b));
        w.seq(self.cqi_corrupt.iter(), |w, &b| w.bool(b));
        w.u64(self.frozen_reports);
        w.u64(self.corrupted_reports);
        // Network-coupling planes (noise-only / zero in an isolated cell).
        w.seq(self.iplusn_dbm.iter(), |w, &v| w.f64(v));
        w.seq(self.ext_dist_m.iter(), |w, &v| w.f64(v));
    }

    /// Overwrite this channel's dynamic state from [`CellChannel::snap`]
    /// output. The channel must have been constructed with the same
    /// configuration (UE count and subband count are checked). Every
    /// slot comes back unparked.
    pub fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        struct UeRecord {
            walker: RandomWalk,
            taps: Vec<(f64, f64)>,
            wb: (f64, f64),
            rho: f64,
            flatness: f64,
            fade_rng: Rng,
            shadow_db: f64,
            reported: Vec<Cqi>,
            reported_rev: u64,
            pending: Vec<Cqi>,
            pending_fresh: bool,
            pending_due: Time,
            next_report_at: Time,
            rng: Rng,
        }
        let ues = r.seq(|r| {
            Ok(UeRecord {
                walker: RandomWalk::unsnap(r)?,
                taps: r.seq(|r| Ok((r.f64()?, r.f64()?)))?,
                wb: (r.f64()?, r.f64()?),
                rho: r.f64()?,
                flatness: r.f64()?,
                fade_rng: Rng::unsnap(r)?,
                shadow_db: r.f64()?,
                reported: r.seq(|r| Ok(Cqi(r.u8()?)))?,
                reported_rev: r.u64()?,
                pending: r.seq(|r| Ok(Cqi(r.u8()?)))?,
                pending_fresh: r.bool()?,
                pending_due: r.time()?,
                next_report_at: r.time()?,
                rng: Rng::unsnap(r)?,
            })
        })?;
        if ues.len() != self.n_ues {
            return Err(SnapError::Malformed(
                "UE count mismatch in channel snapshot",
            ));
        }
        for (ue, rec) in ues.into_iter().enumerate() {
            if rec.taps.len() != self.n_subbands
                || rec.reported.len() != self.n_subbands
                || rec.pending.len() != self.n_subbands
            {
                return Err(SnapError::Malformed(
                    "subband count mismatch in channel snapshot",
                ));
            }
            let base = ue * self.n_subbands;
            self.walkers[ue] = rec.walker;
            for (i, (re, im)) in rec.taps.into_iter().enumerate() {
                self.fade_sb_re[base + i] = re;
                self.fade_sb_im[base + i] = im;
            }
            self.fade_wb_re[ue] = rec.wb.0;
            self.fade_wb_im[ue] = rec.wb.1;
            self.fade_rho[ue] = rec.rho;
            self.fade_flatness[ue] = rec.flatness;
            self.fade_rng[ue] = rec.fade_rng;
            self.shadow_db[ue] = rec.shadow_db;
            self.reported[base..base + self.n_subbands].copy_from_slice(&rec.reported);
            self.pending[base..base + self.n_subbands].copy_from_slice(&rec.pending);
            self.reported_rev[ue] = rec.reported_rev;
            self.pending_fresh[ue] = rec.pending_fresh;
            self.pending_due[ue] = rec.pending_due;
            self.next_report_at[ue] = rec.next_report_at;
            self.ue_rng[ue] = rec.rng;
        }
        self.tti_index = r.u64()?;
        self.dist_since_shadow = r.seq(|r| r.f64())?;
        self.cqi_frozen = r.seq(|r| r.bool())?;
        self.cqi_corrupt = r.seq(|r| r.bool())?;
        if self.dist_since_shadow.len() != self.n_ues
            || self.cqi_frozen.len() != self.n_ues
            || self.cqi_corrupt.len() != self.n_ues
        {
            return Err(SnapError::Malformed("per-UE vector length mismatch"));
        }
        self.frozen_reports = r.u64()?;
        self.corrupted_reports = r.u64()?;
        self.iplusn_dbm = r.seq(|r| r.f64())?;
        self.ext_dist_m = r.seq(|r| r.f64())?;
        if self.iplusn_dbm.len() != self.n_ues || self.ext_dist_m.len() != self.n_ues {
            return Err(SnapError::Malformed(
                "coupling-plane length mismatch in channel snapshot",
            ));
        }
        self.parked.fill(false);
        self.n_parked = 0;
        self.park_log.clear();
        // Rebuild the cached large-scale terms from the restored state.
        for ue in 0..self.n_ues {
            self.refresh_large_scale(ue);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fading::FadingProcess;
    use proptest::prelude::*;

    fn small_channel() -> CellChannel {
        let mut cfg = ChannelConfig::lte_default();
        cfg.n_subbands = 4;
        CellChannel::new(cfg, 8, &Rng::new(42))
    }

    #[test]
    fn sinr_range_matches_fig2b() {
        // Fig 2b: UE mean SINRs span roughly 0..50 dB with Medium (~10),
        // Good (~25), Excellent (~40) clusters.
        let cfg = ChannelConfig::lte_default();
        let ch = CellChannel::new(cfg, 200, &Rng::new(7));
        let sinrs: Vec<f64> = (0..200).map(|u| ch.mean_sinr_db(u)).collect();
        let lo = sinrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sinrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo > -10.0 && lo < 15.0, "lo={lo}");
        assert!(hi > 28.0 && hi <= 45.0, "hi={hi}");
        // Heterogeneity: at least 10 dB of spread.
        assert!(hi - lo > 10.0);
    }

    #[test]
    fn rates_are_nonnegative_and_bounded() {
        let ch = small_channel();
        let peak = ch.config().table.peak_efficiency() * ch.config().radio.data_re_per_rb();
        for u in 0..8 {
            for rb in 0..ch.n_rbs() {
                let r = ch.reported_rate_per_rb(u, rb);
                assert!(r >= 0.0 && r <= peak + 1e-9);
            }
        }
    }

    #[test]
    fn subband_mapping_covers_all_rbs() {
        let ch = small_channel();
        for rb in 0..ch.n_rbs() {
            let sb = ch.subband_of_rb(rb);
            assert!(sb < 4);
        }
        assert_eq!(ch.subband_of_rb(0), 0);
        assert_eq!(ch.subband_of_rb(ch.n_rbs() - 1), 3);
    }

    #[test]
    fn advance_changes_fading_state() {
        let mut ch = small_channel();
        let before = ch.actual_sinr_db(0, 0);
        let mut changed = false;
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..50 {
            now += tti;
            ch.advance_tti(now);
            if (ch.actual_sinr_db(0, 0) - before).abs() > 0.1 {
                changed = true;
                break;
            }
        }
        assert!(changed, "channel should evolve with pedestrian Doppler");
    }

    #[test]
    fn batched_fading_matches_fading_process_reference() {
        // The SoA fading pass must walk each UE's fading stream exactly
        // like a per-UE FadingProcess would: same draws, same tap values,
        // same composed gains — bit for bit, for both single-step and
        // composed multi-step advances.
        let mut cfg = ChannelConfig::lte_default();
        cfg.n_subbands = 4;
        let n_sb = cfg.n_subbands;
        let n_ues = 3;
        let mut ch = CellChannel::new(cfg, n_ues, &Rng::new(42));
        // Reference processes, forked exactly like the constructor does.
        let mut refs: Vec<FadingProcess> = (0..n_ues)
            .map(|i| {
                let rng = Rng::new(42).fork(0x9999_0000 + i as u64);
                FadingProcess::new(
                    n_sb,
                    cfg.doppler_hz(),
                    cfg.radio.tti(),
                    cfg.flatness,
                    rng.fork(2),
                )
            })
            .collect();
        let tti = ch.config().radio.tti();
        let mut idx = 0u64;
        for step in [1u64, 1, 3, 1, 7, 1, 1, 250, 1] {
            idx += step;
            let now = Time::ZERO + Dur(tti.0 * idx);
            ch.advance_to(now);
            for f in refs.iter_mut() {
                f.advance_by(step);
            }
            for (u, f) in refs.iter().enumerate() {
                for sb in 0..n_sb {
                    assert_eq!(
                        ch.fading_gain_linear(u, sb).to_bits(),
                        f.gain_linear(sb).to_bits(),
                        "ue {u} sb {sb} after step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn cqi_freeze_stalls_reports_and_counts() {
        let mut ch = small_channel();
        ch.set_cqi_frozen(0, true);
        let before: Vec<Cqi> = (0..4).map(|sb| ch.reported_cqi_subband(0, sb)).collect();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            now += tti;
            ch.advance_tti(now);
        }
        let after: Vec<Cqi> = (0..4).map(|sb| ch.reported_cqi_subband(0, sb)).collect();
        assert_eq!(before, after, "frozen UE's reported CQI must not move");
        assert!(ch.cqi_frozen_reports() > 0, "suppressed reports must count");
        // Unfreeze: the loop resumes and the counter stops growing.
        ch.set_cqi_frozen(0, false);
        let held = ch.cqi_frozen_reports();
        for _ in 0..2000 {
            now += tti;
            ch.advance_tti(now);
        }
        assert_eq!(ch.cqi_frozen_reports(), held);
    }

    #[test]
    fn cqi_corrupt_counts_reports() {
        let mut ch = small_channel();
        ch.set_cqi_corrupt(1, true);
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            now += tti;
            ch.advance_tti(now);
        }
        assert!(
            ch.cqi_corrupted_reports() > 0,
            "corrupt window must replace measurements"
        );
        // Reported CQIs stay in the valid 0..=15 range even when junk.
        for sb in 0..4 {
            assert!(ch.reported_cqi_subband(1, sb).0 <= 15);
        }
    }

    #[test]
    fn cqi_reports_update_on_period() {
        // Some UE's report must change over a few seconds of pedestrian
        // fading (UEs pinned at the SINR cap may legitimately stay at 15).
        let mut ch = small_channel();
        let snapshot = |ch: &CellChannel| -> Vec<Cqi> {
            (0..ch.n_ues())
                .flat_map(|u| (0..4).map(move |sb| (u, sb)))
                .map(|(u, sb)| ch.reported_cqi_subband(u, sb))
                .collect()
        };
        let initial = snapshot(&ch);
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        let mut ever_changed = false;
        for _ in 0..3000 {
            now += tti;
            ch.advance_tti(now);
            if snapshot(&ch) != initial {
                ever_changed = true;
                break;
            }
        }
        assert!(ever_changed);
    }

    #[test]
    fn report_version_tracks_delivered_reports() {
        // The cache-invalidation contract: while a UE's version stamp is
        // stable, its reported CQIs must be stable too.
        let mut ch = small_channel();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        let snap = |ch: &CellChannel, u: usize| -> Vec<Cqi> {
            (0..4).map(|sb| ch.reported_cqi_subband(u, sb)).collect()
        };
        let mut last_rev: Vec<u64> = (0..8).map(|u| ch.report_version(u)).collect();
        let mut last_cqi: Vec<Vec<Cqi>> = (0..8).map(|u| snap(&ch, u)).collect();
        for _ in 0..500 {
            now += tti;
            ch.advance_tti(now);
            for u in 0..8 {
                let rev = ch.report_version(u);
                let cqi = snap(&ch, u);
                if rev == last_rev[u] {
                    assert_eq!(cqi, last_cqi[u], "stable version, changed CQIs");
                }
                last_rev[u] = rev;
                last_cqi[u] = cqi;
            }
        }
        assert!(last_rev.iter().any(|&r| r > 1), "versions never advanced");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut ch = small_channel();
            let tti = ch.config().radio.tti();
            let mut now = Time::ZERO;
            for _ in 0..200 {
                now += tti;
                ch.advance_tti(now);
            }
            (0..8)
                .map(|u| ch.actual_sinr_db(u, 5))
                .collect::<Vec<f64>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn static_scenario_keeps_mean_sinr() {
        let mut cfg = ChannelConfig::lte_default();
        cfg.ue_speed_mps = 0.0;
        let mut ch = CellChannel::new(cfg, 4, &Rng::new(9));
        let before: Vec<f64> = (0..4).map(|u| ch.mean_sinr_db(u)).collect();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..1000 {
            now += tti;
            ch.advance_tti(now);
        }
        let after: Vec<f64> = (0..4).map(|u| ch.mean_sinr_db(u)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9, "static UE mean SINR moved");
        }
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        // Snap → load into a fresh channel → both evolve identically.
        let mut ch = small_channel();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..137 {
            now += tti;
            ch.advance_tti(now);
        }
        let mut w = SnapWriter::new();
        ch.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = small_channel();
        let mut r = SnapReader::new(&bytes);
        restored.load_snap(&mut r).unwrap();
        for _ in 0..219 {
            now += tti;
            ch.advance_tti(now);
            restored.advance_tti(now);
        }
        for u in 0..8 {
            assert_eq!(ch.report_version(u), restored.report_version(u));
            for sb in 0..4 {
                assert_eq!(
                    ch.actual_sinr_db_subband(u, sb).to_bits(),
                    restored.actual_sinr_db_subband(u, sb).to_bits(),
                    "ue {u} sb {sb}"
                );
                assert_eq!(
                    ch.reported_cqi_subband(u, sb),
                    restored.reported_cqi_subband(u, sb)
                );
            }
        }
    }

    #[test]
    fn batched_fresh_outcomes_match_per_call_draws() {
        // The batched per-UE pass must consume the same draws and return
        // the same outcomes as per-subband transmission_succeeds calls.
        let mut a = small_channel();
        let mut b = small_channel();
        let tti = a.config().radio.tti();
        let mut now = Time::ZERO;
        // Per-subband scheduled bits: a mix of below-threshold (skipped,
        // no draw) and qualifying groups.
        let bits = [0.0, 120.0, 7.9, 9000.0];
        let mut out = [false; 4];
        for step in 0..300 {
            now += tti;
            a.advance_tti(now);
            b.advance_tti(now);
            let ue = step % 8;
            a.fresh_outcomes(ue, &bits, 8.0, &mut out);
            for (sb, &bits_sb) in bits.iter().enumerate() {
                if bits_sb < 8.0 {
                    assert!(!out[sb], "skipped subband must read false");
                    continue;
                }
                assert_eq!(
                    out[sb],
                    b.transmission_succeeds(ue, sb),
                    "step {step} ue {ue} sb {sb}"
                );
            }
        }
    }

    #[test]
    fn transmission_success_rate_tracks_bler_target() {
        // With a perfectly fresh report the SINR surplus over the chosen
        // MCS's requirement is in [0, ~2.5 dB), so the error rate sits
        // somewhere below the 10 % waterfall anchor but stays material.
        let mut cfg = ChannelConfig::lte_default();
        cfg.ue_speed_mps = 0.0; // freeze channel => report always accurate
        cfg.cqi_period_ttis = 1;
        cfg.cqi_delay_ttis = 0;
        cfg.sinr_cap_db = 20.0; // keep UEs off the CQI-15 saturation
                                // Average across many UEs so the per-UE SINR surplus over its
                                // chosen MCS (uniform-ish in one CQI step) is integrated out.
        let n_ues = 64;
        let mut ch = CellChannel::new(cfg, n_ues, &Rng::new(3));
        let mut fails = 0u32;
        let n = 2_000;
        for _ in 0..n {
            for u in 0..n_ues {
                if !ch.transmission_succeeds(u, 0) {
                    fails += 1;
                }
            }
        }
        let rate = fails as f64 / (n * n_ues) as f64;
        assert!(
            (0.003..=0.12).contains(&rate),
            "error rate={rate} out of expected band"
        );
    }

    /// One step of the parking differential test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Advance both channels by this many TTIs.
        Advance(u64),
        Park(usize),
        Unpark(usize),
        Geometry(usize, f64, f64, f64),
        Iplusn(usize, f64),
        Freeze(usize, bool),
        Corrupt(usize, bool),
        /// Fresh outcome draws on the subbands whose mask bit is set.
        Outcomes(usize, u8),
        /// A HARQ retransmission draw on one subband.
        Retx(usize, usize),
    }

    const PARK_UES: usize = 5;
    const PARK_SBS: usize = 4;

    /// Draw one op; advances are mostly single TTIs, with composed
    /// jumps of up to 300 TTIs mixed in.
    fn park_op(ext: bool, rng: &mut TestRng) -> Op {
        let ue = rng.below(PARK_UES as u64) as usize;
        let flag = rng.below(2) == 1;
        let uniform = |rng: &mut TestRng, lo: f64, hi: f64| lo + rng.f64() * (hi - lo);
        match rng.below(21) {
            0..=5 => Op::Advance(1),
            6..=8 => Op::Advance(2 + rng.below(18)),
            9 => Op::Advance(20 + rng.below(280)),
            10..=12 => Op::Park(ue),
            13 | 14 => Op::Unpark(ue),
            // Geometry pushes exist only in external-geometry mode.
            15 if ext => Op::Geometry(
                ue,
                uniform(rng, 20.0, 400.0),
                uniform(rng, -8.0, 8.0),
                uniform(rng, -110.0, -80.0),
            ),
            15 | 16 => Op::Iplusn(ue, uniform(rng, -110.0, -80.0)),
            17 => Op::Freeze(ue, flag),
            18 => Op::Corrupt(ue, flag),
            19 => Op::Outcomes(ue, rng.below(16) as u8),
            _ => Op::Retx(ue, rng.below(PARK_SBS as u64) as usize),
        }
    }

    /// A geometry mode and up to 60 ops to run in it.
    struct ParkCase;

    impl Strategy for ParkCase {
        type Value = (bool, Vec<Op>);
        fn generate(&self, rng: &mut TestRng) -> (bool, Vec<Op>) {
            let ext = rng.below(2) == 1;
            let n = 1 + rng.below(60) as usize;
            (ext, (0..n).map(|_| park_op(ext, rng)).collect())
        }
    }

    fn park_channel(ext: bool) -> CellChannel {
        let mut cfg = ChannelConfig::lte_default();
        cfg.n_subbands = PARK_SBS;
        cfg.external_geometry = ext;
        // Mobility periods short enough that composed jumps cross them.
        cfg.mobility_step = Dur::from_millis(10);
        CellChannel::new(cfg, PARK_UES, &Rng::new(11))
    }

    fn snap_bytes(ch: &CellChannel) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ch.snap(&mut w);
        w.into_bytes()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `parking`, with every parked slot caught up, equals `reference`
    /// bit for bit, and so do both channels' snapshots.
    fn assert_same_state(parking: &CellChannel, reference: &CellChannel) {
        let mut a = parking.clone();
        for ue in 0..PARK_UES {
            a.catch_up(ue);
        }
        let b = reference;
        assert_eq!(a.tti_index, b.tti_index);
        assert_eq!(
            bits(&a.fade_sb_re),
            bits(&b.fade_sb_re),
            "subband taps (re)"
        );
        assert_eq!(
            bits(&a.fade_sb_im),
            bits(&b.fade_sb_im),
            "subband taps (im)"
        );
        assert_eq!(
            bits(&a.fade_wb_re),
            bits(&b.fade_wb_re),
            "wideband taps (re)"
        );
        assert_eq!(
            bits(&a.fade_wb_im),
            bits(&b.fade_wb_im),
            "wideband taps (im)"
        );
        assert_eq!(
            bits(&a.sinr_const_db),
            bits(&b.sinr_const_db),
            "large-scale SINR"
        );
        assert_eq!(a.pending, b.pending, "pending CQIs");
        assert_eq!(a.reported, b.reported, "reported CQIs");
        assert_eq!(a.pending_fresh, b.pending_fresh);
        assert_eq!(a.pending_due, b.pending_due);
        assert_eq!(a.next_report_at, b.next_report_at);
        for ue in 0..PARK_UES {
            assert_eq!(
                a.report_version(ue),
                b.report_version(ue),
                "ue {ue} version"
            );
        }
        assert_eq!(a.frozen_reports, b.frozen_reports);
        assert_eq!(a.corrupted_reports, b.corrupted_reports);
        assert_eq!(parking.cqi_frozen_reports(), b.cqi_frozen_reports());
        assert_eq!(parking.cqi_corrupted_reports(), b.cqi_corrupted_reports());
        assert!(
            snap_bytes(parking) == snap_bytes(b),
            "snapshot bytes differ"
        );
    }

    /// Run `ops` on a parking channel and on one that never parks,
    /// asserting after every step that nothing tells them apart.
    fn check_parking(ext: bool, ops: &[Op]) {
        let mut a = park_channel(ext);
        let mut b = park_channel(ext);
        let tti = a.config().radio.tti();
        let mut idx = 0u64;
        let mut out_a = [false; PARK_SBS];
        let mut out_b = [false; PARK_SBS];
        for op in ops {
            match *op {
                Op::Advance(k) => {
                    idx += k;
                    let now = Time::ZERO + Dur(tti.0 * idx);
                    a.advance_to(now);
                    b.advance_to(now);
                }
                Op::Park(u) => a.park(u),
                Op::Unpark(u) => a.unpark(u),
                Op::Geometry(u, d, s, i) => {
                    a.set_ue_geometry(u, d, s, i);
                    b.set_ue_geometry(u, d, s, i);
                }
                Op::Iplusn(u, i) => {
                    a.set_ue_iplusn(u, i);
                    b.set_ue_iplusn(u, i);
                }
                Op::Freeze(u, f) => {
                    a.set_cqi_frozen(u, f);
                    b.set_cqi_frozen(u, f);
                }
                Op::Corrupt(u, c) => {
                    a.set_cqi_corrupt(u, c);
                    b.set_cqi_corrupt(u, c);
                }
                Op::Outcomes(u, mask) => {
                    let bits_sb: Vec<f64> = (0..PARK_SBS)
                        .map(|sb| if mask >> sb & 1 == 1 { 800.0 } else { 0.0 })
                        .collect();
                    a.fresh_outcomes(u, &bits_sb, 8.0, &mut out_a);
                    b.fresh_outcomes(u, &bits_sb, 8.0, &mut out_b);
                    assert_eq!(out_a, out_b, "outcomes after {op:?}");
                }
                Op::Retx(u, sb) => assert_eq!(
                    a.transmission_succeeds_with_gain(u, sb, 1.5),
                    b.transmission_succeeds_with_gain(u, sb, 1.5),
                    "retransmission after {op:?}"
                ),
            }
            // Unparked slots read the same reports at every step.
            for u in (0..PARK_UES).filter(|&u| !a.is_parked(u)) {
                assert_eq!(a.report_version(u), b.report_version(u));
                for sb in 0..PARK_SBS {
                    assert_eq!(a.reported_cqi_subband(u, sb), b.reported_cqi_subband(u, sb));
                }
            }
            assert_same_state(&a, &b);
        }
        for u in 0..PARK_UES {
            a.unpark(u);
        }
        assert_eq!(a.park_log_len(), 0);
        assert_same_state(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Parking is invisible: random advances (single TTIs and
        /// composed jumps), park/unpark, geometry and I+N pushes, fault
        /// flag toggles and outcome draws leave a parking channel
        /// bit-identical to one that never parks, in both geometry modes.
        #[test]
        fn parking_is_bit_identical_to_never_parking(case in ParkCase) {
            check_parking(case.0, &case.1);
        }
    }

    #[test]
    fn busy_channel_logs_one_run_per_composed_jump() {
        let mut ch = park_channel(true);
        let tti = ch.config().radio.tti();
        ch.park(2);
        let mut idx = 0u64;
        for _ in 0..3000 {
            idx += 1;
            ch.advance_to(Time::ZERO + Dur(tti.0 * idx));
        }
        assert_eq!(ch.park_log_len(), 1, "back-to-back TTIs are one run");
        idx += 40;
        ch.advance_to(Time::ZERO + Dur(tti.0 * idx));
        for _ in 0..500 {
            idx += 1;
            ch.advance_to(Time::ZERO + Dur(tti.0 * idx));
        }
        assert_eq!(ch.park_log_len(), 3, "a composed jump breaks the run");
        ch.unpark(2);
        assert_eq!(ch.park_log_len(), 0, "an unused log is dropped");
    }
}
