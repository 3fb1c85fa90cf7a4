//! Isolated per-layer kernels, timed through each crate's public API on
//! inputs shaped like the workloads': the PHY channel and MAC scheduler
//! of a `sweep-lte` cell, OutRAN's threshold search, cell construction,
//! and the event queue at the `soak-idle` cell's pre-scheduled depth.

use std::hint::black_box;
use std::time::{Duration, Instant};

use outran_core::OutRanConfig;
use outran_mac::{OutRanScheduler, PfScheduler, Scheduler, TtiRates, UeTti};
use outran_pdcp::Priority;
use outran_phy::{CellChannel, Scenario};
use outran_ran::{Cell, CellConfig, SchedulerKind};
use outran_simcore::{Dur, EventQueue, Rng, Time};

use crate::workloads::{timed, Layers};

/// Batches per kernel; each kernel reports the median batch.
const BATCHES: usize = 5;
/// Fewest calls of each sub-second set-up kernel.
const SETUP_REPS: usize = 5;
/// Shortest span of calls of each set-up kernel.
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Median of `BATCHES` timings of `f`, each over `calls` calls, in
/// nanoseconds per call.
fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    crate::median((0..BATCHES).map(|_| timed(&mut f).0 * 1e9 / calls as f64))
}

/// Median wall seconds of `f` over at least `SETUP_REPS` calls and at
/// least `SETUP_BUDGET` of calling.
fn setup_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_REPS || start.elapsed() < SETUP_BUDGET {
        secs.push(timed(|| black_box(f())).0);
    }
    crate::median(secs)
}

/// A `sweep-lte` cell's channel, warmed for 100 TTIs.
fn warm_channel(users: usize, seed: u64) -> (CellChannel, Time) {
    let cfg = Scenario::LtePedestrian.channel_config();
    let mut ch = CellChannel::new(cfg, users, &Rng::new(seed));
    let tti = ch.config().radio.tti();
    let mut now = Time::ZERO;
    for _ in 0..100 {
        now += tti;
        ch.advance_tti(now);
    }
    (ch, now)
}

/// `phy.*_ns`: one channel TTI advance, one UE's reported-rate fill and
/// one UE's batched transport-block outcome draw.
pub fn phy(users: usize, seed: u64) -> Layers {
    const TTIS: u64 = 4_000;
    let (mut ch, mut now) = warm_channel(users, seed);
    let tti = ch.config().radio.tti();
    let n_sb = ch.config().n_subbands;
    let advance = ns_per_call(TTIS, || {
        for _ in 0..TTIS {
            now += tti;
            ch.advance_tti(now);
        }
    });
    let mut rates = vec![0.0; n_sb];
    let fill = ns_per_call(TTIS * users as u64, || {
        for _ in 0..TTIS {
            for u in 0..users {
                ch.fill_reported_rates(u, &mut rates);
                black_box(&rates);
            }
        }
    });
    let bits = vec![1e6; n_sb];
    let mut out = vec![false; n_sb];
    let outcomes = ns_per_call(TTIS * users as u64, || {
        for _ in 0..TTIS {
            for u in 0..users {
                ch.fresh_outcomes(u, &bits, 0.0, &mut out);
                black_box(&out);
            }
        }
    });
    vec![
        ("phy.advance_tti_ns", advance),
        ("phy.fill_reported_rates_ns", fill),
        ("phy.fresh_outcomes_ns", outcomes),
    ]
}

/// `mac.allocate_ns.*`: one TTI of a fully backlogged `sweep-lte` cell
/// — allocate plus served feedback, with one UE's rate row changing every
/// 8 TTIs as on the CQI report cadence.
pub fn mac(users: usize, seed: u64) -> Layers {
    const TTIS: u64 = 20_000;
    let (ch, _) = warm_channel(users, seed);
    let n_sb = ch.config().n_subbands;
    let mut rates = TtiRates {
        per_ue_sb: vec![0.0; users * n_sb],
        rb_to_sb: (0..ch.n_rbs()).map(|rb| ch.subband_of_rb(rb)).collect(),
        n_sb,
        n_ues: users,
        reserved: vec![false; ch.n_rbs() as usize],
        versions: vec![1; users],
    };
    for u in 0..users {
        ch.fill_reported_rates(u, &mut rates.per_ue_sb[u * n_sb..(u + 1) * n_sb]);
    }
    let ues: Vec<UeTti> = (0..users)
        .map(|i| UeTti {
            active: true,
            head_priority: Some(Priority((i % 4) as u8)),
            queued_bytes: 1_000_000,
            oracle_min_remaining: Some(10_000 + i as u64 * 1_000),
            hol_delay: Dur::from_millis(5),
            oracle_has_qos_flow: false,
        })
        .collect();
    let tti = Dur::from_millis(1);
    let tf = Dur::from_millis(1000);
    let mut kernel = |sched: &mut dyn Scheduler| {
        let mut now = Time::ZERO;
        ns_per_call(TTIS, || {
            for t in 0..TTIS {
                if t % 8 == 0 {
                    let u = ((t / 8) % users as u64) as usize;
                    rates.per_ue_sb[u * n_sb..(u + 1) * n_sb].rotate_left(1);
                    rates.versions[u] += 1;
                }
                let alloc = sched.allocate(now, &ues, &rates);
                sched.on_served(&alloc.bits_per_ue);
                now += tti;
            }
        })
    };
    let pf = kernel(&mut PfScheduler::with_tf(users, tf, tti));
    let outran = kernel(&mut OutRanScheduler::over_pf(
        users,
        tf,
        tti,
        OutRanScheduler::DEFAULT_EPSILON,
    ));
    vec![
        ("mac.allocate_ns.pf", pf),
        ("mac.allocate_ns.outran", outran),
    ]
}

/// `core.resolve_mlfq_s` and `ran.cell_new_s.*`: the set-up calls every
/// cell pays.
pub fn setup(users: usize, seed: u64) -> Layers {
    let cell_new = |kind| setup_secs(|| Cell::new(CellConfig::lte_default(users, kind, seed)));
    vec![
        (
            "core.resolve_mlfq_s",
            setup_secs(|| OutRanConfig::default().resolve_mlfq()),
        ),
        ("ran.cell_new_s.pf", cell_new(SchedulerKind::Pf)),
        ("ran.cell_new_s.outran", cell_new(SchedulerKind::OutRan)),
    ]
}

/// `events.*_ns`: scheduling `times` into the timer-wheel event queue,
/// then popping them all due, per event.
pub fn events(times: &[Time]) -> Layers {
    let n = times.len().max(1) as u64;
    let end = times.iter().copied().max().unwrap_or(Time::ZERO);
    let mut schedule = Vec::new();
    let mut pop = Vec::new();
    for _ in 0..BATCHES {
        let mut q = EventQueue::new();
        let t0 = Instant::now();
        for (i, &at) in times.iter().enumerate() {
            q.schedule(at, i);
        }
        let t1 = Instant::now();
        while let Some(e) = q.pop_due(end) {
            black_box(e);
        }
        schedule.push((t1 - t0).as_nanos() as f64 / n as f64);
        pop.push(t1.elapsed().as_nanos() as f64 / n as f64);
    }
    vec![
        ("events.schedule_ns", crate::median(schedule)),
        ("events.pop_due_ns", crate::median(pop)),
    ]
}
