//! Per-stage microbenches of the dense-TTI hot path — the SoA kernels
//! behind BENCH_4's end-to-end numbers, measured in isolation so a
//! regression points at the guilty stage, not just at the total.
//!
//! Stages covered:
//! * `phy/advance_tti` — the batched AR(1) fading advance + CQI
//!   reporting pass over the flat tap planes (the per-TTI floor: two
//!   Box–Muller draws per tap per UE).
//! * `phy/fresh_outcomes` — the batched per-UE air-interface outcome
//!   draws (SINR composition + BLER + RNG per scheduled subband).
//! * `phy/fill_reported_rates` — the bulk CQI→rate row fill feeding the
//!   MAC rate matrix.
//! * `mac/cache_refresh` — the column-wise metric-cache refresh over a
//!   plane-backed rate matrix (steady-state: mostly version hits).
//! * `mac/allocate_*` — full scheduler kernels (refresh + column argmax
//!   and RB assignment) on the plane-backed [`TtiRates`], the exact
//!   in-pipeline configuration (the `schedulers` bench covers the
//!   virtual-dispatch fallback via `FlatRates`).
//! * `events/churn_wheel` — the ingress event core (timer wheel) under
//!   a steady schedule/pop churn at RTT-scale horizons (BENCH_5's
//!   event-core arm).
//! * `pool/vec_take_put` — the recycled-buffer pool's steady-state
//!   take/put cycle (must be allocation-free and a few ns).
//!
//! Quick mode: set `OUTRAN_BENCH_TARGET_MS` (e.g. 25) to shrink each
//! benchmark's measurement window — used by CI's perf-smoke job.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use outran_mac::{
    OutRanScheduler, PfScheduler, Scheduler, SrjfScheduler, SubbandMetricCache, TtiRates, UeTti,
};
use outran_pdcp::Priority;
use outran_phy::channel::CellChannel;
use outran_phy::ChannelConfig;
use outran_simcore::{Dur, EventQueue, Rng, Time, VecPool};

const USERS: usize = 16;

/// A warmed channel in the BENCH_2/BENCH_4 LTE setting.
fn warmed_channel() -> (CellChannel, Time) {
    let mut ch = CellChannel::new(ChannelConfig::lte_default(), USERS, &Rng::new(42));
    let tti = ch.config().radio.tti();
    let mut now = Time::ZERO;
    for _ in 0..100 {
        now += tti;
        ch.advance_tti(now);
    }
    (ch, now)
}

/// A plane-backed rate matrix filled from the warmed channel's reports.
fn warmed_rates(ch: &CellChannel) -> TtiRates {
    let n_sb = ch.config().n_subbands;
    let mut rates = TtiRates {
        per_ue_sb: vec![0.0; USERS * n_sb],
        rb_to_sb: (0..ch.n_rbs()).map(|rb| ch.subband_of_rb(rb)).collect(),
        n_sb,
        n_ues: USERS,
        reserved: vec![false; ch.n_rbs() as usize],
        versions: vec![1; USERS],
    };
    for u in 0..USERS {
        ch.fill_reported_rates(u, &mut rates.per_ue_sb[u * n_sb..(u + 1) * n_sb]);
    }
    rates
}

/// Busy-cell scheduler inputs: every UE backlogged.
fn busy_ues() -> Vec<UeTti> {
    (0..USERS)
        .map(|i| UeTti {
            active: true,
            head_priority: Some(Priority((i % 4) as u8)),
            queued_bytes: 1_000_000,
            oracle_min_remaining: Some(10_000 + i as u64 * 1_000),
            hol_delay: Dur::from_millis(5),
            oracle_has_qos_flow: i % 4 == 0,
        })
        .collect()
}

fn bench_phy(c: &mut Criterion) {
    let mut g = c.benchmark_group("phy");

    let (mut ch, mut now) = warmed_channel();
    let tti = ch.config().radio.tti();
    g.bench_function("advance_tti_16ue", |b| {
        b.iter(|| {
            now += tti;
            ch.advance_tti(now);
        })
    });

    let (mut ch, _) = warmed_channel();
    let n_sb = ch.config().n_subbands;
    let bits = vec![1_000.0; n_sb];
    let mut out = vec![false; n_sb];
    g.bench_function("fresh_outcomes_16ue", |b| {
        b.iter(|| {
            for ue in 0..USERS {
                ch.fresh_outcomes(ue, &bits, 8.0, &mut out);
            }
        })
    });

    let (ch, _) = warmed_channel();
    let mut row = vec![0.0; n_sb];
    g.bench_function("fill_reported_rates_16ue", |b| {
        b.iter(|| {
            for ue in 0..USERS {
                ch.fill_reported_rates(ue, &mut row);
            }
        })
    });

    g.finish();
}

fn bench_mac(c: &mut Criterion) {
    let mut g = c.benchmark_group("mac");
    let (ch, _) = warmed_channel();
    let ues = busy_ues();

    // Steady-state cache refresh: one UE's row churns on the CQI report
    // cadence, the rest are version hits.
    let mut rates = warmed_rates(&ch);
    let n_sb = rates.n_sb;
    let mut cache = SubbandMetricCache::new();
    let mut turn = 0usize;
    g.bench_function("cache_refresh_16ue", |b| {
        b.iter(|| {
            let u = turn % USERS;
            turn += 1;
            rates.per_ue_sb[u * n_sb..(u + 1) * n_sb].rotate_left(1);
            rates.versions[u] += 1;
            cache.refresh(&rates, |_| 0, |_, r| r);
        })
    });

    let rates = warmed_rates(&ch);
    let tti = Dur::from_millis(1);
    let tf = Dur::from_millis(1000);

    let mut pf = PfScheduler::with_tf(USERS, tf, tti);
    g.bench_function("allocate_pf_planes", |b| {
        b.iter(|| {
            let a = pf.allocate(Time::ZERO, &ues, &rates);
            pf.on_served(&a.bits_per_ue);
            a
        })
    });

    let mut or = OutRanScheduler::over_pf(USERS, tf, tti, OutRanScheduler::DEFAULT_EPSILON);
    g.bench_function("allocate_outran_planes", |b| {
        b.iter(|| {
            let a = or.allocate(Time::ZERO, &ues, &rates);
            or.on_served(&a.bits_per_ue);
            a
        })
    });

    let mut srjf = SrjfScheduler::default();
    g.bench_function("allocate_srjf_planes", |b| {
        b.iter(|| srjf.allocate(Time::ZERO, &ues, &rates))
    });

    g.finish();
}

fn bench_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("events");
    // The ingress queue's steady state: a standing population of
    // pending ACK/arrival events, each pop followed by a reschedule at
    // an RTT-scale offset (25–55 ms, i.e. 24–53 ticks into the near
    // wheel with occasional slot wraps).
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::new(7);
    let mut now = Time::ZERO;
    for i in 0..256 {
        q.schedule(now + Dur::from_micros(25_000 + rng.below(30_000)), i);
    }
    g.bench_function("churn_wheel", |b| {
        b.iter(|| {
            let (t, e) = q.pop().unwrap();
            now = now.max(t);
            q.schedule(now + Dur::from_micros(25_000 + rng.below(30_000)), e);
            e
        })
    });
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool");
    let mut pool: VecPool<u64> = VecPool::new();
    // Warm one buffer so steady state is all hits.
    let warm = {
        let mut v = pool.take();
        v.reserve(64);
        v
    };
    pool.put(warm);
    g.bench_function("vec_take_put", |b| {
        b.iter(|| {
            let mut v = pool.take();
            v.push(1);
            let n = v.len();
            pool.put(v);
            n
        })
    });
    let s = pool.stats();
    assert_eq!(s.misses, 1, "steady-state take/put must never miss");
    g.finish();
}

criterion_group!(benches, bench_phy, bench_mac, bench_events, bench_pool);
criterion_main!(benches);
