//! Differential property test: the hierarchical timer wheel must pop in
//! exactly the `(time, seq)` order of a `BinaryHeap` reference model for
//! arbitrary interleavings of schedules and pops — including same-instant
//! bursts, exact tick boundaries, far-wheel cascades, overflow horizons
//! and scheduling "in the past" relative to the wheel cursor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use outran_simcore::{Dur, EventQueue, Rng, Time};
use proptest::prelude::*;

/// Reference model: a min-heap on `(time, seq)` with the same FIFO
/// tie-break as the wheel. Payloads take part in the ordering only when
/// `(time, seq)` ties, which unique sequence numbers rule out.
struct HeapModel<E> {
    heap: BinaryHeap<Reverse<(Time, u64, E)>>,
    seq: u64,
}

impl<E: Ord> HeapModel<E> {
    fn new() -> HeapModel<E> {
        HeapModel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, at: Time, event: E) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Pending entries in `(time, seq)` order.
    fn sorted_entries(&self) -> Vec<(Time, u64, &E)> {
        let mut out: Vec<(Time, u64, &E)> = self
            .heap
            .iter()
            .map(|Reverse((t, s, e))| (*t, *s, e))
            .collect();
        out.sort_by_key(|&(t, s, _)| (t, s));
        out
    }
}

/// One tick of the near wheel in nanoseconds (2^20 ≈ 1.05 ms).
const TICK: u64 = 1 << 20;

/// Time horizons that exercise every wheel level: within a near slot,
/// across the near span (268 ms), across the mid span (17 s), across the
/// far span (18 min), and beyond into the overflow list.
const HORIZONS: [u64; 5] = [
    4 * TICK,
    300 * TICK,        // past the 256-tick near span
    20_000 * TICK,     // past the 2^14-tick mid span
    1_200_000 * TICK,  // past the 2^20-tick far span
    40_000_000 * TICK, // deep overflow (~11.7 h)
];

fn drive(seed: u64, ops: u32, pop_bias: f64) -> Result<(), TestCaseError> {
    let mut rng = Rng::new(seed);
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapModel<u32> = HeapModel::new();
    let mut now = Time::ZERO;
    let mut payload = 0u32;
    for _ in 0..ops {
        if rng.chance(pop_bias) {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if let Some((t, _)) = a {
                // The engine never travels backwards.
                now = now.max(t);
            }
        } else {
            let h = HORIZONS[rng.index(HORIZONS.len())];
            let mut at = now + Dur::from_nanos(rng.below(h));
            if rng.chance(0.25) {
                // Snap to an exact tick boundary (slot-edge case).
                at = Time(at.0 - at.0 % TICK);
            }
            if rng.chance(0.15) {
                // Schedule in the past relative to the popped frontier.
                at = Time(now.0.saturating_sub(rng.below(2 * TICK)));
            }
            let burst = if rng.chance(0.2) { 1 + rng.below(8) } else { 1 };
            for _ in 0..burst {
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            }
        }
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    // Drain to empty: full cascade of whatever is left in the far wheels.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        prop_assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    prop_assert!(wheel.is_empty() && heap.len() == 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_pops_match_heap(
        seed in 0u64..u64::MAX,
        ops in 50u32..600,
        pop_bias in 0.2f64..0.8,
    ) {
        drive(seed, ops, pop_bias)?;
    }
}

/// The wheel's checkpoint view (sorted entries plus the insertion
/// counter) matches the reference model's exactly, independent of where
/// the wheel's cursor has left each entry.
#[test]
fn sorted_entries_agree_with_heap_model() {
    let mut rng = Rng::new(7);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapModel<u64> = HeapModel::new();
    for i in 0..500 {
        let at = Time(rng.below(HORIZONS[(i % 5) as usize]));
        wheel.schedule(at, i);
        heap.schedule(at, i);
        if i % 7 == 0 {
            assert_eq!(wheel.pop(), heap.pop());
        }
    }
    let w: Vec<(Time, u64, u64)> = wheel
        .sorted_entries()
        .into_iter()
        .map(|(t, s, e)| (t, s, *e))
        .collect();
    let h: Vec<(Time, u64, u64)> = heap
        .sorted_entries()
        .into_iter()
        .map(|(t, s, e)| (t, s, *e))
        .collect();
    assert_eq!(w, h);
    assert_eq!(wheel.seq_counter(), heap.seq);
}
