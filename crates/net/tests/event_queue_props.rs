//! Queue-ordering equivalence: the hierarchical timing wheel against the
//! pre-wheel binary-heap queue (kept in `event::reference` as the
//! oracle). Random `(time, lane)` schedules — spread across granule and
//! wheel-level boundaries — interleaved with pops, peeks, and handle
//! cancellations must produce byte-identical pop sequences; this is the
//! engine's determinism contract (`(time, lane, seq)` order, exactly)
//! stated as a property.
//!
//! Uses the vendored proptest stub: deterministic generation, no
//! shrinking — a failure reports the case number for replay.

use proptest::prelude::*;
use speakup_net::event::{reference::HeapQueue, EventQueue};
use speakup_net::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_pops_in_heap_order_under_cancellation(
        ops in proptest::collection::vec(
            // (raw time, lane, op selector, scale selector)
            (0u64..4096, 0u64..6, any::<u8>(), 0u32..48),
            1..300,
        ),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut wheel_handles = Vec::new();
        let mut heap_handles = Vec::new();
        // Liveness model, indexed by payload (== handle index): pushes
        // are live until popped or cancelled. The wheel's `len()` must
        // track this exactly; the reference's `len()` is *known wrong*
        // after a cancel-after-fire (its tombstone leak undercounts), so
        // the oracle is only consulted for pop/peek order.
        let mut live = Vec::new();
        for &(t, lane, op, scale) in &ops {
            match op % 8 {
                // Push (the common case): times span sub-granule ties up
                // to multi-level distances (scale shifts cross the 1 µs
                // granule and every 64-slot level boundary).
                0..=4 => {
                    let payload = live.len() as u64;
                    let time = SimTime::from_nanos(t << (scale % 40));
                    wheel_handles.push(wheel.push_lane_handle(time, lane, payload));
                    heap_handles.push(heap.push_lane(time, lane, payload));
                    live.push(true);
                }
                // Pop one from each; full (time, payload) equality.
                5 => {
                    let got = wheel.pop();
                    prop_assert_eq!(got, heap.pop());
                    if let Some((_, p)) = got {
                        live[p as usize] = false;
                    }
                }
                // Peek must agree without disturbing order.
                6 => prop_assert_eq!(wheel.peek_time(), heap.peek_time()),
                // Cancel a random handle — sometimes live, sometimes
                // already fired (the wheel must treat stale handles as
                // free no-ops; the reference leaks a tombstone but pops
                // identically).
                _ => {
                    if !wheel_handles.is_empty() {
                        let k = (t as usize).wrapping_mul(31) % wheel_handles.len();
                        wheel.cancel(wheel_handles[k]);
                        heap.cancel(heap_handles[k]);
                        live[k] = false;
                    }
                }
            }
            prop_assert_eq!(wheel.len(), live.iter().filter(|&&l| l).count());
        }
        // Drain both completely; the tails must match event for event.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_accepts_schedules_below_the_cursor(
        pairs in proptest::collection::vec((0u64..1_000_000, 0u64..4), 2..120),
    ) {
        // Alternate pop-then-push so later pushes frequently aim at
        // granules the wheel has already drained past: a push timed
        // below the cursor must still pop in heap order.
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &(t, lane)) in pairs.iter().enumerate() {
            let time = SimTime::from_nanos(t);
            wheel.push_lane(time, lane, i);
            heap.push_lane(time, lane, i);
            if i % 2 == 1 {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
