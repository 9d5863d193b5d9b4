//! The simulator's event queue: a hierarchical timing wheel.
//!
//! ## Determinism contract
//!
//! Events pop in ascending `(time, lane, seq)` order. The *lane* is a
//! caller-chosen canonical key (the simulator uses the link, node, flow,
//! control stream, or fault target an event belongs to) that orders
//! same-time events of different entities by identity rather than by
//! which callback happened to schedule them first. The
//! sequence number breaks remaining ties in insertion order, which makes
//! runs deterministic: two events scheduled for the same instant and lane
//! always fire in the order they were scheduled, regardless of queue
//! internals. The wheel preserves this order *exactly*; the pre-wheel
//! binary-heap implementation is kept in [`reference`] as a differential
//! oracle.
//!
//! ## Structure
//!
//! Time (nanoseconds) is bucketed into `2^13` ns ≈ 8 µs *granules*. The
//! wheel has [`LEVELS`] levels of [`SLOTS`] slots each; a slot at level
//! `l` spans `SLOTS^l` granules, so nine levels cover the full `u64`
//! nanosecond range with 64 slots (one occupancy bit-word) per level. An
//! event is filed at the level of the highest bit in which its granule
//! differs from the *cursor* (the next granule to drain), which means a
//! level's occupied slots always lie ahead of the cursor — there is no
//! wrap-around, and finding the next occupied slot is a handful of
//! `trailing_zeros` calls. Advancing the cursor into a higher-level slot
//! *cascades* it: its entries are re-filed, now landing at lower levels.
//! Draining a level-0 slot moves its entries into a small *ready* heap
//! ordered by the full `(time, lane, seq)` key, which merges same-granule
//! events (and late schedules aimed below the cursor) into the canonical
//! order. Pushes and pops are O(1) amortized — a bounded number of
//! cascade moves per event plus heap operations on the granule-sized
//! ready set — where the old heap paid O(log pending) per operation.
//!
//! ## Cancellation
//!
//! Cancellable pushes ([`EventQueue::push_lane_handle`]) allocate a slot
//! in a generation-stamped slab; the handle captures the slot and its
//! generation. Firing or reaping an event retires its slot (bumping the
//! generation), so cancelling a handle whose event already fired sees a
//! stale generation and is a free no-op. The pre-wheel queue kept a
//! tombstone forever in that case — bookkeeping here is O(pending).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// Carries a cancellation-slot index and the slot's generation at push
/// time; once the event fires, the slot is recycled under a new
/// generation and the handle goes permanently stale (cancel becomes a
/// no-op). The generation is 64-bit and monotonic per slot, so a stale
/// handle can never alias a recycled slot (no ABA mis-cancel, however
/// long the run).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle {
    slot: u32,
    generation: u64,
}

/// Level-0 slots cover `2^GRANULE_BITS` nanoseconds (~8 µs). Widened
/// from `2^10` when profiling showed most of the pop cost was cursor
/// advancement over empty level-0 slots: an 8 µs granule keeps the
/// sub-granule `ready` heap small (same-granule events at fig2 densities
/// are a handful) while cutting slot scans per pop by 8×.
const GRANULE_BITS: u32 = 13;
/// log2 of the slots per level; one `u64` occupancy word per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask selecting one level's slot index out of a granule.
const SLOT_MASK: u64 = (1u64 << LEVEL_BITS) - 1;
/// Levels needed to cover all 64 − [`GRANULE_BITS`] granule bits.
const LEVELS: usize = 9;

/// Bit shift of level `level`'s slot-index field within a granule.
#[inline]
fn level_shift(level: usize) -> u32 {
    debug_assert!(level < LEVELS);
    // lint: allow(cast) — level < LEVELS = 9, trivially fits u32
    LEVEL_BITS * level as u32
}

/// Vec index for a 6-bit slot number extracted via [`SLOT_MASK`].
#[inline]
fn idx_of(idx: u64) -> usize {
    debug_assert!(idx <= SLOT_MASK);
    // lint: allow(cast) — masked to 6 bits, never truncates
    idx as usize
}

/// Vec index for a 24-bit cancellation slot from the packed word.
#[inline]
fn slot_of(slot: u64) -> usize {
    debug_assert!(slot <= NO_SLOT);
    // lint: allow(cast) — slot is 24-bit by construction (masked with NO_SLOT)
    slot as usize
}

/// Low bits of [`Entry::seq_slot`] holding the cancellation slot.
const SLOT_BITS: u32 = 24;
/// Cancellation-slot sentinel for fire-and-forget events (all slot bits
/// set — the largest 24-bit value, reserved).
const NO_SLOT: u64 = (1 << SLOT_BITS) - 1;

/// Pack a sequence number and cancellation slot into one word. The
/// sequence lives in the high 40 bits so raw `seq_slot` comparisons
/// order by sequence (slot bits only tie-break, and sequences are
/// unique, so they never actually decide). 2^40 events is ~32 years of
/// simulated fig2 load; the assert turns silent wraparound into a crash.
#[inline]
fn seq_slot(seq: u64, slot: u64) -> u64 {
    assert!(
        seq < 1 << (64 - SLOT_BITS),
        "event sequence space exhausted"
    );
    debug_assert!(slot <= NO_SLOT);
    (seq << SLOT_BITS) | slot
}

/// A filed event. 24-byte header (down from 32): the sequence number
/// and cancellation slot share one word via [`seq_slot`], which packs
/// three more entries per pair of cache lines in the wheel's slot
/// vectors and the ready heap.
struct Entry<E> {
    time: SimTime,
    lane: u64,
    /// `seq << SLOT_BITS | slot`; slot is [`NO_SLOT`] when the caller
    /// kept no handle.
    seq_slot: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The cancellation slot (24-bit, [`NO_SLOT`] when handle-less).
    #[inline]
    fn slot(&self) -> u64 {
        self.seq_slot & NO_SLOT
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq_slot == other.seq_slot
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry is on
        // top. Comparing the packed word is comparing sequences: the
        // sequence occupies the high bits and is unique per entry.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.lane.cmp(&self.lane))
            .then_with(|| other.seq_slot.cmp(&self.seq_slot))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy)]
struct CancelSlot {
    generation: u64,
    cancelled: bool,
}

/// A deterministic time-ordered event queue (hierarchical timing wheel).
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, row-major by level.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// The next granule to drain; entries at granules below it live in
    /// `ready`, entries at or above it in the wheel.
    cursor: u64,
    /// Drained (and below-cursor) entries, popped in `(time, lane, seq)`
    /// order.
    ready: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Live (pushed, not fired, not cancelled) events.
    pending: usize,
    /// Generation-stamped cancellation slots; grows to the peak number of
    /// simultaneously pending *cancellable* events, never with the total
    /// pushed or cancelled.
    cancel_slots: Vec<CancelSlot>,
    free_slots: Vec<u32>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        EventQueue {
            slots,
            occupancy: [0; LEVELS],
            cursor: 0,
            ready: BinaryHeap::new(),
            next_seq: 0,
            pending: 0,
            cancel_slots: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Schedule `event` to fire at `time` on lane 0. Returns a handle that
    /// can cancel it.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        self.push_lane_handle(time, 0, event)
    }

    /// Schedule `event` at `time` on a canonical `lane`, fire-and-forget:
    /// no cancellation handle, no bookkeeping. Same-time events order by
    /// lane first, then insertion order within the lane.
    pub fn push_lane(&mut self, time: SimTime, lane: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.place(Entry {
            time,
            lane,
            seq_slot: seq_slot(seq, NO_SLOT),
            event,
        });
    }

    /// Like [`EventQueue::push_lane`], but returns a handle usable with
    /// [`EventQueue::cancel`].
    pub fn push_lane_handle(&mut self, time: SimTime, lane: u64, event: E) -> EventHandle {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.cancel_slots.len())
                    .expect("invariant: slot count bounded by NO_SLOT assert below");
                assert!(
                    u64::from(s) < NO_SLOT,
                    "cancellable-event slot space exhausted"
                );
                self.cancel_slots.push(CancelSlot {
                    generation: 0,
                    cancelled: false,
                });
                s
            }
        };
        let generation = self.cancel_slots
            [usize::try_from(slot).expect("invariant: u32 slot fits usize")]
        .generation;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.place(Entry {
            time,
            lane,
            seq_slot: seq_slot(seq, u64::from(slot)),
            event,
        });
        EventHandle { slot, generation }
    }

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled) is a no-op and costs no
    /// memory — the handle's generation no longer matches its slot.
    pub fn cancel(&mut self, handle: EventHandle) {
        let Some(rec) = self
            .cancel_slots
            .get_mut(usize::try_from(handle.slot).expect("invariant: u32 slot fits usize"))
        else {
            return;
        };
        if rec.generation == handle.generation && !rec.cancelled {
            rec.cancelled = true;
            self.pending -= 1;
        }
    }

    /// Pop the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let e = self.ready.pop()?;
        self.retire(e.slot());
        self.pending -= 1;
        Some((e.time, e.event))
    }

    /// The time of the earliest pending event, skipping cancelled ones.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.ready.peek().map(|e| e.time)
    }

    /// Pop the earliest non-cancelled event if it fires strictly before
    /// `limit`. One settle serves both the bound check and the pop,
    /// where a `peek_time` + `pop` pairing settles twice per event —
    /// this is the event loop's hot call.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.settle();
        if self.ready.peek()?.time >= limit {
            return None;
        }
        let e = self.ready.pop().expect("peeked");
        self.retire(e.slot());
        self.pending -= 1;
        Some((e.time, e.event))
    }

    /// Whether nothing would fire.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// File an entry into the wheel, or into `ready` if its granule has
    /// already been drained (late schedule below the cursor).
    fn place(&mut self, e: Entry<E>) {
        let granule = e.time.as_nanos() >> GRANULE_BITS;
        if granule < self.cursor {
            self.ready.push(e);
            return;
        }
        // The level of the highest bit where the granule differs from the
        // cursor; equal-granule entries land at level 0 in the cursor's
        // own (not yet drained) slot.
        let diff = granule ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            // lint: allow(cast) — u32 -> usize widening; value < LEVELS
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        debug_assert!(level < LEVELS);
        let idx = idx_of((granule >> level_shift(level)) & SLOT_MASK);
        self.slots[level * SLOTS + idx].push(e);
        self.occupancy[level] |= 1 << idx;
    }

    /// Recycle a cancellation slot after its event fired or was reaped.
    fn retire(&mut self, slot: u64) {
        if slot == NO_SLOT {
            return;
        }
        let rec = &mut self.cancel_slots[slot_of(slot)];
        rec.generation += 1;
        rec.cancelled = false;
        self.free_slots
            .push(u32::try_from(slot).expect("invariant: slot is 24-bit"));
    }

    /// Establish the pop invariant: `ready`'s top is the global earliest
    /// live event (every wheel granule ahead of every ready entry), with
    /// cancelled entries reaped off the top.
    fn settle(&mut self) {
        loop {
            while let Some(top) = self.ready.peek() {
                let slot = top.slot();
                if slot != NO_SLOT && self.cancel_slots[slot_of(slot)].cancelled {
                    let e = self.ready.pop().expect("peeked");
                    self.retire(e.slot());
                } else {
                    return;
                }
            }
            if !self.drain_next_slot() {
                return;
            }
        }
    }

    /// Advance the cursor to the next occupied slot — cascading
    /// higher-level slots down as the cursor enters them — and drain one
    /// level-0 slot into `ready`. Returns `false` when the wheel is empty.
    fn drain_next_slot(&mut self) -> bool {
        loop {
            // The lowest occupied level holds the earliest granule: level
            // l entries differ from the cursor only in granule bits
            // [6l, 6l+6), so they are strictly nearer than any higher
            // level's.
            let mut found = None;
            for (level, &occ) in self.occupancy.iter().enumerate() {
                let at = (self.cursor >> level_shift(level)) & SLOT_MASK;
                debug_assert_eq!(
                    occ & !(u64::MAX << at),
                    0,
                    "occupied slot behind the cursor"
                );
                if occ != 0 {
                    found = Some((level, u64::from(occ.trailing_zeros())));
                    break;
                }
            }
            let Some((level, idx)) = found else {
                return false;
            };
            self.occupancy[level] &= !(1 << idx);
            let mut entries = mem::take(&mut self.slots[level * SLOTS + idx_of(idx)]);
            if level == 0 {
                let granule = (self.cursor & !SLOT_MASK) | idx;
                debug_assert!(granule >= self.cursor);
                self.cursor = granule + 1;
                self.ready.extend(entries.drain(..));
                // Hand the allocation back to the slot for reuse.
                self.slots[idx_of(idx)] = entries;
                // If the increment carried across a block boundary, the
                // cursor just entered fresh higher-level slots; cascade
                // them now so new level-0 pushes into the entered block
                // cannot be drained ahead of the entries they hold. (A
                // carry that crosses the level-l boundary zeroes every
                // bit below 6l, so the entered slots are checked in one
                // low-bits scan.)
                if self.cursor & SLOT_MASK == 0 {
                    self.cascade_entered_blocks();
                }
                return true;
            }
            // Cascade: move the cursor to the slot's base granule (all
            // lower levels are provably empty up to there) and re-file
            // the entries, which now land at lower levels.
            let shift = level_shift(level);
            let span_mask = (1u64 << (shift + LEVEL_BITS)) - 1;
            let base = (self.cursor & !span_mask) | (idx << shift);
            debug_assert!(base >= self.cursor);
            self.cursor = base;
            for e in entries.drain(..) {
                self.place(e);
            }
            self.slots[level * SLOTS + idx_of(idx)] = entries;
        }
    }

    /// Cascade the slots the cursor sits at the base of, lowest level
    /// first. Called whenever the cursor lands on a block boundary, this
    /// maintains the invariant that the slot covering the cursor at every
    /// level `l ≥ 1` is empty — which is what makes "lowest occupied
    /// level holds the earliest granule" true and keeps level placement
    /// of later pushes consistent with entries filed before the cursor
    /// entered the block.
    fn cascade_entered_blocks(&mut self) {
        for level in 1..LEVELS {
            let shift = level_shift(level);
            if self.cursor & ((1u64 << shift) - 1) != 0 {
                break;
            }
            let idx = idx_of((self.cursor >> shift) & SLOT_MASK);
            if self.occupancy[level] & (1 << idx) == 0 {
                continue;
            }
            self.occupancy[level] &= !(1 << idx);
            let mut entries = mem::take(&mut self.slots[level * SLOTS + idx]);
            for e in entries.drain(..) {
                debug_assert!(e.time.as_nanos() >> GRANULE_BITS >= self.cursor);
                self.place(e);
            }
            self.slots[level * SLOTS + idx] = entries;
        }
    }
}

pub mod reference {
    //! The pre-wheel event queue: a binary heap with tombstone
    //! cancellation, kept verbatim as a differential-testing oracle (see
    //! `tests/event_queue_props.rs`) and as the baseline the
    //! `engine_throughput` bench measures the wheel against. Known wart,
    //! deliberately preserved: cancelling a handle whose event already
    //! fired leaves a tombstone in the `HashSet` forever.

    use super::Ordering;
    use crate::time::SimTime;
    use std::collections::BinaryHeap;

    /// Handle to an event scheduled on a [`HeapQueue`].
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct HeapHandle(u64);

    struct Scheduled<E> {
        time: SimTime,
        lane: u64,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.lane.cmp(&self.lane))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-wheel `(time, lane, seq)` binary-heap queue.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        cancelled: std::collections::HashSet<u64>,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// An empty queue.
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                cancelled: std::collections::HashSet::new(),
            }
        }

        /// Schedule `event` at `time` on a canonical `lane`.
        pub fn push_lane(&mut self, time: SimTime, lane: u64, event: E) -> HeapHandle {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled {
                time,
                lane,
                seq,
                event,
            });
            HeapHandle(seq)
        }

        /// Cancel a scheduled event (tombstone; leaks if already fired).
        pub fn cancel(&mut self, handle: HeapHandle) {
            self.cancelled.insert(handle.0);
        }

        /// Pop the earliest non-cancelled event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(s) = self.heap.pop() {
                if self.cancelled.remove(&s.seq) {
                    continue;
                }
                return Some((s.time, s.event));
            }
            None
        }

        /// The time of the earliest pending event.
        pub fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(s) = self.heap.peek() {
                if self.cancelled.contains(&s.seq) {
                    let s = self.heap.pop().expect("peeked");
                    self.cancelled.remove(&s.seq);
                    continue;
                }
                return Some(s.time);
            }
            None
        }

        /// Number of pending (non-cancelled) events. Saturating: a
        /// cancel-after-fire tombstone can outnumber heap entries (the
        /// preserved wart), which must not underflow here.
        pub fn len(&self) -> usize {
            self.heap.len().saturating_sub(self.cancelled.len())
        }

        /// Whether nothing would fire.
        pub fn is_empty(&self) -> bool {
            self.heap.len() <= self.cancelled.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().expect("invariant: event still pending").1, i);
        }
    }

    #[test]
    fn lanes_order_same_time_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push_lane(t, 9, "lane9");
        q.push_lane(t, 2, "lane2-first");
        q.push_lane(t, 5, "lane5");
        q.push_lane(t, 2, "lane2-second");
        // Earlier time always wins over lane.
        q.push_lane(SimTime::from_secs(2), 0, "later");
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "lane2-first"
        );
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "lane2-second"
        );
        assert_eq!(q.pop().expect("invariant: event still pending").1, "lane5");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "lane9");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "later");
    }

    #[test]
    fn pop_before_respects_the_bound() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        let h = q.push(SimTime::from_secs(2), "b");
        q.push(SimTime::from_secs(3), "c");
        q.cancel(h);
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None, "strict bound");
        assert_eq!(
            q.pop_before(SimTime::from_secs(2))
                .expect("invariant: \"a\" is below the bound")
                .1,
            "a"
        );
        // The cancelled "b" is skipped; "c" sits at the bound.
        assert_eq!(q.pop_before(SimTime::from_secs(3)), None);
        assert_eq!(
            q.pop_before(SimTime::MAX)
                .expect("invariant: \"c\" still pending")
                .1,
            "c"
        );
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        q.cancel(h1);
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        q.cancel(h);
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn len_accounts_for_cancelled() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::ZERO, 1);
        let _h2 = q.push(SimTime::ZERO + SimDuration::from_secs(1), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_when_all_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::ZERO, ());
        q.cancel(h);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_cross_every_level() {
        // One event per time scale, pushed in reverse order: exercises
        // placement at every wheel level and the cascade path down.
        let mut q = EventQueue::new();
        // 2^60 ns reaches granule bit 50 → the top wheel level (8).
        let times: Vec<u64> = (0..16).map(|i| 1u64 << (4 * i)).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push_lane(SimTime::from_nanos(t), 0, i);
        }
        for (i, &t) in times.iter().enumerate() {
            let (at, got) = q.pop().expect("invariant: event still pending");
            assert_eq!((at, got), (SimTime::from_nanos(t), i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_granule_events_sort_by_full_key() {
        // Three events inside one ~1 µs granule: granularity must not
        // coarsen the (time, lane, seq) order.
        let mut q = EventQueue::new();
        q.push_lane(SimTime::from_nanos(900), 5, "b");
        q.push_lane(SimTime::from_nanos(1000), 0, "c");
        q.push_lane(SimTime::from_nanos(900), 1, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "c");
    }

    #[test]
    fn late_push_below_cursor_still_orders() {
        // After draining past a granule, a push aimed below the cursor
        // must still pop (immediately, and in key order).
        let mut q = EventQueue::new();
        q.push_lane(SimTime::from_nanos(10_000_000), 0, "far");
        q.push_lane(SimTime::from_nanos(100), 0, "early");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "early");
        // Cursor is now past t=100ns; schedule below it.
        q.push_lane(SimTime::from_nanos(200), 7, "late-b");
        q.push_lane(SimTime::from_nanos(200), 3, "late-a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "late-a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "late-b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "far");
    }

    #[test]
    fn entry_header_is_cache_packed() {
        // The seq/slot packing exists to shrink the per-entry header
        // from 32 to 24 bytes; a regression here silently costs a third
        // more wheel and ready-heap memory traffic.
        assert_eq!(mem::size_of::<Entry<()>>(), 24);
        assert_eq!(mem::size_of::<Entry<u64>>(), 32);
    }

    #[test]
    fn packed_seq_orders_across_slot_values() {
        // An earlier push with a high slot must still pop before a later
        // push with a low slot at the same (time, lane): the sequence
        // occupies the high bits of the packed word.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Burn slots so the live ones differ: handle-less (all slot bits
        // set) interleaved with slot 0.
        q.push_lane(t, 3, "no-handle-first");
        let h = q.push_lane_handle(t, 3, "slot0-second");
        q.push_lane(t, 3, "no-handle-third");
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "no-handle-first"
        );
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "slot0-second"
        );
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "no-handle-third"
        );
        q.cancel(h); // stale; exercises slot extraction post-fire
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_fired_handles_does_not_grow_bookkeeping() {
        // Regression for the pre-wheel tombstone leak: cancel N handles
        // after their events fired and assert the queue's bookkeeping
        // stays O(pending), not O(cancelled-ever).
        let mut q = EventQueue::new();
        let mut stale = Vec::new();
        for i in 0..10_000u64 {
            let h = q.push_lane_handle(SimTime::from_nanos(i * 50), 0, i);
            assert_eq!(q.pop().expect("invariant: event still pending").1, i);
            stale.push(h);
        }
        for h in stale {
            q.cancel(h); // all no-ops: every event already fired
        }
        assert!(q.is_empty());
        // One cancellable event was ever pending at a time, so one slot
        // suffices forever; the stale cancels must not have re-marked it.
        assert_eq!(q.cancel_slots.len(), 1, "slot slab grew with fired handles");
        assert_eq!(q.free_slots.len(), 1);
        assert!(
            !q.cancel_slots[0].cancelled,
            "stale cancel marked a recycled slot"
        );
        // And the recycled slot still works for a live cancellation.
        let h = q.push_lane_handle(SimTime::from_secs(1), 0, 42);
        q.cancel(h);
        assert!(q.pop().is_none());
        assert_eq!(q.cancel_slots.len(), 1);
    }

    #[test]
    fn interleaved_pushes_pops_and_cancels_match_reference() {
        // A deterministic mixed workload against the reference heap
        // (the proptest in tests/event_queue_props.rs randomizes this).
        use super::reference::HeapQueue;
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut wheel_handles = Vec::new();
        let mut heap_handles = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next_rand = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..50_000u64 {
            let r = next_rand();
            let t = SimTime::from_nanos((r >> 16) % (1 << ((r % 36) + 8)));
            let lane = r % 5;
            match r % 10 {
                0..=5 => {
                    wheel_handles.push(wheel.push_lane_handle(t, lane, i));
                    heap_handles.push(heap.push_lane(t, lane, i));
                }
                6 | 7 => {
                    assert_eq!(wheel.pop(), heap.pop(), "pop #{i} diverged");
                }
                8 => {
                    assert_eq!(wheel.peek_time(), heap.peek_time());
                }
                _ => {
                    if !wheel_handles.is_empty() {
                        let k = (r as usize / 7) % wheel_handles.len();
                        wheel.cancel(wheel_handles[k]);
                        heap.cancel(heap_handles[k]);
                    }
                }
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reference_heap_len_survives_cancel_after_fire() {
        // The oracle's preserved wart is a leaked tombstone, not a
        // panic: once cancel-after-fire makes `cancelled` outnumber the
        // heap, `len`/`is_empty` must saturate instead of underflowing.
        use super::reference::HeapQueue;
        let mut q = HeapQueue::new();
        let h = q.push_lane(SimTime::from_secs(1), 0, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        q.cancel(h); // fired already: tombstone leaks
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        q.push_lane(SimTime::from_secs(2), 0, "b");
        assert_eq!(q.len(), 0, "leaked tombstone undercounts (known wart)");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
    }
}
