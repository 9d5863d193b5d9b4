//! Event-queue replay: `EventQueue` push_lane / push_lane_handle /
//! cancel / pop with a workload's delay mix and pending-set size.

use super::{mix, Pass, Replay, CHECKSUM_BASIS};
use speakup_net::event::reference::{HeapHandle, HeapQueue};
use speakup_net::event::{EventHandle, EventQueue};
use speakup_net::rng::Pcg32;
use speakup_net::time::{SimDuration, SimTime};

/// One class of scheduling delay, drawn uniformly from `[lo_ns, hi_ns]`.
#[derive(Clone, Copy, Debug)]
pub struct DelayClass {
    /// Relative weight among the shape's classes.
    pub weight: u32,
    /// Shortest delay, ns.
    pub lo_ns: u64,
    /// Longest delay, ns.
    pub hi_ns: u64,
    /// Whether the event is a re-armed timer: cancel the previous one
    /// on its slot, then push a cancellable replacement (the
    /// transport's per-ACK RTO pattern).
    pub timer: bool,
}

/// How a workload uses the event queue.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Steady-state number of pending events.
    pub pending: usize,
    /// Distinct re-armable timers (flows with an RTO).
    pub timers: u32,
    /// Scheduling delays.
    pub delays: &'static [DelayClass],
    /// Pops in one pass (after the pending set is filled).
    pub pops: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Fire-and-forget push `delay` ns after the last popped event.
    Push { delay: u64, lane: u64 },
    /// Cancel timer `slot`'s pending event and push its replacement.
    Rearm { delay: u64, slot: u32 },
    /// Pop the earliest event.
    Pop,
}

/// A generated queue-operation stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    ops: Vec<Op>,
    timers: u32,
}

/// Generates the operation stream for `shape` from `seed`: the pending
/// set is filled, then every pop is followed by one push or re-arm.
pub fn script(shape: &Shape, seed: u64) -> Script {
    let mut rng = Pcg32::new(seed, 0xe7e7);
    let total: u32 = shape.delays.iter().map(|c| c.weight).sum();
    assert!(
        total > 0 && shape.timers > 0,
        "event shape needs delays and timers"
    );
    let mut ops = Vec::with_capacity(shape.pending + 2 * shape.pops);
    let schedule = |ops: &mut Vec<Op>, rng: &mut Pcg32| {
        let mut pick = rng.below(total);
        let class = shape
            .delays
            .iter()
            .find(|c| {
                if pick < c.weight {
                    true
                } else {
                    pick -= c.weight;
                    false
                }
            })
            .expect("pick is below the total weight");
        let delay = rng.range_u64(class.lo_ns, class.hi_ns);
        let slot = rng.below(shape.timers);
        ops.push(if class.timer {
            Op::Rearm { delay, slot }
        } else {
            Op::Push {
                delay,
                lane: u64::from(slot),
            }
        });
    };
    for _ in 0..shape.pending {
        schedule(&mut ops, &mut rng);
    }
    for _ in 0..shape.pops {
        ops.push(Op::Pop);
        schedule(&mut ops, &mut rng);
    }
    Script {
        ops,
        timers: shape.timers,
    }
}

/// The queue operations the replay needs, so the wheel and the heap
/// oracle run the identical driver.
trait Queue {
    type Handle: Copy;
    fn push_lane(&mut self, time: SimTime, lane: u64, event: u32);
    fn push_handle(&mut self, time: SimTime, lane: u64, event: u32) -> Self::Handle;
    fn cancel(&mut self, handle: Self::Handle);
    fn pop(&mut self) -> Option<(SimTime, u32)>;
}

impl Queue for EventQueue<u32> {
    type Handle = EventHandle;
    #[inline]
    fn push_lane(&mut self, time: SimTime, lane: u64, event: u32) {
        EventQueue::push_lane(self, time, lane, event);
    }
    #[inline]
    fn push_handle(&mut self, time: SimTime, lane: u64, event: u32) -> EventHandle {
        self.push_lane_handle(time, lane, event)
    }
    #[inline]
    fn cancel(&mut self, handle: EventHandle) {
        EventQueue::cancel(self, handle);
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        EventQueue::pop(self)
    }
}

impl Queue for HeapQueue<u32> {
    type Handle = HeapHandle;
    fn push_lane(&mut self, time: SimTime, lane: u64, event: u32) {
        HeapQueue::push_lane(self, time, lane, event);
    }
    fn push_handle(&mut self, time: SimTime, lane: u64, event: u32) -> HeapHandle {
        HeapQueue::push_lane(self, time, lane, event)
    }
    fn cancel(&mut self, handle: HeapHandle) {
        HeapQueue::cancel(self, handle);
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        HeapQueue::pop(self)
    }
}

/// Drives `q` through the script, calling `popped` for every pop.
/// Returns the number of queue operations (a re-arm is a cancel plus a
/// push).
fn drive<Q: Queue>(script: &Script, q: &mut Q, mut popped: impl FnMut(SimTime, u32)) -> u64 {
    let mut handles: Vec<Option<Q::Handle>> = vec![None; script.timers as usize];
    let mut now = SimTime::ZERO;
    let mut ops = 0u64;
    for (i, op) in script.ops.iter().enumerate() {
        // The event payload is the op index: unique, so a pop sequence
        // pins down exactly which push fired.
        let id = u32::try_from(i).expect("script fits u32 ids");
        match *op {
            Op::Push { delay, lane } => {
                q.push_lane(now + SimDuration::from_nanos(delay), lane, id);
                ops += 1;
            }
            Op::Rearm { delay, slot } => {
                let slot = slot as usize;
                if let Some(h) = handles[slot].take() {
                    q.cancel(h);
                    ops += 1;
                }
                let lane = (1 << 32) | slot as u64;
                handles[slot] = Some(q.push_handle(now + SimDuration::from_nanos(delay), lane, id));
                ops += 1;
            }
            Op::Pop => {
                if let Some((t, e)) = q.pop() {
                    now = t;
                    popped(t, e);
                }
                ops += 1;
            }
        }
    }
    ops
}

impl Script {
    /// The `(time ns, event)` pop sequence through the timing wheel, or
    /// through the binary-heap oracle when `reference` is set.
    pub fn pops(&self, reference: bool) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let sink = |t: SimTime, e: u32| out.push((t.as_nanos(), e));
        if reference {
            drive(self, &mut HeapQueue::new(), sink);
        } else {
            drive(self, &mut EventQueue::new(), sink);
        }
        out
    }
}

impl Replay for Script {
    fn pass(&self) -> Pass {
        let mut checksum = CHECKSUM_BASIS;
        let ops = drive(self, &mut EventQueue::new(), |t, e| {
            checksum = mix(checksum, t.as_nanos() ^ (u64::from(e) << 40));
        });
        Pass { ops, checksum }
    }
}
