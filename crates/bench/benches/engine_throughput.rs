//! Engine hot-path throughput: the benchmark baseline the ROADMAP's
//! perf trajectory is gated against.
//!
//! Three measurements, written to `BENCH_engine.json` at the workspace
//! root (machine-readable, uploaded as a CI artifact so later PRs can
//! diff against it):
//!
//! * **End-to-end events/sec** of fig2- and fig7-shaped workloads run
//!   through the full engine (agents, transport, links,
//!   timing-wheel queue, slab flow tables). This is the number that
//!   tracks across PRs. Each workload also reports its dispatch
//!   breakdown (events per app variant, from the devirtualized
//!   `AppSet` counters) and its steady-state allocation rate.
//! * **Crowd scaling** (`fig2_xl`): fig2's f=0.5 point at 10^5 clients
//!   via flyweight cohorts, measured over a milliseconds-long window
//!   (the workload moves ~2 x 10^8 events per simulated second).
//!   Reports events/sec, setup time, and peak RSS (`/proc/self/status`
//!   `VmHWM`), and asserts the RSS stays under a ceiling — the checked
//!   form of the claim that 10^5 clients do not need 10^5 agents.
//! * **Hot-path replay**: an identical fig2-shaped schedule of event
//!   pushes, pops, per-event flow-table accesses, and RTO rearm
//!   cancellations driven through both generations of the per-event
//!   hot path — the timing wheel + `FlowSlab` tables of this engine,
//!   and the pre-wheel binary heap (kept in
//!   `speakup_net::event::reference`) + the `BTreeMap` flow/RTO tables
//!   it ran with. The replay doubles as a differential test — both
//!   paths must pop the byte-identical event sequence — and reports the
//!   new hot path's speedup in isolation, independent of agent logic.
//! * **Steady-state allocations**, counted by a tracking allocator
//!   installed for this binary only, so "0 allocs/event steady-state"
//!   is a checked property, not a hope. The replay's second half
//!   (after wheel slots, the ready heap, and cancel slots have grown
//!   to their working capacity) is asserted to allocate less than once
//!   per *thousand* events — it cannot be literally zero on an
//!   unbounded horizon, because as simulated time advances past ever
//!   higher block boundaries the wheel files the occasional entry into
//!   a never-before-touched high-level slot, a logarithmically decaying
//!   trickle (measured ~1 allocation per 10,000 events). The
//!   end-to-end workloads additionally report fractional
//!   allocations/event for the back half of each run, asserted below
//!   one per twenty events (flow opens box their config; each served
//!   request records metrics).
//!
//! Not a criterion bench: it needs its own timing loop to emit JSON.
//! `--quick` (the CI profile) runs one timed iteration per measurement
//! and shorter simulated runs.
//!
//! * **Replicated thinners** (schema v4): fig2 with the auction split
//!   over 4 replicas (`--thinners 4`, 10 ms digest cadence) —
//!   events/sec with the digest traffic included.
//!
//! The JSON also carries frozen baselines so the speedups each PR
//! claims stay auditable from the emitted document alone:
//! [`PRE_PR_FIG2_EVENTS_PER_SEC`] (the pre-wheel engine), the
//! [`PR4_FIG2_EVENTS_PER_SEC`] family (the wheel engine before the
//! devirtualized-dispatch / allocation-free-loop work), and so on up
//! to the [`PR8_FIG2_EVENTS_PER_SEC`] family (the engine just before
//! the replicated-thinner work). None can be re-measured here — the
//! current engine is the only one the scenarios run through — so the
//! constants pin the history.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (not bytes, not frees): the hot-loop
/// property under test is "no allocator traffic per event", and a
/// single counter keeps the timed loops honest — one relaxed
/// `fetch_add` per allocation, nothing on the (allocation-free) fast
/// path being measured.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Workspace code forbids `unsafe`; this bench binary is the one spot
// that needs it, to interpose on the global allocator. The impl defers
// every operation to `System` untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// End-to-end events/sec of the pre-wheel engine (binary-heap queue +
/// `BTreeMap` flow tables) on the same fig2/fig7 workloads as below:
/// full profile (best of 3, 20 s simulated), single shard, measured at
/// commit 73cde59 (the last pre-wheel commit) on the reference 1-core
/// CI host. Both engines process byte-identical event streams, so
/// events/sec ratios are end-to-end speedups. To re-measure: check out
/// 73cde59 and drive `runner::run` on the same scenarios with this
/// file's timing loop. Run-to-run spread on that host is ±15%;
/// interleaved paired measurements of the two engines put the fig2
/// end-to-end speedup in the 1.9–2.2× band.
const PRE_PR_FIG2_EVENTS_PER_SEC: f64 = 1_914_426.0;
/// See [`PRE_PR_FIG2_EVENTS_PER_SEC`].
const PRE_PR_FIG7_EVENTS_PER_SEC: f64 = 3_242_600.0;

/// The wheel engine as of PR 4 (commit a35c553): timing wheel + slab
/// tables, but box-dispatched apps, per-packet RNG draws on every
/// link, and per-send route walks. Full profile on the same 1-core
/// host; same ±15% caveat as the pre-wheel constants. These are the
/// committed `BENCH_engine.json` numbers that PR predecessor left
/// behind, frozen here so the current engine's speedup over it stays
/// in the emitted document.
const PR4_FIG2_EVENTS_PER_SEC: f64 = 4_002_431.0;
/// See [`PR4_FIG2_EVENTS_PER_SEC`].
const PR4_FIG7_EVENTS_PER_SEC: f64 = 4_604_613.0;
/// PR 4's hot-path replay rate (wheel + slab side), full profile.
const PR4_REPLAY_EVENTS_PER_SEC: f64 = 9_636_320.0;

/// The engine as of PR 6 (commit 8e5ba0f): devirtualized dispatch and
/// the allocation-free hot loop, but 32-byte wheel entries, per-window
/// cross-shard buffer churn, and no crowd abstraction — every client a
/// full agent. Frozen from the `BENCH_engine.json` that PR committed
/// (full profile, same 1-core host, same ±15% spread caveat) so this
/// PR's written delta — the 32 → 24-byte `Entry` cache repack plus the
/// cohort/SoA restructuring — stays auditable from the document alone.
const PR6_FIG2_EVENTS_PER_SEC: f64 = 6_118_981.0;
/// See [`PR6_FIG2_EVENTS_PER_SEC`].
const PR6_FIG7_EVENTS_PER_SEC: f64 = 8_169_609.0;
/// PR 6's hot-path replay rate (wheel + slab side), full profile.
const PR6_REPLAY_EVENTS_PER_SEC: f64 = 11_026_723.0;

/// The engine as of PR 8 (commit 91c25d1): flyweight cohorts, recycled
/// cross-shard buffers, repacked wheel entries — the last single-thinner
/// engine before the replicated-thinner work. Frozen from the
/// `BENCH_engine.json` that PR committed (full profile, same 1-core
/// host, same ±15% spread caveat) so the replicated engine's zero-cost
/// claim at `--thinners 1` stays auditable from the document alone.
const PR8_FIG2_EVENTS_PER_SEC: f64 = 6_669_491.0;
/// See [`PR8_FIG2_EVENTS_PER_SEC`].
const PR8_FIG7_EVENTS_PER_SEC: f64 = 8_718_979.0;
/// PR 8's hot-path replay rate (wheel + slab side), full profile.
const PR8_REPLAY_EVENTS_PER_SEC: f64 = 12_374_843.0;
/// PR 8's fig2_xl crowd-scaling rate, full profile.
const PR8_XL_EVENTS_PER_SEC: f64 = 2_436_624.0;

/// Ceiling on `fig2_xl`'s peak RSS, enforced at measurement time (and
/// re-checked against the committed document by `validate_baseline`).
/// The flyweight-cohort population keeps 10^5 clients well under half
/// a GB today; the ceiling leaves headroom for flow-table growth in
/// longer runs while still catching a regression to per-member agents
/// (which would cost an order of magnitude more).
const XL_PEAK_RSS_CEILING_BYTES: u64 = 8 << 30;

use speakup_exp::runner::run;
use speakup_exp::scenario::Mode;
use speakup_exp::scenarios;
use speakup_net::event::{reference::HeapQueue, EventHandle, EventQueue};
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::rng::Pcg32;
use speakup_net::sim::flow_id;
use speakup_net::slab::FlowSlab;
use speakup_net::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Workload {
    name: &'static str,
    sim_secs: u64,
    events: u64,
    events_per_sec: f64,
    /// Allocations per event over the back half of the run (see
    /// `steady_state_allocs_per_event` in `main`).
    steady_allocs_per_event: f64,
    /// (variant name, events dispatched to that variant).
    dispatch: Vec<(&'static str, u64)>,
}

/// Stand-in for the transport's per-flow state (`tcp::Flow` is ~this
/// size); the replay mutates a couple of fields per event the way
/// `on_ack`/`on_data` do.
struct FakeFlow {
    acked: u64,
    delivered: u64,
    _pad: [u64; 20],
}

impl FakeFlow {
    fn new() -> Self {
        FakeFlow {
            acked: 0,
            delivered: 0,
            _pad: [0; 20],
        }
    }
}

/// One step of the recorded fig2-shaped schedule.
enum Op {
    /// A packet-lifecycle event for `flow`, `delay` ns after the last
    /// popped event.
    Push { delay: u64, lane: u64, flow: u32 },
    /// Rearm `flow`'s RTO (cancel the armed one, push a fresh timer) —
    /// the transport's per-ack pattern, and the pre-PR engine's
    /// tombstone + `BTreeMap` hot spot.
    Rearm { delay: u64, flow: u32 },
    /// Pop the earliest event and touch its flow's table entry.
    Pop,
}

/// Number of flows fig2 accumulates over a ~30 s run (flow state is
/// append-only in the engine; lookups walk the full table).
const FLOWS: usize = 12_000;
/// Clients a fig2 population has; flow ids pack (node, per-node count).
const NODES: u32 = 50;

fn flow_of(i: u32) -> FlowId {
    flow_id(NodeId(i % NODES), i / NODES)
}

/// A fig2-shaped schedule: steady state around `pending` in-queue
/// events; delays mix aggregation-link transmissions (~12 µs), access
/// propagation (~500 µs), access-link transmissions (~6 ms), and
/// application timers; ~40% of events are acks that rearm their flow's
/// ~1 s RTO, so both queues carry a realistic population of
/// cancelled-but-unexpired timers. Deterministic, so both hot paths
/// replay byte-identical operation streams.
fn fig2_shaped_schedule(pending: usize, steps: usize) -> Vec<Op> {
    let mut rng = Pcg32::new(0x5ea4_bee5, 1);
    let mut ops = Vec::with_capacity(pending + 2 * steps);
    let step = |ops: &mut Vec<Op>, rng: &mut Pcg32| {
        let flow = rng.below(FLOWS as u32);
        let r = rng.below(100);
        match r {
            0..=29 => ops.push(Op::Push {
                delay: rng.range_u64(8_000, 16_000), // ~12 µs serialization
                lane: flow as u64,
                flow,
            }),
            30..=49 => ops.push(Op::Push {
                delay: rng.range_u64(400_000, 600_000), // ~500 µs propagation
                lane: flow as u64,
                flow,
            }),
            50..=54 => ops.push(Op::Push {
                delay: rng.range_u64(20_000_000, 80_000_000), // app timers
                lane: (1 << 32) | flow as u64,
                flow,
            }),
            55..=59 => ops.push(Op::Push {
                delay: rng.range_u64(5_000_000, 7_000_000), // ~6 ms access tx
                lane: flow as u64,
                flow,
            }),
            _ => ops.push(Op::Rearm {
                delay: rng.range_u64(900_000_000, 1_100_000_000), // ~1 s RTO
                flow,
            }),
        }
    };
    for _ in 0..pending {
        step(&mut ops, &mut rng);
    }
    for _ in 0..steps {
        ops.push(Op::Pop);
        step(&mut ops, &mut rng);
    }
    ops
}

/// Replay state for this engine's hot path: timing wheel + `FlowSlab`.
struct WheelReplay {
    q: EventQueue<u32>,
    table: FlowSlab<FakeFlow>,
    rto: FlowSlab<EventHandle>,
    now: SimTime,
    pops: u64,
    checksum: u64,
}

impl WheelReplay {
    fn new() -> Self {
        let mut table: FlowSlab<FakeFlow> = FlowSlab::new(NODES as usize);
        for i in 0..FLOWS as u32 {
            table.insert(flow_of(i), FakeFlow::new());
        }
        WheelReplay {
            q: EventQueue::new(),
            table,
            rto: FlowSlab::new(NODES as usize),
            now: SimTime::ZERO,
            pops: 0,
            checksum: 0,
        }
    }

    #[inline]
    fn step(&mut self, op: &Op) {
        match *op {
            Op::Push { delay, lane, flow } => {
                self.q
                    .push_lane(self.now + SimDuration::from_nanos(delay), lane, flow);
            }
            Op::Rearm { delay, flow } => {
                let id = flow_of(flow);
                if let Some(h) = self.rto.take(id) {
                    self.q.cancel(h);
                }
                let h = self.q.push_lane_handle(
                    self.now + SimDuration::from_nanos(delay),
                    flow as u64,
                    flow,
                );
                self.rto.insert(id, h);
            }
            Op::Pop => {
                if let Some((t, flow)) = self.q.pop() {
                    self.now = t;
                    self.pops += 1;
                    let f = self.table.get_mut(flow_of(flow)).expect("replay flow");
                    f.acked += t.as_nanos() & 0xff;
                    f.delivered += 1;
                    self.checksum = self
                        .checksum
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(t.as_nanos() ^ flow as u64);
                }
            }
        }
    }
}

/// Replay through the wheel + slab hot path. Returns
/// (pops, checksum, allocations performed over the second half of the
/// schedule). The first half doubles as warmup: by midway the wheel's
/// slot vectors, ready heap, and cancel slots have hit their working
/// capacity, so the back half is the steady state the engine claims is
/// allocation-free.
fn replay_wheel_slab(ops: &[Op]) -> (u64, u64, u64) {
    let mut r = WheelReplay::new();
    let (warmup, steady) = ops.split_at(ops.len() / 2);
    for op in warmup {
        r.step(op);
    }
    let base = alloc_count();
    for op in steady {
        r.step(op);
    }
    let steady_allocs = alloc_count() - base;
    (r.pops, r.checksum, steady_allocs)
}

/// Replay through the pre-PR hot path: binary heap with tombstone
/// cancellation + `BTreeMap` flow/RTO tables.
fn replay_heap_btreemap(ops: &[Op]) -> (u64, u64) {
    let mut q = HeapQueue::new();
    let mut table: BTreeMap<FlowId, FakeFlow> = BTreeMap::new();
    let mut rto = BTreeMap::new();
    for i in 0..FLOWS as u32 {
        table.insert(flow_of(i), FakeFlow::new());
    }
    let mut now = SimTime::ZERO;
    let (mut pops, mut checksum) = (0u64, 0u64);
    for op in ops {
        match *op {
            Op::Push { delay, lane, flow } => {
                q.push_lane(now + SimDuration::from_nanos(delay), lane, flow);
            }
            Op::Rearm { delay, flow } => {
                let id = flow_of(flow);
                if let Some(h) = rto.remove(&id) {
                    q.cancel(h);
                }
                let h = q.push_lane(now + SimDuration::from_nanos(delay), flow as u64, flow);
                rto.insert(id, h);
            }
            Op::Pop => {
                if let Some((t, flow)) = q.pop() {
                    now = t;
                    pops += 1;
                    let f = table.get_mut(&flow_of(flow)).expect("replay flow");
                    f.acked += t.as_nanos() & 0xff;
                    f.delivered += 1;
                    checksum = checksum
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(t.as_nanos() ^ flow as u64);
                }
            }
        }
    }
    (pops, checksum)
}

/// Process-lifetime peak resident set, from `/proc/self/status`
/// `VmHWM`, in bytes. Returns 0 where procfs is unavailable (non-Linux
/// dev hosts); callers skip the RSS assertions then rather than fail.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        // Benches time the host by definition.
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one iteration"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 1 } else { 3 };
    let sim_secs = if quick { 5 } else { 20 };

    // ---- end-to-end engine throughput ----
    let shapes = [
        ("fig2", scenarios::fig2(0.5, Mode::Auction)),
        ("fig7", scenarios::fig7(false)),
    ];
    let mut workloads = Vec::new();
    for (name, mut sc) in shapes {
        sc.duration = SimDuration::from_secs(sim_secs);
        let (wall, report) = best_of(iters, || run(&sc));
        let events = report.events();
        let events_per_sec = events as f64 / wall;

        // Steady-state allocation rate, measured end-to-end and
        // black-box: run the same scenario at half duration, then at
        // full duration. The half run's event stream is a prefix of the
        // full run's (same seeds, same schedule), so subtracting its
        // allocation count cancels everything the two runs share —
        // topology build, slab/wheel warmup growth, the common prefix
        // of the simulation — and what remains is the back half of the
        // run: the steady state. Flow opens still happen there (each
        // boxes a config) as does per-request metrics accounting, so
        // the rate is fractional-but-tiny rather than literally zero
        // (~0.01: a handful of allocations per served request, spread
        // over the ~100 events each request costs); the assert pins it
        // below one allocation per *twenty* events.
        let mut half = sc.clone();
        half.duration = SimDuration::from_secs(sim_secs / 2);
        let before_half = alloc_count();
        let half_report = run(&half);
        let half_allocs = alloc_count() - before_half;
        let before_full = alloc_count();
        let _ = run(&sc);
        let full_allocs = alloc_count() - before_full;
        let half_events = half_report.events();
        let steady_events = events - half_events;
        let steady_allocs = full_allocs.saturating_sub(half_allocs);
        let steady_allocs_per_event = steady_allocs as f64 / steady_events as f64;
        assert!(
            steady_allocs_per_event < 0.05,
            "{name} steady state allocates {steady_allocs_per_event:.4} times/event \
             ({steady_allocs} allocations over {steady_events} events) — \
             the hot loop is supposed to be allocation-free"
        );

        let dispatched: u64 = report.dispatch_counts.iter().map(|(_, c)| c).sum();
        let mut breakdown = String::new();
        for (variant, count) in &report.dispatch_counts {
            let _ = write!(
                breakdown,
                "{}{variant} {:.1}%",
                if breakdown.is_empty() { "" } else { ", " },
                100.0 * *count as f64 / dispatched.max(1) as f64
            );
        }
        println!(
            "engine_throughput/{name}: {events} events in {wall:.3}s = {events_per_sec:.0} events/sec"
        );
        println!(
            "engine_throughput/{name}: {steady_allocs_per_event:.4} allocs/event steady-state; dispatch {breakdown}"
        );
        workloads.push(Workload {
            name,
            sim_secs,
            events,
            events_per_sec,
            steady_allocs_per_event,
            dispatch: report.dispatch_counts,
        });
    }

    // ---- fig2_xl: crowd-scaling memory/throughput baseline ----
    // 10^5 clients of fig2's f=0.5 shape move ~2 x 10^8 events per
    // *simulated* second (50k attackers' payment traffic saturating
    // 100 Gbit/s of aggregate access bandwidth), so the window is
    // milliseconds where the small workloads run whole seconds: long
    // enough to push tens of millions of events through every cohort
    // and measure a stable rate, short enough to finish in CI. One
    // timed iteration — at this event count, best-of adds minutes for
    // a rate that is already averaged over ~10^7 events.
    let xl_ms = if quick { 40 } else { 150 };
    let mut xl = scenarios::fig2_xl();
    let xl_population = xl.population();
    xl.duration = SimDuration::from_millis(xl_ms);
    // Setup cost in isolation: a run truncated to one simulated
    // microsecond is all topology/agent/table construction.
    let mut xl_setup = xl.clone();
    xl_setup.duration = SimDuration::from_micros(1);
    // Benches time the host by definition.
    let setup_start = Instant::now();
    let _ = run(&xl_setup);
    let xl_setup_secs = setup_start.elapsed().as_secs_f64();
    let xl_start = Instant::now();
    let xl_report = run(&xl);
    let xl_wall = xl_start.elapsed().as_secs_f64();
    let xl_events = xl_report.events();
    let xl_eps = xl_events as f64 / xl_wall;
    // VmHWM is the process high-water mark; the fig2/fig7 workloads
    // above stay under ~100 MB, so the figure is fig2_xl's.
    let xl_rss = peak_rss_bytes();
    if xl_rss > 0 {
        assert!(
            xl_rss < XL_PEAK_RSS_CEILING_BYTES,
            "fig2_xl peaked at {} MB resident — over the {} MB ceiling; \
             did per-member state leak back into the cohort path?",
            xl_rss >> 20,
            XL_PEAK_RSS_CEILING_BYTES >> 20
        );
    }
    println!(
        "engine_throughput/fig2_xl: {xl_population} clients, {xl_events} events in {xl_wall:.3}s = {xl_eps:.0} events/sec ({xl_ms} ms simulated)"
    );
    println!(
        "engine_throughput/fig2_xl: setup {xl_setup_secs:.3}s, peak RSS {} MB",
        xl_rss >> 20
    );

    // ---- replicated thinners: fig2 with the auction split 4 ways ----
    // R = 4 replicas exchange bid digests every 10 ms. The measured
    // events/sec includes the digest control traffic, so this row is
    // the throughput price of replication.
    let mut rep = scenarios::fig2(0.5, Mode::Auction)
        .thinners(4)
        .sync_period(SimDuration::from_millis(10));
    rep.duration = SimDuration::from_secs(sim_secs);
    let (rep_wall, rep_report) = best_of(iters, || run(&rep));
    let rep_events = rep_report.events();
    let rep_eps = rep_events as f64 / rep_wall;
    println!(
        "engine_throughput/fig2_replicated: thinners=4 \
         {rep_events} events in {rep_wall:.3}s = {rep_eps:.0} events/sec"
    );

    // ---- hot-path replay: wheel + slab vs pre-PR heap + BTreeMap ----
    let steps = if quick { 1_000_000 } else { 4_000_000 };
    let ops = fig2_shaped_schedule(1_000, steps);
    let (new_wall, (new_pops, new_sum, steady_allocs)) = best_of(iters, || replay_wheel_slab(&ops));
    let (old_wall, (old_pops, old_sum)) = best_of(iters, || replay_heap_btreemap(&ops));
    assert_eq!(
        (new_pops, new_sum),
        (old_pops, old_sum),
        "timing wheel diverged from the reference heap on the replay schedule"
    );
    // The asserted tentpole property: once warm, the engine hot path
    // (wheel push/pop/cancel + slab access) amortizes to zero allocator
    // calls per event. See the module docs for why the bound is "under
    // one per thousand events" and not literal zero.
    let steady_pops = (new_pops / 2).max(1);
    assert!(
        steady_allocs * 1_000 < steady_pops,
        "wheel+slab replay allocated {steady_allocs} times over its steady-state \
         half ({steady_pops} pops) — the hot path is supposed to be allocation-free"
    );
    let new_rate = new_pops as f64 / new_wall;
    let old_rate = old_pops as f64 / old_wall;
    let speedup = new_rate / old_rate;
    println!(
        "engine_throughput/hot_path_replay: wheel+slab {new_rate:.0} ev/s, pre-PR heap+btreemap {old_rate:.0} ev/s, speedup {speedup:.2}x, steady-state allocs {steady_allocs}"
    );

    // ---- BENCH_engine.json at the workspace root ----
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"speakup-bench-engine/4\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    json.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let mut dispatch = String::new();
        for (variant, count) in &w.dispatch {
            let _ = write!(
                dispatch,
                "{}\"{variant}\": {count}",
                if dispatch.is_empty() { "" } else { ", " }
            );
        }
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"sim_secs\": {}, \"events\": {}, \"events_per_sec\": {:.0}, \"steady_state_allocs_per_event\": {:.4}, \"dispatch\": {{{}}}}}",
            w.name, w.sim_secs, w.events, w.events_per_sec, w.steady_allocs_per_event, dispatch
        );
        json.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Schema v3: the crowd-scaling baseline. `peak_rss_bytes` is the
    // process VmHWM after the run (0 where procfs is absent);
    // `setup_secs` is the one-microsecond-run construction cost.
    let mut xl_dispatch = String::new();
    for (variant, count) in &xl_report.dispatch_counts {
        let _ = write!(
            xl_dispatch,
            "{}\"{variant}\": {count}",
            if xl_dispatch.is_empty() { "" } else { ", " }
        );
    }
    let _ = writeln!(
        json,
        "  \"fig2_xl\": {{\"population\": {xl_population}, \"sim_ms\": {xl_ms}, \"events\": {xl_events}, \"events_per_sec\": {xl_eps:.0}, \"setup_secs\": {xl_setup_secs:.3}, \"peak_rss_bytes\": {xl_rss}, \"peak_rss_ceiling_bytes\": {XL_PEAK_RSS_CEILING_BYTES}, \"dispatch\": {{{xl_dispatch}}}}},"
    );
    let ratio = |current: Option<f64>, baseline: f64| -> String {
        match current {
            Some(c) if !quick => format!("{:.2}", c / baseline),
            _ => "null".into(),
        }
    };
    let e2e = |name: &str| {
        workloads
            .iter()
            .find(|w| w.name == name)
            .map(|w| w.events_per_sec)
    };
    let _ = writeln!(
        json,
        "  \"pre_pr_heap_engine\": {{\"measured_at\": \"commit 73cde59, full profile\", \"fig2_events_per_sec\": {PRE_PR_FIG2_EVENTS_PER_SEC:.0}, \"fig7_events_per_sec\": {PRE_PR_FIG7_EVENTS_PER_SEC:.0}, \"fig2_end_to_end_speedup\": {}, \"fig7_end_to_end_speedup\": {}}},",
        ratio(e2e("fig2"), PRE_PR_FIG2_EVENTS_PER_SEC),
        ratio(e2e("fig7"), PRE_PR_FIG7_EVENTS_PER_SEC)
    );
    let _ = writeln!(
        json,
        "  \"pr4_wheel_engine\": {{\"measured_at\": \"commit a35c553, full profile\", \"fig2_events_per_sec\": {PR4_FIG2_EVENTS_PER_SEC:.0}, \"fig7_events_per_sec\": {PR4_FIG7_EVENTS_PER_SEC:.0}, \"hot_path_replay_events_per_sec\": {PR4_REPLAY_EVENTS_PER_SEC:.0}, \"fig2_end_to_end_speedup\": {}, \"fig7_end_to_end_speedup\": {}, \"replay_speedup\": {}}},",
        ratio(e2e("fig2"), PR4_FIG2_EVENTS_PER_SEC),
        ratio(e2e("fig7"), PR4_FIG7_EVENTS_PER_SEC),
        ratio(Some(new_rate), PR4_REPLAY_EVENTS_PER_SEC)
    );
    let _ = writeln!(
        json,
        "  \"pr6_engine\": {{\"measured_at\": \"commit 8e5ba0f, full profile\", \"delta\": \"this PR: flyweight cohorts, dirty-flow payment sync + lazy auction heaps (both O(1), byte-identical), 32->24-byte wheel entries, recycled cross-shard buffers\", \"fig2_events_per_sec\": {PR6_FIG2_EVENTS_PER_SEC:.0}, \"fig7_events_per_sec\": {PR6_FIG7_EVENTS_PER_SEC:.0}, \"hot_path_replay_events_per_sec\": {PR6_REPLAY_EVENTS_PER_SEC:.0}, \"fig2_end_to_end_speedup\": {}, \"fig7_end_to_end_speedup\": {}, \"replay_speedup\": {}}},",
        ratio(e2e("fig2"), PR6_FIG2_EVENTS_PER_SEC),
        ratio(e2e("fig7"), PR6_FIG7_EVENTS_PER_SEC),
        ratio(Some(new_rate), PR6_REPLAY_EVENTS_PER_SEC)
    );
    let _ = writeln!(
        json,
        "  \"pr8_engine\": {{\"measured_at\": \"commit 91c25d1, full profile\", \"delta\": \"this PR: replicated thinners (--thinners R) with epoch bid-digest sync over in-sim control packets; --thinners 1 is byte-identical, so any fig2/fig7 delta vs this block is noise or digest-path overhead\", \"fig2_events_per_sec\": {PR8_FIG2_EVENTS_PER_SEC:.0}, \"fig7_events_per_sec\": {PR8_FIG7_EVENTS_PER_SEC:.0}, \"hot_path_replay_events_per_sec\": {PR8_REPLAY_EVENTS_PER_SEC:.0}, \"fig2_xl_events_per_sec\": {PR8_XL_EVENTS_PER_SEC:.0}, \"fig2_end_to_end_speedup\": {}, \"fig7_end_to_end_speedup\": {}, \"replay_speedup\": {}, \"fig2_xl_speedup\": {}}},",
        ratio(e2e("fig2"), PR8_FIG2_EVENTS_PER_SEC),
        ratio(e2e("fig7"), PR8_FIG7_EVENTS_PER_SEC),
        ratio(Some(new_rate), PR8_REPLAY_EVENTS_PER_SEC),
        ratio(Some(xl_eps), PR8_XL_EVENTS_PER_SEC)
    );
    // Schema v4: the replicated-thinner row.
    let _ = writeln!(
        json,
        "  \"replicated_thinners\": {{\"scenario\": \"fig2 f=0.5\", \"thinners\": 4, \"sync_period_ms\": 10, \"sim_secs\": {sim_secs}, \"events\": {rep_events}, \"events_per_sec\": {rep_eps:.0}}},"
    );
    let _ = writeln!(
        json,
        "  \"hot_path_replay\": {{\"schedule_pops\": {new_pops}, \"wheel_slab_events_per_sec\": {new_rate:.0}, \"heap_btreemap_events_per_sec\": {old_rate:.0}, \"speedup\": {speedup:.2}, \"steady_state_allocs\": {steady_allocs}}}"
    );
    json.push_str("}\n");
    // The committed BENCH_engine.json is the full-profile baseline future
    // PRs diff against; `--quick` runs (CI, local smoke) are measured
    // under an incomparable profile and go to a sibling file so they can
    // never clobber or masquerade as the baseline.
    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json")
    };
    std::fs::write(path, &json).expect("write BENCH_engine json");
    println!("engine_throughput: wrote {path}");
}
