//! The simulator: world state, the event loop, and the application
//! interface.
//!
//! One application ([`App`]) runs per node. Applications interact with the
//! world exclusively through [`Ctx`]: they open flows, write messages, set
//! timers, and abort flows. The world delivers callbacks — message arrival,
//! timer expiry, flow drained, flow aborted by peer — in deterministic
//! order.
//!
//! A run is one [`World`] driven by one event loop. Parallelism lives a
//! level up: independent runs (grid points, seed replicates) go to a
//! worker pool, each with a simulator of its own.
//!
//! ## Model contracts
//!
//! Reports are a pure function of `(topology, apps, seed, faults)`. The
//! goldens and every event count rest on four contracts:
//!
//! * **Location-keyed randomness.** Every node and every link owns its
//!   own PCG-32 stream derived from `(seed, entity id)`. What one entity
//!   draws never depends on how many draws another entity made.
//! * **Canonical event ordering.** The event queue orders same-time
//!   events by `(time, lane, seq)`: a *lane* names the link, node, flow,
//!   control stream, or fault target the event belongs to, and `seq` is
//!   insertion order within the queue. Exact-time ties between entities
//!   therefore resolve by lane id, never by which callback happened to
//!   run first.
//! * **Split flows with delayed control records.** A flow has a sender
//!   half and a receiver half. Sender-side facts the receiver needs (flow
//!   open, message boundaries, aborts) travel as control records delayed
//!   by the path's propagation delay: strictly ahead of any data byte
//!   they describe (data also pays transmission time), and at the instant
//!   a real network would let the far end learn them.
//! * **Fault lanes.** Injected link flaps and node crashes are queued
//!   before the run on lane classes of their own, so a fault boundary
//!   lands at a fixed place in the canonical order.

use crate::event::{EventHandle, EventQueue};
use crate::fault::{FaultKind, FaultSchedule};
use crate::ids::Ident;
use crate::link::{DropSampler, Enqueue, Link, LinkStats};
use crate::packet::{FlowId, LinkId, NodeId, Packet, PacketKind, FLOW_NTH_BITS};
use crate::rng::Pcg32;
use crate::slab::FlowSlab;
use crate::tcp::{Flow, FlowAction, FlowConfig};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use std::any::Any;
use std::collections::VecDeque;

/// Handle to a pending application timer, usable for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle(EventHandle);

/// A per-node application.
///
/// All methods have empty defaults so implementations override only what
/// they need. `Any` is a supertrait so harnesses can downcast applications
/// back out of the simulator to read their results; `Send` keeps a
/// simulator, and every app in it, movable to another thread.
pub trait App: Any + Send {
    /// Called once when the simulation starts.
    fn start(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }
    /// A complete message (written with [`Ctx::send`]) arrived on `flow`.
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        let _ = (ctx, flow, tag);
    }
    /// A timer set with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let _ = (ctx, token);
    }
    /// Every byte written to `flow` has been acknowledged.
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        let _ = (ctx, flow);
    }
    /// The peer aborted `flow`.
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        let _ = (ctx, flow);
    }
    /// A control payload sent with [`Ctx::send_control`] arrived from
    /// `src`. Control payloads travel at path propagation delay outside
    /// any flow — the lane replicated thinners sync bid digests over.
    fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
        let _ = (ctx, src, payload);
    }
    /// The node restarted after a crash (fault injection). Every timer,
    /// flow, and watch the node held is gone; the default keeps the old
    /// in-memory state, so apps that must re-initialize override this to
    /// reset themselves and re-arm their timers.
    fn on_restart(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }
}

/// A family of applications the simulator dispatches to without virtual
/// calls.
///
/// The engine is generic over an `AppSet`: typically an enum over a
/// harness's concrete [`App`] types (see `speakup-exp`'s `AppSlot`), so
/// every per-event callback is a jump on the enum discriminant into a
/// monomorphic — and inlinable — method, instead of a vtable hop.
/// `Box<dyn App>` also implements `AppSet` and is the default type
/// parameter, so `Simulator::new` keeps its dynamic-dispatch behavior
/// for tests and downstream users that never name a set.
///
/// The five callback methods mirror [`App`] exactly; implementations
/// forward to the wrapped application. The remaining methods support
/// downcasting ([`Simulator::app`]), the boxed compatibility path
/// ([`Simulator::add_app`]), and dispatch-share diagnostics.
pub trait AppSet: Send + 'static {
    /// Forward of [`App::start`].
    fn start(&mut self, ctx: &mut Ctx);
    /// Forward of [`App::on_message`].
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64);
    /// Forward of [`App::on_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64);
    /// Forward of [`App::on_flow_drained`].
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId);
    /// Forward of [`App::on_flow_aborted`].
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId);
    /// Forward of [`App::on_control`].
    fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]);
    /// Forward of [`App::on_restart`].
    fn on_restart(&mut self, ctx: &mut Ctx);
    /// The wrapped application as `Any`, for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Mutable variant of [`AppSet::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Wrap a boxed application (the [`Simulator::add_app`] path). Enum
    /// sets recover the concrete type so even boxed installs dispatch
    /// devirtualized.
    fn from_boxed(app: Box<dyn App>) -> Self;
    /// Which variant this value is, indexing [`AppSet::variant_names`]
    /// (dispatch-share diagnostics).
    fn variant_index(&self) -> usize {
        0
    }
    /// Display names for the variant indices.
    fn variant_names() -> &'static [&'static str] {
        &["boxed"]
    }
}

impl AppSet for Box<dyn App> {
    fn start(&mut self, ctx: &mut Ctx) {
        (**self).start(ctx)
    }
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        (**self).on_message(ctx, flow, tag)
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        (**self).on_timer(ctx, token)
    }
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        (**self).on_flow_drained(ctx, flow)
    }
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        (**self).on_flow_aborted(ctx, flow)
    }
    fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
        (**self).on_control(ctx, src, payload)
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        (**self).on_restart(ctx)
    }
    fn as_any(&self) -> &dyn Any {
        &**self as &dyn Any
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut **self as &mut dyn Any
    }
    fn from_boxed(app: Box<dyn App>) -> Self {
        app
    }
}

/// Compose the canonical [`FlowId`] for the `nth` flow opened by `node`.
///
/// Flow ids are allocated per opening node (high 12 bits node, low 20
/// bits per-node counter) so that the id a flow gets depends only on its
/// opener's history, not on what other nodes did. The split supports
/// 4096 nodes and ~1M flows per node — at an aggressive client's ~40
/// payment flows per second that is over seven simulated hours before
/// exhaustion.
pub fn flow_id(node: NodeId, nth: u32) -> FlowId {
    assert!(
        node.0 < (1 << (32 - FLOW_NTH_BITS)),
        "too many nodes for flow ids ({node})"
    );
    assert!(
        nth < (1 << FLOW_NTH_BITS),
        "flow id space exhausted (node {node}, flow #{nth})"
    );
    FlowId((node.0 << FLOW_NTH_BITS) | nth)
}

// Canonical lanes: a total order over same-time events. Links sort
// before nodes before flow timers before flow control records. Control
// records get a lane class of their own because they are written on the
// *peer's* behalf: sharing a lane with the locally-armed RTO events would
// let an exact-time RTO/abort tie fall to insertion order, i.e. to which
// endpoint's callback happened to run first.
fn lane_link(l: LinkId) -> u64 {
    u64::from(l.0)
}
fn lane_node(n: NodeId) -> u64 {
    (1 << 32) | u64::from(n.0)
}
fn lane_flow(f: FlowId) -> u64 {
    (2 << 32) | u64::from(f.0)
}
fn lane_ctl(f: FlowId) -> u64 {
    (3 << 32) | u64::from(f.0)
}
// Application control payloads get their own lane class, keyed by the
// *source* node: replicated thinners all publish digests at the same
// epoch instant, so one receiver sees same-time deliveries from many
// senders — the lane id orders that cross-sender tie by source, whatever
// order the sends were made in.
fn lane_app_ctl(src: NodeId) -> u64 {
    (4 << 32) | u64::from(src.0)
}
// Fault events get two lane classes of their own (injected pre-run).
// Links and nodes must not share a class: a link and a node with equal
// indices are different targets, and sharing a lane would order their
// same-time boundaries by injection order instead of by kind.
fn lane_fault_link(l: LinkId) -> u64 {
    (5 << 32) | u64::from(l.0)
}
fn lane_fault_node(n: NodeId) -> u64 {
    (6 << 32) | u64::from(n.0)
}

/// Lazily re-armed retransmission timer for one flow (see the
/// `rto_timers` field). Invariant while armed: some wheel sentinel is
/// outstanding at a time `<= deadline`, so the deadline is never missed.
#[derive(Clone, Copy)]
struct RtoTimer {
    /// The armed expiry; `None` when the timer is logically cancelled.
    deadline: Option<SimTime>,
    /// Earliest outstanding wheel sentinel, if any. Stale sentinels are
    /// harmless — popping one re-checks `deadline` — this just avoids
    /// pushing a sentinel per re-arm.
    scheduled: Option<SimTime>,
}

// RNG stream namespaces: every node and link derives its own stream from
// the run seed and its own id.
const STREAM_NODE: u64 = 1 << 40;
const STREAM_LINK: u64 = 2 << 40;

enum Event {
    TxDone(LinkId),
    Arrive {
        node: NodeId,
        packet: Packet,
    },
    AppTimer {
        node: NodeId,
        token: u64,
        /// The node incarnation that armed the timer: a restart bumps the
        /// node's incarnation, so timers armed before a crash silently
        /// die instead of firing into the reborn app.
        incarnation: u32,
    },
    Rto(FlowId),
    /// Control record: `src` opened `id` toward `dst`; create the
    /// receiver half. The config rides boxed: opens are rare, and an
    /// inline [`FlowConfig`] would otherwise dominate [`Event`]'s size —
    /// which the queue copies on every place, cascade, and pop.
    FlowOpen {
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        cfg: Box<FlowConfig>,
    },
    /// Control record: the sender wrote a message ending at stream byte
    /// `end`, tagged `tag`.
    FlowBoundary {
        id: FlowId,
        end: u64,
        tag: u64,
    },
    /// Control record: the peer aborted; silence the local half and
    /// notify its application. `at_receiver` selects which half.
    FlowAbort {
        id: FlowId,
        at_receiver: bool,
    },
    /// An application control payload ([`Ctx::send_control`]) reaching
    /// `node` from `src`. Boxed: control sends are rare (epoch cadence)
    /// and an inline payload would bloat every queued [`Event`].
    AppControl {
        node: NodeId,
        src: NodeId,
        payload: Box<[u64]>,
    },
    /// Injected link fault boundary: the link goes down (`up == false`,
    /// flushing its queue and dooming any packet in flight) or recovers.
    LinkFault {
        link: LinkId,
        up: bool,
    },
    /// Injected node fault boundary: the node crashes (`up == false`,
    /// aborting its flows and killing its timers and watches) or
    /// restarts (bumping its incarnation and firing [`App::on_restart`]).
    NodeFault {
        node: NodeId,
        up: bool,
    },
}

enum Notify {
    Message {
        node: NodeId,
        flow: FlowId,
        tag: u64,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Drained {
        node: NodeId,
        flow: FlowId,
    },
    Aborted {
        node: NodeId,
        flow: FlowId,
    },
    Control {
        node: NodeId,
        src: NodeId,
        payload: Box<[u64]>,
    },
    Restarted {
        node: NodeId,
    },
}

/// The simulated world: node state, links, flow halves, the event
/// queue, and per-entity RNG streams.
pub struct World {
    now: SimTime,
    queue: EventQueue<Event>,
    topology: Topology,
    /// Every link, indexed by [`LinkId`].
    links: Vec<Link>,
    /// Fault-injection samplers, populated only for links with a
    /// nonzero drop probability: loss-free links never touch an RNG on
    /// the packet path. Each sampler consumes its link's dedicated PCG
    /// stream exactly as per-packet Bernoulli rolls would, so the drop
    /// sequence — and every golden — is unchanged.
    link_faults: Vec<Option<DropSampler>>,
    node_rngs: Vec<Pcg32>,
    /// Per-node crash nesting depth (fault injection): a node is down
    /// while its depth is positive. A depth rather than a flag so two
    /// overlapping scheduled outages compose sanely — the node is up
    /// again only when every outage has ended.
    crash_depth: Vec<u32>,
    /// Per-node restart counter: bumped when a node comes back up, so
    /// timers armed before the crash (stamped with the old incarnation)
    /// die silently instead of firing into the reborn app.
    incarnations: Vec<u32>,
    /// Flows opened per node, for canonical id allocation. Deliberately
    /// preserved across crashes: flow ids are never reused, so a reborn
    /// node's flows cannot alias a pre-crash peer half.
    flow_counts: Vec<u32>,
    /// Sender halves of flows, in dense slabs indexed by the packed
    /// [`FlowId`] (O(1) per-packet lookup).
    flows_tx: FlowSlab<Flow>,
    /// Receiver halves of flows, created when the open record arrives.
    flows_rx: FlowSlab<Flow>,
    /// Lazy per-flow retransmission timers. Re-arming on every advancing
    /// ACK is the transport's behaviour, but cancel + re-push against the
    /// wheel per ACK litters high wheel levels with dead entries that all
    /// cascade and reap later. Instead the armed deadline lives here and
    /// the wheel holds at most a couple of sentinel entries per flow: a
    /// sentinel that pops before the real deadline re-files itself at the
    /// deadline, so `on_rto` still runs at exactly the armed time.
    rto_timers: FlowSlab<RtoTimer>,
    /// Delivery-progress tracking for watched receiver flows (see
    /// [`Ctx::watch_flow`]): the watcher's node plus the flow's dirty
    /// bit, set when its in-order delivered byte count advances and
    /// cleared by the watcher's [`Ctx::drain_progress`]. Keying the
    /// entry by watcher keeps drains node-local: one watcher's drain
    /// never consumes another watcher's progress.
    watch_rx: FlowSlab<(NodeId, bool)>,
    /// Watched flows that delivered new bytes since the last drain
    /// (each queued at most once — the dirty bit dedups).
    progress_rx: Vec<FlowId>,
    notifies: VecDeque<Notify>,
    actions_scratch: Vec<FlowAction>,
    /// Events the loop has handled.
    events_processed: u64,
    /// Total packets dropped (overflow + fault).
    pub total_drops: u64,
}

impl World {
    fn new(topology: Topology, seed: u64) -> Self {
        let n = topology.node_slots();
        let links = topology
            .edges()
            .iter()
            .map(|e| Link::new(e.cfg, e.to))
            .collect();
        let link_faults = topology
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (e.cfg.drop_prob > 0.0).then(|| {
                    DropSampler::new(
                        Pcg32::new(
                            seed,
                            STREAM_LINK | u64::try_from(i).expect("invariant: link index fits u64"),
                        ),
                        e.cfg.drop_prob,
                    )
                })
            })
            .collect();
        let node_rngs = (0..n)
            .map(|i| {
                Pcg32::new(
                    seed,
                    STREAM_NODE | u64::try_from(i).expect("invariant: node index fits u64"),
                )
            })
            .collect();
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            topology,
            links,
            link_faults,
            node_rngs,
            crash_depth: vec![0; n],
            incarnations: vec![0; n],
            flow_counts: vec![0; n],
            flows_tx: FlowSlab::new(n),
            flows_rx: FlowSlab::new(n),
            rto_timers: FlowSlab::new(n),
            watch_rx: FlowSlab::new(n),
            progress_rx: Vec::new(),
            notifies: VecDeque::new(),
            actions_scratch: Vec::new(),
            events_processed: 0,
            total_drops: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The sender half of a flow: window state, acked/written byte
    /// counts, retransmission stats.
    pub fn flow(&self, id: FlowId) -> &Flow {
        self.flows_tx
            .get(id)
            .unwrap_or_else(|| panic!("no sender half of {id}"))
    }

    /// The receiver half of a flow (once its open record has arrived):
    /// delivered byte counts and reassembly state.
    pub fn flow_rx(&self, id: FlowId) -> &Flow {
        self.flows_rx
            .get(id)
            .unwrap_or_else(|| panic!("no receiver half of {id}"))
    }

    /// Number of flows opened so far.
    pub fn flow_count(&self) -> usize {
        self.flows_tx.len()
    }

    /// Statistics for a link.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.links[id.index()].stats
    }

    /// The topology the world was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The view a node's application sees of the flow: its own role's
    /// half (sender if the node is the source, receiver if it is the
    /// destination).
    fn flow_at(&self, node: NodeId, id: FlowId) -> &Flow {
        if let Some(f) = self.flows_tx.get(id) {
            if f.src == node {
                return f;
            }
        }
        if let Some(f) = self.flows_rx.get(id) {
            if f.dst == node {
                return f;
            }
        }
        panic!("flow {id} is not visible from {node}")
    }

    /// The latency of flow control records: the path's propagation delay.
    /// It is strictly less than any data byte's arrival (which also pays
    /// transmission time), so control records always precede the data
    /// they describe.
    fn ctl_delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.topology
            .path_delay(from, to)
            .unwrap_or_else(|| panic!("no path {from} -> {to}"))
    }

    fn open_flow(&mut self, src: NodeId, dst: NodeId, cfg: FlowConfig) -> FlowId {
        assert!(
            self.topology.reachable(src, dst) && self.topology.reachable(dst, src),
            "flow endpoints must be mutually reachable ({src} <-> {dst})"
        );
        assert_ne!(src, dst, "flows must connect distinct nodes");
        let nth = self.flow_counts[src.index()];
        self.flow_counts[src.index()] = nth + 1;
        let id = flow_id(src, nth);
        self.flows_tx.insert(id, Flow::new(id, src, dst, cfg));
        let at = self.now + self.ctl_delay(src, dst);
        self.queue.push_lane(
            at,
            lane_ctl(id),
            Event::FlowOpen {
                id,
                src,
                dst,
                cfg: Box::new(cfg),
            },
        );
        id
    }

    fn route_packet(&mut self, at: NodeId, packet: Packet) {
        let lid = self
            .topology
            .next_hop(at, packet.dst)
            .unwrap_or_else(|| panic!("no route {at} -> {}", packet.dst));
        // A downed link never consults its loss sampler: the batched
        // Bernoulli stream must consume exactly one roll per *offered*
        // packet regardless of the fault schedule, so loss-free goldens
        // stay byte-identical when flaps are layered on.
        let up = self.links[lid.index()].is_up();
        // Loss-free links (the overwhelmingly common case) skip loss
        // sampling entirely; lossy links consult their batched sampler.
        let dropped = if up {
            match self.link_faults[lid.index()].as_mut() {
                Some(sampler) => sampler.offer(),
                None => false,
            }
        } else {
            false
        };
        let link = &mut self.links[lid.index()];
        // The roll is pre-decided: 0.0 forces the drop branch, 1.0 can
        // never drop (drop_prob < 1 is enforced at construction).
        match link.enqueue(packet, if dropped { 0.0 } else { 1.0 }) {
            Enqueue::StartTx(tx) => {
                self.queue
                    .push_lane(self.now + tx, lane_link(lid), Event::TxDone(lid));
            }
            Enqueue::Queued => {}
            Enqueue::Dropped => {
                self.total_drops += 1;
            }
        }
    }

    /// The flow fields shared by both halves, read from whichever half
    /// exists (the receiver half appears one path delay after the open).
    fn flow_fields(&self, fid: FlowId) -> (NodeId, NodeId, u32, u32) {
        let f = self
            .flows_tx
            .get(fid)
            .or_else(|| self.flows_rx.get(fid))
            .unwrap_or_else(|| panic!("no half of {fid}"));
        (f.src, f.dst, f.cfg.header_bytes, f.cfg.ack_bytes)
    }

    fn apply_flow_actions(&mut self, fid: FlowId) {
        if self.actions_scratch.is_empty() {
            return;
        }
        let actions = std::mem::take(&mut self.actions_scratch);
        // One lookup serves the whole batch: both halves agree on these
        // fields and no action moves or retires a flow mid-batch.
        let (src, dst, header, ack_bytes) = self.flow_fields(fid);
        for action in &actions {
            match *action {
                FlowAction::SendData { offset, len } => {
                    let p = Packet {
                        flow: fid,
                        src,
                        dst,
                        size: len + header,
                        kind: PacketKind::Data { offset, len },
                    };
                    self.route_packet(src, p);
                }
                FlowAction::SendAck { cum } => {
                    let p = Packet {
                        flow: fid,
                        src: dst,
                        dst: src,
                        size: ack_bytes,
                        kind: PacketKind::Ack { cum },
                    };
                    self.route_packet(dst, p);
                }
                FlowAction::ArmRto(after) => {
                    let deadline = self.now + after;
                    let push = match self.rto_timers.get_mut(fid) {
                        Some(t) => {
                            t.deadline = Some(deadline);
                            // A sentinel at or before the deadline will
                            // re-file itself when it pops; only a later
                            // (or missing) one needs replacing.
                            if t.scheduled.is_some_and(|s| s <= deadline) {
                                false
                            } else {
                                t.scheduled = Some(deadline);
                                true
                            }
                        }
                        None => {
                            self.rto_timers.insert(
                                fid,
                                RtoTimer {
                                    deadline: Some(deadline),
                                    scheduled: Some(deadline),
                                },
                            );
                            true
                        }
                    };
                    if push {
                        self.queue
                            .push_lane(deadline, lane_flow(fid), Event::Rto(fid));
                    }
                }
                FlowAction::CancelRto => {
                    if let Some(t) = self.rto_timers.get_mut(fid) {
                        t.deadline = None;
                    }
                }
                FlowAction::Deliver { tag } => {
                    self.notifies.push_back(Notify::Message {
                        node: dst,
                        flow: fid,
                        tag,
                    });
                }
                FlowAction::Drained => {
                    self.notifies.push_back(Notify::Drained {
                        node: src,
                        flow: fid,
                    });
                }
            }
        }
        // Give the (now empty) buffer back for reuse.
        self.actions_scratch = actions;
        self.actions_scratch.clear();
    }

    fn abort_flow_from(&mut self, node: NodeId, id: FlowId) {
        if let Some(f) = self.flows_tx.get_mut(id) {
            if f.src == node {
                if f.is_aborted() {
                    return;
                }
                let dst = f.dst;
                let mut actions = std::mem::take(&mut self.actions_scratch);
                f.abort(&mut actions);
                self.actions_scratch = actions;
                self.apply_flow_actions(id);
                let at = self.now + self.ctl_delay(node, dst);
                self.queue.push_lane(
                    at,
                    lane_ctl(id),
                    Event::FlowAbort {
                        id,
                        at_receiver: true,
                    },
                );
                return;
            }
        }
        if let Some(f) = self.flows_rx.get_mut(id) {
            if f.dst == node {
                if f.is_aborted() {
                    return;
                }
                let src = f.src;
                let mut actions = std::mem::take(&mut self.actions_scratch);
                f.abort(&mut actions);
                self.actions_scratch = actions;
                self.apply_flow_actions(id);
                let at = self.now + self.ctl_delay(node, src);
                self.queue.push_lane(
                    at,
                    lane_ctl(id),
                    Event::FlowAbort {
                        id,
                        at_receiver: false,
                    },
                );
                return;
            }
        }
        panic!("abort from a non-endpoint");
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::TxDone(lid) => {
                let link = &mut self.links[lid.index()];
                let delay = link.cfg.delay;
                let dst = link.dst;
                let (packet, next) = link.tx_done();
                if let Some(tx) = next {
                    self.queue
                        .push_lane(self.now + tx, lane_link(lid), Event::TxDone(lid));
                }
                // A flap mid-transmission dooms the packet on the wire:
                // it finishes serializing (the link stays busy) but never
                // arrives. The queue behind it was flushed at flap time,
                // though the link may have re-filled if it already came
                // back up — hence the unconditional next-TxDone above.
                if self.links[lid.index()].take_doomed() {
                    self.total_drops += 1;
                } else {
                    self.queue.push_lane(
                        self.now + delay,
                        lane_link(lid),
                        Event::Arrive { node: dst, packet },
                    );
                }
            }
            Event::Arrive { node, packet } => {
                if self.crash_depth[node.index()] > 0 {
                    // A crashed node neither terminates nor forwards.
                    self.total_drops += 1;
                } else if node == packet.dst {
                    self.receive(packet);
                } else {
                    self.route_packet(node, packet);
                }
            }
            Event::AppTimer {
                node,
                token,
                incarnation,
            } => {
                // Timers die with their incarnation: armed pre-crash →
                // stale stamp; armed pre-crash but popping mid-outage →
                // crash depth. Either way, silence.
                if incarnation == self.incarnations[node.index()]
                    && self.crash_depth[node.index()] == 0
                {
                    self.notifies.push_back(Notify::Timer { node, token });
                }
            }
            Event::Rto(fid) => {
                // Sentinel pop: fire only if it reached the armed
                // deadline; re-file it there otherwise (lazy re-arm).
                let Some(t) = self.rto_timers.get_mut(fid) else {
                    return;
                };
                t.scheduled = None;
                match t.deadline {
                    Some(d) if d <= self.now => {
                        t.deadline = None;
                        let now = self.now;
                        let mut actions = std::mem::take(&mut self.actions_scratch);
                        self.flows_tx
                            .get_mut(fid)
                            .expect("RTO for a foreign flow")
                            .on_rto(now, &mut actions);
                        self.actions_scratch = actions;
                        self.apply_flow_actions(fid);
                    }
                    Some(d) => {
                        t.scheduled = Some(d);
                        self.queue.push_lane(d, lane_flow(fid), Event::Rto(fid));
                    }
                    None => {}
                }
            }
            Event::FlowOpen { id, src, dst, cfg } => {
                self.flows_rx.insert(id, Flow::new(id, src, dst, *cfg));
            }
            Event::FlowBoundary { id, end, tag } => {
                self.flows_rx
                    .get_mut(id)
                    .expect("boundary for an unopened flow")
                    .note_boundary(end, tag);
            }
            Event::FlowAbort { id, at_receiver } => {
                let f = if at_receiver {
                    self.flows_rx.get_mut(id)
                } else {
                    self.flows_tx.get_mut(id)
                }
                .expect("abort for a foreign flow");
                if f.is_aborted() {
                    // Both ends aborted concurrently; nothing to report.
                    return;
                }
                let node = if at_receiver { f.dst } else { f.src };
                let mut actions = std::mem::take(&mut self.actions_scratch);
                f.abort(&mut actions);
                self.actions_scratch = actions;
                self.apply_flow_actions(id);
                self.notifies.push_back(Notify::Aborted { node, flow: id });
            }
            Event::AppControl { node, src, payload } => {
                if self.crash_depth[node.index()] == 0 {
                    self.notifies
                        .push_back(Notify::Control { node, src, payload });
                }
            }
            Event::LinkFault { link, up } => {
                let l = &mut self.links[link.index()];
                if up {
                    l.bring_up();
                } else {
                    self.total_drops += l.take_down();
                }
            }
            Event::NodeFault { node, up } => {
                let i = node.index();
                if up {
                    assert!(self.crash_depth[i] > 0, "restart of a node that is up");
                    self.crash_depth[i] -= 1;
                    if self.crash_depth[i] == 0 {
                        self.incarnations[i] += 1;
                        self.notifies.push_back(Notify::Restarted { node });
                    }
                } else {
                    self.crash_depth[i] += 1;
                    if self.crash_depth[i] == 1 {
                        self.crash_node(node);
                    }
                }
            }
        }
    }

    /// Crash-time sweep: abort every flow anchored on `node` (peers learn
    /// via the usual delayed abort records) and purge its flow watches so
    /// nothing credits progress to a dead watcher.
    fn crash_node(&mut self, node: NodeId) {
        // Sender halves live in the crashing node's own slab lane;
        // receiver halves require a scan (any node may have opened
        // toward us). Collect first — aborting mutates the slabs' flows.
        // The two sets cannot overlap: tx ids were opened by `node`
        // (its id in the high bits), rx ids by some peer.
        let mut dead: Vec<FlowId> = self
            .flows_tx
            .node_iter(node)
            .filter_map(|(id, f)| (!f.is_aborted()).then_some(id))
            .collect();
        for (id, f) in self.flows_rx.iter() {
            if f.dst == node && !f.is_aborted() {
                dead.push(id);
            }
        }
        for id in dead {
            self.abort_flow_from(node, id);
        }
        // Watches held by the crashed node die with it; drop their queued
        // progress entries too, so a reborn watcher starts clean.
        let stale: Vec<FlowId> = self
            .watch_rx
            .iter()
            .filter_map(|(id, (watcher, _))| (*watcher == node).then_some(id))
            .collect();
        for id in stale {
            self.watch_rx.take(id);
        }
        let watch_rx = &self.watch_rx;
        self.progress_rx.retain(|&fid| watch_rx.get(fid).is_some());
    }

    fn receive(&mut self, packet: Packet) {
        let fid = packet.flow;
        let now = self.now;
        let mut actions = std::mem::take(&mut self.actions_scratch);
        match packet.kind {
            PacketKind::Data { offset, len } => {
                let f = self
                    .flows_rx
                    .get_mut(fid)
                    .expect("data for an unopened flow");
                let before = f.delivered_bytes();
                f.on_data(now, offset, len, &mut actions);
                if f.delivered_bytes() > before {
                    if let Some((_, dirty)) = self.watch_rx.get_mut(fid) {
                        if !*dirty {
                            *dirty = true;
                            self.progress_rx.push(fid);
                        }
                    }
                }
            }
            PacketKind::Ack { cum } => {
                self.flows_tx
                    .get_mut(fid)
                    .expect("ack for a foreign flow")
                    .on_ack(now, cum, &mut actions);
            }
        }
        self.actions_scratch = actions;
        self.apply_flow_actions(fid);
    }
}

/// The world as seen by one application during a callback.
pub struct Ctx<'a> {
    world: &'a mut World,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node this application runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's deterministic RNG stream (derived from `(seed, node)`,
    /// so it is independent of other nodes' draws).
    pub fn rng(&mut self) -> &mut Pcg32 {
        &mut self.world.node_rngs[self.node.index()]
    }

    /// Open a flow from this node to `dst` with the given transport config.
    pub fn open_flow(&mut self, dst: NodeId, cfg: FlowConfig) -> FlowId {
        self.world.open_flow(self.node, dst, cfg)
    }

    /// Open a flow with default transport parameters.
    pub fn open_default_flow(&mut self, dst: NodeId) -> FlowId {
        self.open_flow(dst, FlowConfig::default())
    }

    /// Write a message of `bytes` bytes tagged `tag` onto `flow`. Must be
    /// called from the flow's source node.
    pub fn send(&mut self, flow: FlowId, bytes: u64, tag: u64) {
        let now = self.world.now;
        let mut actions = std::mem::take(&mut self.world.actions_scratch);
        let f = self
            .world
            .flows_tx
            .get_mut(flow)
            .unwrap_or_else(|| panic!("send on unknown flow {flow}"));
        assert_eq!(f.src, self.node, "send from the wrong endpoint");
        let dst = f.dst;
        let before = f.written_bytes();
        f.write(now, bytes, tag, &mut actions);
        let end = f.written_bytes();
        self.world.actions_scratch = actions;
        if end > before {
            // Replicate the message boundary to the receiver half, one
            // propagation delay ahead of the data.
            let at = now + self.world.ctl_delay(self.node, dst);
            self.world.queue.push_lane(
                at,
                lane_ctl(flow),
                Event::FlowBoundary { id: flow, end, tag },
            );
        }
        self.world.apply_flow_actions(flow);
    }

    /// Abort `flow` from either endpoint. The peer gets an
    /// [`App::on_flow_aborted`] callback one propagation delay later;
    /// in-flight packets are ignored.
    pub fn abort_flow(&mut self, flow: FlowId) {
        self.world.abort_flow_from(self.node, flow);
    }

    /// Arm a timer that fires [`App::on_timer`] with `token` after `after`.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerHandle {
        let h = self.world.queue.push_lane_handle(
            self.world.now + after,
            lane_node(self.node),
            Event::AppTimer {
                node: self.node,
                token,
                incarnation: self.world.incarnations[self.node.index()],
            },
        );
        TimerHandle(h)
    }

    /// Cancel a pending timer. No-op if it already fired.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.world.queue.cancel(handle.0);
    }

    /// Read access to this node's view of a flow: the sender half when
    /// this node is the source, the receiver half when it is the
    /// destination.
    pub fn flow(&self, id: FlowId) -> &Flow {
        self.world.flow_at(self.node, id)
    }

    /// Watch the receiver half of `id` (which must terminate at this
    /// node) for delivery progress: whenever its in-order delivered
    /// byte count advances, the flow is queued once for the next
    /// [`Ctx::drain_progress`]. This lets an app that terminates many
    /// inbound channels credit exactly the flows that moved instead of
    /// polling every open channel — the poll made the thinner's
    /// admission path O(population) at crowd scale. Watches are
    /// node-keyed: each watcher's drain sees exactly its own flows, so
    /// two watchers (e.g. two thinner replicas) never steal each other's
    /// progress.
    pub fn watch_flow(&mut self, id: FlowId) {
        debug_assert!(
            self.world
                .flows_rx
                .get(id)
                .is_none_or(|f| f.dst == self.node),
            "watching a flow that terminates elsewhere"
        );
        self.world.watch_rx.insert(id, (self.node, false));
    }

    /// Stop watching `id`. A still-queued dirty entry is skipped at
    /// drain time; no-op if the flow was never watched.
    pub fn unwatch_flow(&mut self, id: FlowId) {
        self.world.watch_rx.take(id);
    }

    /// Move every flow watched *by this node* that delivered new bytes
    /// since the last drain into `out`, clearing their dirty marks.
    /// Order follows the first post-drain delivery of each flow.
    /// Entries watched by a co-located peer stay queued (in order) for
    /// that peer's own drain; entries no longer watched by anyone are
    /// discarded.
    pub fn drain_progress(&mut self, out: &mut Vec<FlowId>) {
        let node = self.node;
        let World {
            progress_rx,
            watch_rx,
            ..
        } = &mut *self.world;
        progress_rx.retain(|&fid| match watch_rx.get_mut(fid) {
            Some((watcher, dirty)) if *watcher == node => {
                if *dirty {
                    *dirty = false;
                    out.push(fid);
                }
                false
            }
            Some(_) => true,
            None => false,
        });
    }

    /// Propagation delay of the route to `dst` (for informed apps/tests).
    pub fn path_delay(&self, dst: NodeId) -> Option<SimDuration> {
        self.world.topology.path_delay(self.node, dst)
    }

    /// Send an out-of-band control payload to the application on `dst`,
    /// delivered via [`App::on_control`] one routed path propagation
    /// delay from now. Control payloads ride the same delayed-record
    /// machinery as flow control, on a lane keyed by the sender, so
    /// same-instant arrivals from several senders order by sender id —
    /// this is the lane replicated thinners exchange bid digests over.
    /// Panics if `dst` is unreachable or is this node.
    pub fn send_control(&mut self, dst: NodeId, payload: Box<[u64]>) {
        assert_ne!(dst, self.node, "control to self");
        let at = self.world.now + self.world.ctl_delay(self.node, dst);
        let src = self.node;
        self.world.queue.push_lane(
            at,
            lane_app_ctl(src),
            Event::AppControl {
                node: dst,
                src,
                payload,
            },
        );
    }
}

/// The simulator: one world, one event loop, and the applications on
/// its nodes.
///
/// The type parameter selects the application dispatch strategy: the
/// default `Box<dyn App>` dispatches virtually (the [`Simulator::new`]
/// path), while an enum [`AppSet`] (installed via
/// [`Simulator::with_slots`] + [`Simulator::add_slot`]) dispatches
/// monomorphically.
pub struct Simulator<S: AppSet = Box<dyn App>> {
    world: World,
    apps: Vec<Option<S>>,
    started: bool,
    /// Callbacks delivered per app variant (dispatch-share diagnostics;
    /// indices parallel [`AppSet::variant_names`]).
    dispatch_counts: Vec<u64>,
}

impl Simulator {
    /// Create a simulator over `topology`, seeded for determinism.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Self::with_slots(topology, seed)
    }
}

impl<S: AppSet> Simulator<S> {
    /// [`Simulator::new`] for an explicit [`AppSet`]: the entry point
    /// harnesses use to opt into devirtualized dispatch.
    pub fn with_slots(topology: Topology, seed: u64) -> Self {
        let n = topology.node_slots();
        let mut apps = Vec::with_capacity(n);
        apps.resize_with(n, || None);
        Simulator {
            world: World::new(topology, seed),
            apps,
            started: false,
            dispatch_counts: vec![0; S::variant_names().len()],
        }
    }

    /// Inject a fault schedule: every entry becomes a down/up event pair
    /// on a dedicated fault lane, so faults land in the canonical
    /// `(time, lane, seq)` order. Call before running past any entry's
    /// onset (injection into the past is a schedule bug).
    pub fn inject_faults(&mut self, schedule: &FaultSchedule) {
        let world = &mut self.world;
        for e in schedule.entries() {
            assert!(
                e.at >= world.now,
                "fault at {:?} injected after the clock reached {:?}",
                e.at,
                world.now
            );
            let (lane, down, up) = match e.kind {
                FaultKind::LinkDown(link) => (
                    lane_fault_link(link),
                    Event::LinkFault { link, up: false },
                    Event::LinkFault { link, up: true },
                ),
                FaultKind::NodeCrash(node) => (
                    lane_fault_node(node),
                    Event::NodeFault { node, up: false },
                    Event::NodeFault { node, up: true },
                ),
            };
            world.queue.push_lane(e.at, lane, down);
            world.queue.push_lane(e.up_at(), lane, up);
        }
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed
    }

    /// Total packets dropped anywhere (overflow + fault).
    pub fn total_drops(&self) -> u64 {
        self.world.total_drops
    }

    /// Install an application on `node`. Replaces any previous one.
    ///
    /// Compatibility path: the box is handed to [`AppSet::from_boxed`],
    /// which for enum sets recovers the concrete type (so dispatch stays
    /// devirtualized) and for the default `Box<dyn App>` set is free.
    pub fn add_app(&mut self, node: NodeId, app: Box<dyn App>) {
        self.add_slot(node, S::from_boxed(app));
    }

    /// Install an application on `node` as an [`AppSet`] value directly
    /// (no box, no recovery). Replaces any previous one.
    pub fn add_slot(&mut self, node: NodeId, app: S) {
        self.apps[node.index()] = Some(app);
    }

    /// Callbacks delivered per app variant, labeled with
    /// [`AppSet::variant_names`] (dispatch-share diagnostics;
    /// `[("boxed", n)]` for the default set).
    pub fn dispatch_counts(&self) -> Vec<(&'static str, u64)> {
        S::variant_names()
            .iter()
            .copied()
            .zip(self.dispatch_counts.iter().copied())
            .collect()
    }

    /// Read access to the world (metrics extraction, tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Downcast the application on `node` to a concrete type.
    pub fn app<T: App>(&self, node: NodeId) -> Option<&T> {
        self.apps[node.index()]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutable downcast of the application on `node`.
    pub fn app_mut<T: App>(&mut self, node: NodeId) -> Option<&mut T> {
        self.apps[node.index()]
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    fn with_app<R>(&mut self, node: NodeId, f: impl FnOnce(&mut S, &mut Ctx) -> R) -> R {
        // Borrowing the slot in place is safe against reentrancy because
        // `Ctx` can only reach the world, never another app slot — and it
        // avoids moving the (large, inline) app value out and back per
        // callback.
        let app = self.apps[node.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no app on {node}"));
        self.dispatch_counts[app.variant_index()] += 1;
        let mut ctx = Ctx {
            world: &mut self.world,
            node,
        };
        f(app, &mut ctx)
    }

    fn dispatch_notifies(&mut self) {
        while let Some(n) = self.world.notifies.pop_front() {
            // Callbacks never reach a crashed app: the event arms guard
            // their own enqueues, but a crash sweep can queue callbacks
            // (e.g. abort echoes) addressed to the node that just died.
            let target = match n {
                Notify::Message { node, .. }
                | Notify::Timer { node, .. }
                | Notify::Drained { node, .. }
                | Notify::Aborted { node, .. }
                | Notify::Control { node, .. }
                | Notify::Restarted { node } => node,
            };
            if self.world.crash_depth[target.index()] > 0 {
                continue;
            }
            match n {
                Notify::Message { node, flow, tag } => {
                    self.with_app(node, |a, ctx| a.on_message(ctx, flow, tag));
                }
                Notify::Timer { node, token } => {
                    self.with_app(node, |a, ctx| a.on_timer(ctx, token));
                }
                Notify::Drained { node, flow } => {
                    self.with_app(node, |a, ctx| a.on_flow_drained(ctx, flow));
                }
                Notify::Aborted { node, flow } => {
                    self.with_app(node, |a, ctx| a.on_flow_aborted(ctx, flow));
                }
                Notify::Control { node, src, payload } => {
                    self.with_app(node, |a, ctx| a.on_control(ctx, src, &payload));
                }
                Notify::Restarted { node } => {
                    // Nodes without an app (pure routers) restart silently.
                    if self.apps[node.index()].is_some() {
                        self.with_app(node, |a, ctx| a.on_restart(ctx));
                    }
                }
            }
        }
    }

    fn start_apps(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.apps.len() {
            if self.apps[i].is_some() {
                self.with_app(NodeId::from_index(i), |a, ctx| a.start(ctx));
                self.dispatch_notifies();
            }
        }
    }

    /// Run the simulation until `until` (inclusive of events at `until`).
    pub fn run_until(&mut self, until: SimTime) {
        self.start_apps();
        // `t <= until` is `t < until + 1ns`; the add saturates, so
        // `until = MAX` runs the queue dry (an event at exactly
        // `u64::MAX` ns is unreachable either way).
        let limit = until + SimDuration::from_nanos(1);
        while let Some((t, ev)) = self.world.queue.pop_before(limit) {
            debug_assert!(t >= self.world.now, "time went backwards");
            self.world.now = t;
            self.world.events_processed += 1;
            self.world.handle_event(ev);
            self.dispatch_notifies();
        }
        if self.world.now < until {
            self.world.now = until;
        }
    }

    /// Run for a span of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) {
        let until = self.world.now + span;
        self.run_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::topology::TopologyBuilder;

    /// Sends one message at start; records drain time.
    struct Sender {
        dst: NodeId,
        bytes: u64,
        flow: Option<FlowId>,
        drained_at: Option<SimTime>,
    }

    impl App for Sender {
        fn start(&mut self, ctx: &mut Ctx) {
            let f = ctx.open_default_flow(self.dst);
            ctx.send(f, self.bytes, 1);
            self.flow = Some(f);
        }
        fn on_flow_drained(&mut self, ctx: &mut Ctx, _flow: FlowId) {
            self.drained_at = Some(ctx.now());
        }
    }

    /// Records message arrivals.
    #[derive(Default)]
    struct Receiver {
        got: Vec<(SimTime, FlowId, u64)>,
    }

    impl App for Receiver {
        fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
            self.got.push((ctx.now(), flow, tag));
        }
    }

    fn two_nodes(rate_bps: u64, delay_ms: u64) -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        b.duplex(
            a,
            z,
            LinkConfig::new(rate_bps, SimDuration::from_millis(delay_ms)),
        );
        (b.build(), a, z)
    }

    #[test]
    fn small_message_delivered_quickly() {
        let (t, a, z) = two_nodes(10_000_000, 5);
        let mut sim = Simulator::new(t, 1);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 500,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(2));
        let rx = sim
            .app::<Receiver>(z)
            .expect("invariant: Receiver installed on z");
        assert_eq!(rx.got.len(), 1);
        assert_eq!(rx.got[0].2, 1);
        // One-way: tx (540B at 10Mbps = 0.432ms) + 5ms prop.
        let arrival = rx.got[0].0.as_secs_f64();
        assert!(arrival > 0.005 && arrival < 0.010, "arrival {arrival}");
        let tx = sim
            .app::<Sender>(a)
            .expect("invariant: Sender installed on a");
        assert!(tx.drained_at.is_some(), "sender saw the drain");
    }

    #[test]
    fn bulk_transfer_throughput_approaches_link_rate() {
        // 2 Mbit/s, 10 ms one-way. Send 2 MB; ideal time ~8 s + slow start.
        let (t, a, z) = two_nodes(2_000_000, 10);
        let mut sim = Simulator::new(t, 2);
        let bytes = 2_000_000u64;
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(60));
        let tx = sim
            .app::<Sender>(a)
            .expect("invariant: Sender installed on a");
        let done = tx.drained_at.expect("transfer completed").as_secs_f64();
        // Payload goodput limit: 2e6*8 bits / (2e6 bps * 1460/1500 eff) ≈ 8.2 s.
        assert!(done > 8.0, "faster than the link allows: {done}");
        assert!(done < 11.0, "took too long (cc problem?): {done}");
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = |seed| {
            let (t, a, z) = two_nodes(1_000_000, 20);
            let mut sim = Simulator::new(t, seed);
            sim.add_app(
                a,
                Box::new(Sender {
                    dst: z,
                    bytes: 300_000,
                    flow: None,
                    drained_at: None,
                }),
            );
            sim.add_app(z, Box::new(Receiver::default()));
            sim.run_until(SimTime::from_secs(30));
            sim.app::<Sender>(a)
                .expect("invariant: Sender installed on a")
                .drained_at
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_fairly() {
        // Two senders behind a shared 2 Mbit/s bottleneck.
        let mut b = TopologyBuilder::new();
        let s1 = b.node();
        let s2 = b.node();
        let gw = b.node();
        let z = b.node();
        let fast = LinkConfig::new(100_000_000, SimDuration::from_millis(1));
        b.duplex(s1, gw, fast);
        b.duplex(s2, gw, fast);
        b.duplex(
            gw,
            z,
            LinkConfig::new(2_000_000, SimDuration::from_millis(10)).queue_packets(25),
        );
        let t = b.build();
        let mut sim = Simulator::new(t, 3);
        for (n, _) in [(s1, 0), (s2, 1)] {
            sim.add_app(
                n,
                Box::new(Sender {
                    dst: z,
                    bytes: 30_000_000, // never finishes in 40 s
                    flow: None,
                    drained_at: None,
                }),
            );
        }
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(40));
        let f1 = sim.world().flow(flow_id(s1, 0)).acked_bytes() as f64;
        let f2 = sim.world().flow(flow_id(s2, 0)).acked_bytes() as f64;
        let ratio = f1.min(f2) / f1.max(f2);
        assert!(ratio > 0.6, "unfair split: {f1} vs {f2}");
        // Aggregate goodput should be near 2 Mbit/s payload-adjusted.
        let total_mbps = (f1 + f2) * 8.0 / 40.0 / 1e6;
        assert!(
            total_mbps > 1.6 && total_mbps < 2.01,
            "goodput {total_mbps}"
        );
    }

    #[test]
    fn lossy_link_still_delivers_reliably() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        // 5% loss each way.
        b.duplex(
            a,
            z,
            LinkConfig::new(5_000_000, SimDuration::from_millis(5)).drop_prob(0.05),
        );
        let t = b.build();
        let mut sim = Simulator::new(t, 4);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 500_000,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(120));
        let rx = sim
            .app::<Receiver>(z)
            .expect("invariant: Receiver installed on z");
        assert_eq!(rx.got.len(), 1, "message must arrive despite loss");
        let f = sim.world().flow(flow_id(a, 0));
        assert!(
            f.stats.segments_retransmitted > 0,
            "loss caused retransmits"
        );
        assert_eq!(
            sim.world().flow_rx(flow_id(a, 0)).delivered_bytes(),
            500_000
        );
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerApp {
            fired: Vec<u64>,
            cancelled_handle: Option<TimerHandle>,
        }
        impl App for TimerApp {
            fn start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let h = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                self.cancelled_handle = Some(h);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                self.fired.push(token);
                if token == 1 {
                    let h = self
                        .cancelled_handle
                        .take()
                        .expect("invariant: handle stored before timer 2 fires");
                    ctx.cancel_timer(h);
                }
            }
        }
        let (t, a, _z) = two_nodes(1_000_000, 1);
        let mut sim = Simulator::new(t, 5);
        sim.add_app(
            a,
            Box::new(TimerApp {
                fired: vec![],
                cancelled_handle: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.app::<TimerApp>(a)
                .expect("invariant: TimerApp installed on a")
                .fired,
            vec![1, 3]
        );
    }

    #[test]
    fn abort_notifies_peer() {
        struct Aborter {
            dst: NodeId,
        }
        impl App for Aborter {
            fn start(&mut self, ctx: &mut Ctx) {
                let f = ctx.open_default_flow(self.dst);
                ctx.send(f, 1_000_000, 1);
                ctx.set_timer(SimDuration::from_millis(50), f.0 as u64);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                ctx.abort_flow(FlowId(token as u32));
            }
        }
        #[derive(Default)]
        struct PeerWatch {
            aborted: Vec<FlowId>,
        }
        impl App for PeerWatch {
            fn on_flow_aborted(&mut self, _ctx: &mut Ctx, flow: FlowId) {
                self.aborted.push(flow);
            }
        }
        let (t, a, z) = two_nodes(1_000_000, 5);
        let mut sim = Simulator::new(t, 6);
        sim.add_app(a, Box::new(Aborter { dst: z }));
        sim.add_app(z, Box::new(PeerWatch::default()));
        sim.run_until(SimTime::from_secs(2));
        let f = flow_id(a, 0);
        assert_eq!(
            sim.app::<PeerWatch>(z)
                .expect("invariant: PeerWatch installed on z")
                .aborted,
            vec![f]
        );
        assert!(sim.world().flow(f).is_aborted());
        assert!(sim.world().flow_rx(f).is_aborted());
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let (t, _a, _z) = two_nodes(1_000_000, 1);
        let mut sim = Simulator::new(t, 7);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.world().now(), SimTime::from_secs(5));
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.world().now(), SimTime::from_secs(8));
    }

    /// A star: `leaves` clients around a hub, each uploading to a
    /// receiver app on the hub, with per-leaf byte counts.
    fn star(leaves: usize) -> (Topology, NodeId, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.node();
        let mut nodes = Vec::new();
        for i in 0..leaves {
            let n = b.node();
            b.duplex(
                n,
                hub,
                LinkConfig::new(2_000_000, SimDuration::from_millis(2 + i as u64)),
            );
            nodes.push(n);
        }
        (b.build(), hub, nodes)
    }

    // ------------------------------------------- app control payloads

    /// Broadcasts a control payload to its peers once, `after` the start.
    struct CtlSender {
        peers: Vec<NodeId>,
        payload: Vec<u64>,
        after: SimDuration,
    }
    impl App for CtlSender {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(self.after, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            for &p in &self.peers {
                ctx.send_control(p, self.payload.clone().into_boxed_slice());
            }
        }
    }
    /// Records control arrivals `(time, src, payload)`.
    #[derive(Default)]
    struct CtlReceiver {
        got: Vec<(SimTime, NodeId, Vec<u64>)>,
    }
    impl App for CtlReceiver {
        fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
            self.got.push((ctx.now(), src, payload.to_vec()));
        }
    }

    #[test]
    fn control_payload_arrives_at_path_delay() {
        let (t, a, z) = two_nodes(1_000_000, 5);
        let mut sim = Simulator::new(t, 31);
        sim.add_app(
            a,
            Box::new(CtlSender {
                peers: vec![z],
                payload: vec![7, 8, 9],
                after: SimDuration::from_millis(10),
            }),
        );
        sim.add_app(z, Box::new(CtlReceiver::default()));
        sim.run_until(SimTime::from_secs(1));
        let rx = sim
            .app::<CtlReceiver>(z)
            .expect("invariant: CtlReceiver installed on z");
        assert_eq!(
            rx.got,
            vec![(SimTime::from_nanos(15_000_000), a, vec![7, 8, 9])]
        );
    }

    #[test]
    fn simultaneous_control_arrivals_order_by_sender() {
        // Leaf i sits 2+i ms from the hub and sends at 10 - i ms, so all
        // four payloads *arrive* at 12 ms although they were sent in
        // reverse leaf order. The source-keyed control lane must break
        // the arrival tie by sender id, not by send order.
        let (t, hub, leaves) = star(4);
        let mut sim = Simulator::new(t, 13);
        for (i, &n) in leaves.iter().enumerate() {
            sim.add_app(
                n,
                Box::new(CtlSender {
                    peers: vec![hub],
                    payload: vec![i as u64],
                    after: SimDuration::from_millis(10 - i as u64),
                }),
            );
        }
        sim.add_app(hub, Box::new(CtlReceiver::default()));
        sim.run_until(SimTime::from_secs(1));
        let got = &sim
            .app::<CtlReceiver>(hub)
            .expect("invariant: CtlReceiver installed on hub")
            .got;
        let at = SimTime::from_nanos(12_000_000);
        let expect: Vec<_> = leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| (at, n, vec![i as u64]))
            .collect();
        assert_eq!(got, &expect);
    }

    /// Watches a peer's flow from the start and drains delivery
    /// progress on a fixed timer cadence, logging what each drain saw.
    struct ProgressWatcher {
        watched: FlowId,
        offset: SimDuration,
        period: SimDuration,
        log: Vec<(SimTime, u64)>,
        scratch: Vec<FlowId>,
    }

    impl App for ProgressWatcher {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.watch_flow(self.watched);
            ctx.set_timer(self.offset, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            let mut out = std::mem::take(&mut self.scratch);
            out.clear();
            ctx.drain_progress(&mut out);
            for &f in &out {
                self.log.push((ctx.now(), ctx.flow(f).delivered_bytes()));
            }
            self.scratch = out;
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn progress_drains_are_node_local() {
        // Two disjoint sender -> watcher pairs in one world, with drain
        // timers offset by 1 ms. Watches are node-keyed, so each
        // watcher's drain must see exactly its own flow's progress: the
        // log of a watcher sharing the world with the other pair must
        // equal its log when the other pair has no apps at all. A drain
        // that consumed the peer's queued entries would thin the peer's
        // log (or hand it a flow it cannot see, which panics).
        let run = |pairs: &[usize]| {
            let mut b = TopologyBuilder::new();
            let link = LinkConfig::new(1_000_000, SimDuration::from_millis(2));
            let mut ends = Vec::new();
            for _ in 0..2 {
                let s = b.node();
                let w = b.node();
                b.duplex(s, w, link);
                ends.push((s, w));
            }
            let mut sim = Simulator::new(b.build(), 47);
            for &i in pairs {
                let (s, w) = ends[i];
                sim.add_app(
                    s,
                    Box::new(Sender {
                        dst: w,
                        bytes: 30_000,
                        flow: None,
                        drained_at: None,
                    }),
                );
                sim.add_app(
                    w,
                    Box::new(ProgressWatcher {
                        watched: flow_id(s, 0),
                        offset: SimDuration::from_millis(10 + i as u64),
                        period: SimDuration::from_millis(10),
                        log: Vec::new(),
                        scratch: Vec::new(),
                    }),
                );
            }
            sim.run_until(SimTime::from_secs(1));
            pairs
                .iter()
                .map(|&i| {
                    sim.app::<ProgressWatcher>(ends[i].1)
                        .expect("invariant: ProgressWatcher installed")
                        .log
                        .clone()
                })
                .collect::<Vec<_>>()
        };
        let both = run(&[0, 1]);
        assert!(
            both[0].len() >= 5 && both[1].len() >= 5,
            "both watchers saw steady progress: {} / {} drains",
            both[0].len(),
            both[1].len()
        );
        assert_eq!(both[0], run(&[0])[0]);
        assert_eq!(both[1], run(&[1])[0]);
    }

    // ------------------------------------------------ fault injection

    #[test]
    fn link_flap_drops_traffic_and_transfer_recovers() {
        // A bulk transfer over a link that dies for 2 s mid-flight: the
        // flap must drop packets (queue flush + doomed in-flight), the
        // loss must be attributed to the flap, and the transport must
        // still complete the transfer after recovery.
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        let (fwd, _rev) = b.duplex(
            a,
            z,
            LinkConfig::new(2_000_000, SimDuration::from_millis(10)),
        );
        let mut sim = Simulator::new(b.build(), 71);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 2_000_000,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        let mut faults = FaultSchedule::new();
        faults.link_down(SimTime::from_secs(3), fwd, SimDuration::from_secs(2));
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(60));
        let stats = sim.world().link_stats(fwd);
        assert!(stats.drops_down > 0, "flap must drop packets");
        assert!(sim.total_drops() >= stats.drops_down);
        let done = sim
            .app::<Sender>(a)
            .expect("invariant: Sender installed on a")
            .drained_at
            .expect("transfer must finish after the link recovers");
        // Loss-free the transfer takes ~8.2 s; the 2 s hole plus the
        // retransmission backoff push it past 10 s but it must converge.
        assert!(done > SimTime::from_secs(10), "flap had no effect: {done}");
    }

    #[test]
    fn link_flap_leaves_loss_sampler_stream_untouched() {
        // On a lossy link, the Bernoulli stream must consume one roll
        // per *offered* packet whether or not a flap is layered on. Run
        // the same workload with and without a flap and compare the
        // post-recovery drop pattern indirectly: total sampled drops
        // (overall drops minus flap-attributed drops) must evolve from
        // the same stream, so the faulted run's sampled drops never
        // exceed what the sampler drew in the clean run by more than
        // the extra packets retransmission generates. The cheap, exact
        // check: a flap on a *loss-free* link must not panic or drop
        // anything once it is back up, and a clean rerun is identical.
        let run = |flap: bool| {
            let mut b = TopologyBuilder::new();
            let a = b.node();
            let z = b.node();
            let (fwd, _) = b.duplex(
                a,
                z,
                LinkConfig::new(5_000_000, SimDuration::from_millis(5)).drop_prob(0.05),
            );
            let mut sim = Simulator::new(b.build(), 4);
            sim.add_app(
                a,
                Box::new(Sender {
                    dst: z,
                    bytes: 500_000,
                    flow: None,
                    drained_at: None,
                }),
            );
            sim.add_app(z, Box::new(Receiver::default()));
            if flap {
                let mut faults = FaultSchedule::new();
                faults.link_down(SimTime::from_secs(1), fwd, SimDuration::from_millis(500));
                sim.inject_faults(&faults);
            }
            sim.run_until(SimTime::from_secs(120));
            let rx_done = sim.world().flow_rx(flow_id(a, 0)).delivered_bytes();
            (rx_done, sim.world().link_stats(fwd).drops_down)
        };
        let (clean_bytes, clean_down) = run(false);
        let (flap_bytes, flap_down) = run(true);
        assert_eq!(clean_bytes, 500_000);
        assert_eq!(flap_bytes, 500_000, "delivery survives flap + loss");
        assert_eq!(clean_down, 0);
        assert!(flap_down > 0, "the flap dropped something");
    }

    /// Fires a periodic timer and logs every fire; records restarts.
    struct Heartbeat {
        period: SimDuration,
        fires: Vec<SimTime>,
        restarts: Vec<SimTime>,
    }
    impl App for Heartbeat {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.fires.push(ctx.now());
            ctx.set_timer(self.period, 0);
        }
        fn on_restart(&mut self, ctx: &mut Ctx) {
            self.restarts.push(ctx.now());
            // Re-arm: the pre-crash timer chain died with the node.
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn crashed_node_loses_timers_and_restart_reinitializes() {
        let (t, a, _z) = two_nodes(1_000_000, 2);
        let mut sim = Simulator::new(t, 8);
        sim.add_app(
            a,
            Box::new(Heartbeat {
                period: SimDuration::from_millis(100),
                fires: vec![],
                restarts: vec![],
            }),
        );
        let mut faults = FaultSchedule::new();
        faults.node_crash(
            SimTime::from_nanos(450_000_000),
            a,
            SimDuration::from_millis(400),
        );
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(2));
        let hb = sim
            .app::<Heartbeat>(a)
            .expect("invariant: Heartbeat installed on a");
        assert_eq!(hb.restarts, vec![SimTime::from_nanos(850_000_000)]);
        // Fires at 100..400 ms, silence through the outage (the 500 ms
        // pre-crash timer dies with its incarnation), then the restart
        // re-arms: 950 ms onward.
        let expect_head: Vec<_> = (1..=4)
            .map(|i| SimTime::from_nanos(i * 100_000_000))
            .collect();
        assert_eq!(&hb.fires[..4], &expect_head[..]);
        assert_eq!(hb.fires[4], SimTime::from_nanos(950_000_000));
        assert_eq!(hb.fires.len(), 4 + 11, "steady 100 ms cadence resumes");
    }

    #[test]
    fn crashed_node_aborts_its_flows_and_notifies_peers() {
        struct CrashWatch {
            aborted: Vec<(SimTime, FlowId)>,
        }
        impl App for CrashWatch {
            fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
                self.aborted.push((ctx.now(), flow));
            }
        }
        let (t, a, z) = two_nodes(1_000_000, 5);
        let mut sim = Simulator::new(t, 9);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 10_000_000, // cannot finish before the crash
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(CrashWatch { aborted: vec![] }));
        let mut faults = FaultSchedule::new();
        faults.node_crash(SimTime::from_secs(1), a, SimDuration::from_secs(1));
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(5));
        let f = flow_id(a, 0);
        assert!(sim.world().flow(f).is_aborted(), "sender half aborted");
        assert!(sim.world().flow_rx(f).is_aborted(), "receiver half aborted");
        let w = sim
            .app::<CrashWatch>(z)
            .expect("invariant: CrashWatch installed on z");
        // The abort record travels at path propagation delay (5 ms).
        assert_eq!(w.aborted, vec![(SimTime::from_nanos(1_005_000_000), f)]);
    }

    #[test]
    fn crash_purges_the_nodes_flow_watches() {
        // Satellite regression: watches held by a crashed node must be
        // purged (and their queued progress entries dropped) — before
        // the fix nothing removed them, so a reborn watcher inherited a
        // ghost watch and stale progress.
        let (t, a, z) = two_nodes(1_000_000, 2);
        let mut sim = Simulator::new(t, 10);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 10_000_000,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(
            z,
            Box::new(ProgressWatcher {
                watched: flow_id(a, 0),
                offset: SimDuration::from_millis(10),
                period: SimDuration::from_millis(10),
                log: Vec::new(),
                scratch: Vec::new(),
            }),
        );
        let mut faults = FaultSchedule::new();
        faults.node_crash(SimTime::from_secs(1), z, SimDuration::from_secs(1));
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(3));
        let f = flow_id(a, 0);
        let world = sim.world();
        assert!(
            world.watch_rx.get(f).is_none(),
            "crash must purge the dead node's watch"
        );
        assert!(
            world.progress_rx.is_empty(),
            "queued progress for purged watches must be dropped"
        );
        let w = sim
            .app::<ProgressWatcher>(z)
            .expect("invariant: ProgressWatcher installed on z");
        // The drain timer at exactly t = 1 s still fires (node lane
        // sorts before the fault lane at equal time); nothing after.
        assert!(
            w.log.last().expect("some drains happened").0 <= SimTime::from_secs(1),
            "no progress credited after the watch died"
        );
    }

    #[test]
    fn faulted_runs_are_reproducible() {
        // The same explicit fault schedule (one leaf link flap + one
        // leaf crash) on canonical fault lanes: a repeat run with the
        // same seed reproduces every arrival, drain time, and drop.
        let run = || {
            let (t, hub, leaves) = star(4);
            let flapped_link = LinkId(0); // leaves[0] -> hub
            let mut sim = Simulator::new(t, 29);
            for (i, &n) in leaves.iter().enumerate() {
                sim.add_app(
                    n,
                    Box::new(Sender {
                        dst: hub,
                        bytes: 100_000 * (i as u64 + 1),
                        flow: None,
                        drained_at: None,
                    }),
                );
            }
            sim.add_app(hub, Box::new(Receiver::default()));
            let mut faults = FaultSchedule::new();
            faults
                .link_down(
                    SimTime::from_nanos(200_000_000),
                    flapped_link,
                    SimDuration::from_millis(300),
                )
                .node_crash(SimTime::from_secs(1), leaves[1], SimDuration::from_secs(2));
            sim.inject_faults(&faults);
            sim.run_until(SimTime::from_secs(20));
            let got = sim
                .app::<Receiver>(hub)
                .expect("invariant: Receiver installed on hub")
                .got
                .clone();
            let drains: Vec<_> = leaves
                .iter()
                .map(|&n| {
                    sim.app::<Sender>(n)
                        .expect("invariant: Sender installed on every leaf")
                        .drained_at
                })
                .collect();
            (got, drains, sim.total_drops(), sim.events_processed())
        };
        let first = run();
        assert!(first.2 > 0, "the schedule dropped something");
        assert_eq!(first, run());
    }
}
