//! The thinner as a simulator application.
//!
//! Wires a [`FrontEnd`] (any of the four variants) plus the
//! [`EmulatedServer`] into the packet world: terminates client flows,
//! tallies payment bytes as they are delivered, executes directives
//! (admit/encourage/drop/suspend/...), and answers clients over per-client
//! downstream flows.

use crate::tags::{pack, sizes, unpack, Kind};
use speakup_core::metrics::Allocation;
use speakup_core::server::EmulatedServer;
use speakup_core::thinner::{BidDigest, DigestBoard, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestKey};
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::sim::{App, Ctx, TimerHandle};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::trace::Samples;
use std::collections::BTreeMap;

const TOKEN_SERVER_DONE: u64 = u64::MAX;
const TOKEN_TICK: u64 = u64::MAX - 1;
const TOKEN_SYNC: u64 = u64::MAX - 2;

/// Where a request stands, thinner-side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReqState {
    /// Known, not yet on the server (paying, §3.3/§5 waiting).
    Contending,
    /// Executing (or suspended, §5).
    OnServer,
}

/// Static facts about one client, provided by the scenario.
#[derive(Clone, Copy, Debug)]
pub struct ClientInfo {
    /// The client's id.
    pub id: ClientId,
    /// Whether it counts as an attacker in reports.
    pub is_bad: bool,
    /// Difficulty multiplier of this client's requests (§5).
    pub difficulty: f64,
    /// Whether the client presents a fresh identity per request (§2.2
    /// spoofing). The front end then sees an *alias* key; the agent maps
    /// directives back to the real client for routing and metrics.
    pub spoofs: bool,
}

/// One registered payment channel.
#[derive(Clone, Copy, Debug)]
struct Channel {
    flow: FlowId,
    /// Delivered-byte watermark already credited to the front end.
    seen: u64,
}

/// How one thinner replica participates in a replicated deployment
/// (`--thinners R`). Absent on single-thinner runs — which therefore
/// execute the exact pre-replication code path, byte for byte.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// This replica's id, `0..count`.
    pub id: u32,
    /// The other replicas' nodes (digest sync targets).
    pub peers: Vec<NodeId>,
    /// Epoch cadence: how often this replica publishes its digest.
    pub sync_period: SimDuration,
    /// The deployment's aggregate server capacity, req/s. Each epoch
    /// the replica re-rates its own slice to its share of this.
    pub total_capacity: f64,
    /// Total replica count.
    pub count: u32,
    /// Failover threshold: declare a peer stale (crashed or partitioned)
    /// once its latest digest lags this replica's epoch by more than
    /// this many sync periods. Stale peers drop out of the capacity
    /// shares — the survivors absorb the dead replica's slice — and
    /// re-join on their next digest (see [`DigestBoard::mark_stale`]).
    pub stale_after: u64,
}

/// Smoothing mass (bytes) added to every replica's paid total when
/// converting merged digests into capacity shares: before any payment
/// flows, shares start at `1/R` and drift toward paid-proportional as
/// real bytes dominate the constant.
const SHARE_SMOOTHING_BYTES: f64 = 65_536.0;

/// Measurements the thinner takes (the paper's Figs 2–5 feed from here).
#[derive(Debug, Default)]
pub struct ThinnerMetrics {
    /// Completed requests by class.
    pub allocation: Allocation,
    /// §5: completed quanta (busy time / τ) by class.
    pub quanta: Allocation,
    /// Winning bids (bytes/request) for good clients' served requests.
    pub price_good: Samples,
    /// Winning bids for bad clients' served requests.
    pub price_bad: Samples,
    /// Payment-channel bytes accepted in total (the §7.1 "sunk" traffic).
    pub payment_bytes_total: u64,
    /// Requests dropped (channel timeout, §5 abort, or baseline drop).
    pub drops: u64,
}

/// The thinner application. See module docs.
pub struct ThinnerAgent {
    fe: Box<dyn FrontEnd>,
    server: EmulatedServer,
    /// Which node hosts which client.
    clients_by_node: BTreeMap<NodeId, ClientInfo>,
    nodes_by_client: BTreeMap<ClientId, NodeId>,
    down_flows: BTreeMap<ClientId, FlowId>,
    channels: BTreeMap<RequestKey, Channel>,
    /// Reverse index of `channels` (payment flow → request), for O(1)
    /// abort handling and progress-drain lookups.
    by_flow: BTreeMap<FlowId, RequestKey>,
    states: BTreeMap<RequestKey, ReqState>,
    /// Bytes paid per request so far (for price metrics at admission).
    paid: BTreeMap<RequestKey, u64>,
    server_timer: Option<TimerHandle>,
    tick_timer: Option<TimerHandle>,
    /// Spoofing support: real key -> alias presented to the front end,
    /// and the reverse for directive translation.
    alias_of: BTreeMap<RequestKey, RequestKey>,
    real_of: BTreeMap<RequestKey, RequestKey>,
    next_alias: u32,
    /// §5 quantum for quanta accounting, if in quantum mode.
    quantum: Option<SimDuration>,
    scratch: Vec<Directive>,
    /// Reusable flow buffer for
    /// [`ThinnerAgent::sync_delivered_channels`], which runs on every
    /// server completion and tick.
    flow_scratch: Vec<FlowId>,
    /// Replication role, when part of a `--thinners R` deployment.
    replica: Option<ReplicaConfig>,
    /// This replica's own cumulative digest under construction.
    digest: BidDigest,
    /// Latest digest per replica (self included after each publish).
    board: DigestBoard,
    /// Next channel-expiry deadline last reported by the front end
    /// (digest `expiry_horizon`; refreshed on every tick).
    expiry_hint: Option<SimTime>,
    /// When this replica first declared a peer stale (time-to-failover
    /// measurements; survives restarts like the other metrics).
    failover_at: Option<SimTime>,
    /// When a stale peer's digest was first accepted back
    /// (time-to-recovery measurements).
    rejoin_at: Option<SimTime>,
    /// Half-open observation window `[from, until)` during which
    /// completions are additionally tallied into `window_allocation`
    /// (the runner points this at a fault's outage interval).
    observe: Option<(SimTime, SimTime)>,
    /// Completed requests by class inside the observation window.
    window_allocation: Allocation,
    /// Collected measurements.
    pub metrics: ThinnerMetrics,
}

impl ThinnerAgent {
    /// Build a thinner over the given front end and server, for the given
    /// client placement.
    pub fn new(
        fe: Box<dyn FrontEnd>,
        server: EmulatedServer,
        clients: impl IntoIterator<Item = (NodeId, ClientInfo)>,
        quantum: Option<SimDuration>,
    ) -> Self {
        let clients_by_node: BTreeMap<NodeId, ClientInfo> = clients.into_iter().collect();
        let nodes_by_client = clients_by_node.iter().map(|(n, i)| (i.id, *n)).collect();
        ThinnerAgent {
            fe,
            server,
            clients_by_node,
            nodes_by_client,
            down_flows: BTreeMap::new(),
            channels: BTreeMap::new(),
            by_flow: BTreeMap::new(),
            states: BTreeMap::new(),
            paid: BTreeMap::new(),
            server_timer: None,
            tick_timer: None,
            alias_of: BTreeMap::new(),
            real_of: BTreeMap::new(),
            next_alias: 1 << 24,
            quantum,
            scratch: Vec::new(),
            flow_scratch: Vec::new(),
            replica: None,
            digest: BidDigest::new(0),
            board: DigestBoard::new(),
            expiry_hint: None,
            failover_at: None,
            rejoin_at: None,
            observe: None,
            window_allocation: Allocation::default(),
            metrics: ThinnerMetrics::default(),
        }
    }

    /// Turn this thinner into one replica of a `--thinners R`
    /// deployment: it will publish a [`BidDigest`] to `replica.peers`
    /// every `replica.sync_period` and re-rate its server slice to its
    /// merged-paid share of `replica.total_capacity`.
    pub fn with_replica(mut self, replica: ReplicaConfig) -> Self {
        self.digest = BidDigest::new(replica.id);
        self.replica = Some(replica);
        self
    }

    /// The latest digests this replica has merged (tests, diagnostics).
    pub fn board(&self) -> &DigestBoard {
        &self.board
    }

    /// This replica's sync epoch so far (0 when unreplicated).
    pub fn sync_epoch(&self) -> u64 {
        self.digest.epoch
    }

    /// When this replica first declared a peer stale, if it ever did
    /// (time-to-failover = this minus the crash instant).
    pub fn failover_at(&self) -> Option<SimTime> {
        self.failover_at
    }

    /// When this replica first re-accepted a stale peer's digest, if
    /// ever (time-to-recovery = this minus the restart instant).
    pub fn rejoin_at(&self) -> Option<SimTime> {
        self.rejoin_at
    }

    /// Tally completions inside `[from, until)` into a separate
    /// [`ThinnerAgent::window_allocation`] counter. The runner points
    /// this at a scheduled fault's outage interval so reports can state
    /// the good-client allocation *during* the outage, not just over the
    /// whole run. Like the cumulative metrics, the window survives a
    /// crash/restart of the hosting node.
    pub fn observe_window(&mut self, from: SimTime, until: SimTime) {
        assert!(from < until, "observation window must be non-empty");
        self.observe = Some((from, until));
    }

    /// Completed requests by class inside the observation window (zero
    /// if no window was set).
    pub fn window_allocation(&self) -> Allocation {
        self.window_allocation.clone()
    }

    /// Read access to the server (utilization, completion counts).
    pub fn server(&self) -> &EmulatedServer {
        &self.server
    }

    /// Read access to the front end (e.g. downcasting for its stats).
    pub fn front_end(&self) -> &dyn FrontEnd {
        self.fe.as_ref()
    }

    fn info(&self, client: ClientId) -> ClientInfo {
        let node = self.nodes_by_client[&client];
        self.clients_by_node[&node]
    }

    /// The key the front end sees for a (real) request: the real key for
    /// honest clients, a per-request fresh identity for spoofers.
    fn fe_key(&mut self, real: RequestKey, spoofs: bool) -> RequestKey {
        if !spoofs {
            return real;
        }
        if let Some(&a) = self.alias_of.get(&real) {
            return a;
        }
        let alias = RequestKey::new(ClientId(self.next_alias), real.req);
        self.next_alias += 1;
        self.alias_of.insert(real, alias);
        self.real_of.insert(alias, real);
        alias
    }

    /// Translate a front-end key back to the real request.
    fn real_key(&self, k: RequestKey) -> RequestKey {
        self.real_of.get(&k).copied().unwrap_or(k)
    }

    fn drop_alias(&mut self, real: RequestKey) {
        if let Some(a) = self.alias_of.remove(&real) {
            self.real_of.remove(&a);
        }
    }

    /// The alias already registered for `real`, or `real` itself.
    fn existing_fe_key(&self, real: RequestKey) -> RequestKey {
        self.alias_of.get(&real).copied().unwrap_or(real)
    }

    fn down_flow(&mut self, ctx: &mut Ctx, client: ClientId) -> FlowId {
        if let Some(&f) = self.down_flows.get(&client) {
            return f;
        }
        let node = self.nodes_by_client[&client];
        let f = ctx.open_default_flow(node);
        self.down_flows.insert(client, f);
        f
    }

    fn tell(&mut self, ctx: &mut Ctx, client: ClientId, kind: Kind, req: RequestKey, bytes: u64) {
        let f = self.down_flow(ctx, client);
        ctx.send(f, bytes, pack(kind, req.req));
    }

    /// Credit any newly delivered bytes on `key`'s channel to the front
    /// end. Returns the delta.
    fn sync_channel(&mut self, ctx: &mut Ctx, key: RequestKey) -> u64 {
        let Some(ch) = self.channels.get_mut(&key) else {
            return 0;
        };
        let delivered = ctx.flow(ch.flow).delivered_bytes();
        let delta = delivered.saturating_sub(ch.seen);
        if delta > 0 {
            ch.seen = delivered;
            *self.paid.entry(key).or_insert(0) += delta;
            self.metrics.payment_bytes_total += delta;
            self.digest.note_payment(delta);
            let now = ctx.now();
            let fe_key = self.existing_fe_key(key);
            let mut out = std::mem::take(&mut self.scratch);
            self.fe.on_payment(now, fe_key, delta, &mut out);
            // Payments never emit directives in auction/quantum mode; the
            // retry mode feeds per-message payments elsewhere. Anything
            // that does arrive is processed all the same.
            if !out.is_empty() {
                self.execute_drain(ctx, &mut out);
            }
            self.scratch = out;
        }
        delta
    }

    /// Credit every channel whose flow delivered new bytes since the
    /// last call. Equivalent to polling every open channel — a sync
    /// with no new bytes is a no-op — but O(flows that moved) instead
    /// of O(open channels). The full scan ran on every server
    /// completion, and completions scale with capacity (itself scaled
    /// to the population), so at crowd scale it made the whole
    /// simulation O(population²) per simulated second.
    fn sync_delivered_channels(&mut self, ctx: &mut Ctx) {
        // Reuse the flow buffer: this runs on every completion and
        // tick, and a fresh Vec per call was measurable allocator churn.
        let mut flows = std::mem::take(&mut self.flow_scratch);
        flows.clear();
        ctx.drain_progress(&mut flows);
        for &f in &flows {
            if let Some(&key) = self.by_flow.get(&f) {
                self.sync_channel(ctx, key);
            }
        }
        self.flow_scratch = flows;
    }

    fn call_fe(
        &mut self,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut dyn FrontEnd, SimTime, &mut Vec<Directive>),
    ) {
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.scratch);
        f(self.fe.as_mut(), now, &mut out);
        self.execute_drain(ctx, &mut out);
        self.scratch = out;
    }

    /// Process and remove every directive in `directives`, leaving the
    /// vector empty but with its capacity intact for the caller to hand
    /// back to `scratch` (the double-`mem::take` this replaces returned
    /// a zero-capacity buffer, costing an allocation per front-end call).
    fn execute_drain(&mut self, ctx: &mut Ctx, directives: &mut Vec<Directive>) {
        for d in directives.drain(..) {
            // Translate any front-end alias back to the real request.
            let d = match d {
                Directive::Admit(k) => Directive::Admit(self.real_key(k)),
                Directive::Encourage(k) => Directive::Encourage(self.real_key(k)),
                Directive::Drop(k) => Directive::Drop(self.real_key(k)),
                Directive::TerminateChannel(k) => Directive::TerminateChannel(self.real_key(k)),
                Directive::Suspend(k) => Directive::Suspend(self.real_key(k)),
                Directive::Resume(k) => Directive::Resume(self.real_key(k)),
                Directive::AbortRequest(k) => Directive::AbortRequest(self.real_key(k)),
            };
            match d {
                Directive::Admit(k) => self.admit(ctx, k),
                Directive::Encourage(k) => {
                    self.states.entry(k).or_insert(ReqState::Contending);
                    self.tell(ctx, k.client, Kind::Encourage, k, sizes::CONTROL);
                }
                Directive::Drop(k) => {
                    self.metrics.drops += 1;
                    self.digest.timeouts += 1;
                    self.cleanup_channel(ctx, k, false);
                    self.states.remove(&k);
                    self.paid.remove(&k);
                    self.drop_alias(k);
                    self.tell(ctx, k.client, Kind::Dropped, k, sizes::CONTROL);
                }
                Directive::TerminateChannel(k) => {
                    self.cleanup_channel(ctx, k, true);
                }
                Directive::Suspend(k) => {
                    let now = ctx.now();
                    self.server.suspend(now, k);
                    if let Some(h) = self.server_timer.take() {
                        ctx.cancel_timer(h);
                    }
                    self.credit_quantum_progress(k);
                }
                Directive::Resume(k) => {
                    let now = ctx.now();
                    let finish = self.server.resume(now, k);
                    self.arm_server_timer(ctx, finish);
                    self.states.insert(k, ReqState::OnServer);
                }
                Directive::AbortRequest(k) => {
                    self.server.abort_suspended(k);
                    self.metrics.drops += 1;
                    self.cleanup_channel(ctx, k, false);
                    self.states.remove(&k);
                    self.paid.remove(&k);
                    self.drop_alias(k);
                    self.tell(ctx, k.client, Kind::Dropped, k, sizes::CONTROL);
                }
            }
        }
    }

    fn admit(&mut self, ctx: &mut Ctx, k: RequestKey) {
        let info = self.info(k.client);
        let now = ctx.now();
        let finish = self.server.start_request(now, k, info.difficulty);
        self.digest.admissions += 1;
        self.arm_server_timer(ctx, finish);
        self.states.insert(k, ReqState::OnServer);
        // Record the price this admission paid.
        let paid = self.paid.get(&k).copied().unwrap_or(0) as f64;
        if info.is_bad {
            self.metrics.price_bad.push(paid);
        } else {
            self.metrics.price_good.push(paid);
        }
    }

    fn arm_server_timer(&mut self, ctx: &mut Ctx, finish: SimTime) {
        if let Some(h) = self.server_timer.take() {
            ctx.cancel_timer(h);
        }
        let delay = finish.saturating_since(ctx.now());
        self.server_timer = Some(ctx.set_timer(delay, TOKEN_SERVER_DONE));
    }

    /// Terminate the transport channel for `k`. `graceful` distinguishes
    /// auction wins (the client learns the outcome from the later
    /// `Response`) from drops.
    fn cleanup_channel(&mut self, ctx: &mut Ctx, k: RequestKey, graceful: bool) {
        let _ = graceful;
        if let Some(ch) = self.channels.remove(&k) {
            ctx.unwatch_flow(ch.flow);
            self.by_flow.remove(&ch.flow);
            ctx.abort_flow(ch.flow);
        }
    }

    /// §5 bookkeeping: count quanta consumed by the request's class.
    fn credit_quantum_progress(&mut self, _k: RequestKey) {
        // Quanta are accounted at completion from total work; nothing to
        // do per-suspension. Kept as a hook for finer-grained accounting.
    }

    fn schedule_tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.scratch);
        let next = self.fe.on_tick(now, &mut out);
        self.expiry_hint = next;
        self.execute_drain(ctx, &mut out);
        self.scratch = out;
        if let Some(h) = self.tick_timer.take() {
            ctx.cancel_timer(h);
        }
        // Fall back to a coarse housekeeping cadence when the front end
        // has no deadline of its own.
        let at = next.unwrap_or(now + SimDuration::from_millis(500));
        let delay = at.saturating_since(now).max(SimDuration::from_millis(1));
        self.tick_timer = Some(ctx.set_timer(delay, TOKEN_TICK));
    }

    fn client_of_flow(&self, ctx: &Ctx, flow: FlowId) -> Option<ClientInfo> {
        let src = ctx.flow(flow).src;
        self.clients_by_node.get(&src).copied()
    }

    /// Stamp the digest's live-auction snapshot, bump the epoch, and
    /// ship it to every peer replica as a control payload (delivered at
    /// path propagation delay on the sender-keyed control lane). The
    /// replica's own board merges it immediately.
    fn publish_digest(&mut self, ctx: &mut Ctx) {
        self.digest.epoch += 1;
        self.digest.contenders = self
            .states
            .values()
            .filter(|s| **s == ReqState::Contending)
            .count() as u64;
        self.digest.busy = self.server.is_busy();
        self.digest.going_rate = self.fe.going_rate().unwrap_or(0);
        self.digest.expiry_horizon = self.expiry_hint.map_or(u64::MAX, SimTime::as_nanos);
        // The oracle-facing top-bid fields stay unset in the simulation:
        // replicas coordinate through capacity shares, not a global
        // admission gate (which would serialize them to ~c/R total).
        self.digest.has_top = false;
        let words = self.digest.encode().into_boxed_slice();
        let peers = match &self.replica {
            Some(cfg) => cfg.peers.clone(),
            None => Vec::new(),
        };
        for peer in peers {
            ctx.send_control(peer, words.clone());
        }
        self.board.merge(self.digest);
    }

    /// Re-rate this replica's server slice to its share of the
    /// aggregate capacity, proportional to merged cumulative paid bytes
    /// (with smoothing so pre-payment epochs stay at `1/R`). This is
    /// the paper's DNS-round-robin deployment made adaptive: a replica
    /// whose clients deliver more payment bandwidth serves a matching
    /// share of the server, so the going rate equalizes across
    /// replicas as sync staleness allows.
    ///
    /// Shares are computed over *live* replicas only: a peer declared
    /// stale (see [`ReplicaConfig::stale_after`]) drops out of both the
    /// paid total and the smoothing mass, so the survivors' shares sum
    /// to 1 and the dead replica's capacity slice is absorbed rather
    /// than stranded. With no stale peers — every fault-free run — this
    /// is arithmetic-identical to the all-replicas formula.
    fn rebalance_capacity(&mut self) {
        let Some(cfg) = &self.replica else {
            return;
        };
        let total = self.board.live_total_paid() as f64;
        let mine = self.board.paid_of(cfg.id) as f64;
        let live_n = f64::from(cfg.count) - self.board.stale_count() as f64;
        let share = (mine + SHARE_SMOOTHING_BYTES) / (total + SHARE_SMOOTHING_BYTES * live_n);
        self.server.set_capacity(cfg.total_capacity * share);
    }
}

impl App for ThinnerAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        self.schedule_tick(ctx);
        if let Some(cfg) = &self.replica {
            ctx.set_timer(cfg.sync_period, TOKEN_SYNC);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        let (kind, rid) = unpack(tag);
        let Some(info) = self.client_of_flow(ctx, flow) else {
            return; // message from a non-client node (e.g. Fig 9 web traffic)
        };
        let key = RequestKey::new(info.id, rid);
        match kind {
            Kind::Request => {
                self.states.entry(key).or_insert(ReqState::Contending);
                let fe_key = self.fe_key(key, info.spoofs);
                self.call_fe(ctx, |fe, now, out| fe.on_request(now, fe_key, out));
            }
            Kind::PaymentHeader => {
                // Final credit for a previous channel of the same request
                // (re-POST case), then switch to the new flow.
                self.sync_channel(ctx, key);
                let seen = ctx.flow(flow).delivered_bytes();
                if let Some(old) = self.channels.insert(key, Channel { flow, seen }) {
                    ctx.unwatch_flow(old.flow);
                    self.by_flow.remove(&old.flow);
                }
                ctx.watch_flow(flow);
                self.by_flow.insert(flow, key);
            }
            Kind::PaymentChunk => {
                // A full POST arrived. Credit it, then tell the client to
                // keep paying if its request is still in play.
                self.sync_channel(ctx, key);
                let state = self.states.get(&key).copied();
                let keep_paying = match state {
                    Some(ReqState::Contending) => true,
                    // §5: the active request keeps its channel open.
                    Some(ReqState::OnServer) => self.quantum.is_some(),
                    None => false,
                };
                if keep_paying {
                    self.tell(ctx, key.client, Kind::Continue, key, sizes::CONTROL);
                }
            }
            Kind::Retry => {
                // Retries race with admission on a separate flow: a stale
                // retry that lands after its request was served must not
                // resurrect it (cf. §7.3's wasted bytes — they are simply
                // ignored).
                if self.states.get(&key) != Some(&ReqState::Contending) {
                    return;
                }
                self.metrics.payment_bytes_total += sizes::RETRY;
                self.digest.note_payment(sizes::RETRY);
                *self.paid.entry(key).or_insert(0) += sizes::RETRY;
                let fe_key = self.existing_fe_key(key);
                self.call_fe(ctx, |fe, now, out| {
                    fe.on_payment(now, fe_key, sizes::RETRY, out)
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            TOKEN_SERVER_DONE => {
                self.server_timer = None;
                let now = ctx.now();
                let key = self.server.complete(now);
                let info = self.info(key.client);
                if info.is_bad {
                    self.metrics.allocation.bad += 1;
                } else {
                    self.metrics.allocation.good += 1;
                }
                if let Some((from, until)) = self.observe {
                    if now >= from && now < until {
                        if info.is_bad {
                            self.window_allocation.bad += 1;
                        } else {
                            self.window_allocation.good += 1;
                        }
                    }
                }
                if let Some(q) = self.quantum {
                    // Work consumed ≈ difficulty/c; count quanta.
                    let quanta = ((info.difficulty / self.server.capacity()) / q.as_secs_f64())
                        .round() as u64;
                    let quanta = quanta.max(1);
                    if info.is_bad {
                        self.metrics.quanta.bad += quanta;
                    } else {
                        self.metrics.quanta.good += quanta;
                    }
                }
                self.states.remove(&key);
                self.paid.remove(&key);
                // In auction mode the channel died at admission; in §5 it
                // is still open and on_server_done will terminate it.
                // Sync other channels so the auction sees fresh bids.
                self.sync_delivered_channels(ctx);
                let fe_key = self.existing_fe_key(key);
                self.drop_alias(key);
                self.call_fe(ctx, |fe, now, out| fe.on_server_done(now, fe_key, out));
                self.tell(ctx, key.client, Kind::Response, key, sizes::RESPONSE);
            }
            TOKEN_TICK => {
                self.tick_timer = None;
                self.sync_delivered_channels(ctx);
                self.schedule_tick(ctx);
            }
            TOKEN_SYNC => {
                // Epoch boundary: credit any fresh payment bytes first
                // so the published digest is current, then publish,
                // check for silent peers, re-rate, and re-arm.
                self.sync_delivered_channels(ctx);
                self.publish_digest(ctx);
                if let Some(cfg) = &self.replica {
                    let newly = self
                        .board
                        .mark_stale(cfg.id, self.digest.epoch, cfg.stale_after);
                    if !newly.is_empty() && self.failover_at.is_none() {
                        self.failover_at = Some(ctx.now());
                    }
                }
                self.rebalance_capacity();
                if let Some(cfg) = &self.replica {
                    ctx.set_timer(cfg.sync_period, TOKEN_SYNC);
                }
            }
            _ => unreachable!("unknown thinner timer token"),
        }
    }

    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        // A client abandoned a payment flow. Cancel its request's
        // channel registration if it is still ours.
        if let Some(k) = self.by_flow.remove(&flow) {
            ctx.unwatch_flow(flow);
            self.channels.remove(&k);
            let fe_key = self.existing_fe_key(k);
            self.call_fe(ctx, |fe, now, out| fe.on_cancel(now, fe_key, out));
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx, _src: NodeId, payload: &[u64]) {
        // A peer replica's digest. Merge-by-epoch makes delivery order
        // irrelevant; the capacity share follows the freshened board.
        if let Some(d) = BidDigest::decode(payload) {
            let was_stale = self.board.is_stale(d.replica);
            let kept = self.board.merge(d);
            if kept && was_stale && self.rejoin_at.is_none() {
                self.rejoin_at = Some(ctx.now());
            }
            self.rebalance_capacity();
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // The hosting node crashed and came back: every flow, timer, and
        // watch died with it, and a fresh thinner process holds no
        // in-flight request state. Cumulative metrics survive — they are
        // the harness's measurement apparatus, not process memory.
        self.fe.reset(ctx.now());
        self.server.reset();
        self.down_flows.clear();
        self.channels.clear();
        self.by_flow.clear();
        self.states.clear();
        self.paid.clear();
        self.server_timer = None;
        self.tick_timer = None;
        self.alias_of.clear();
        self.real_of.clear();
        self.expiry_hint = None;
        // The digest epoch restarts from zero — that reset is exactly
        // the re-join signal peers accept past their max-epoch rule —
        // and the board refills from the next round of peer digests.
        let id = self.replica.as_ref().map_or(0, |cfg| cfg.id);
        self.digest = BidDigest::new(id);
        self.board = DigestBoard::new();
        // Come back up exactly like a first boot: housekeeping tick now,
        // first digest publish one sync period from now.
        self.start(ctx);
    }
}
