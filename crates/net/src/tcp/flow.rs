//! The flow state machine. See the module docs in [`crate::tcp`].

use crate::packet::{FlowId, NodeId};
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Congestion-control algorithm for a flow.
///
/// Reno is the period-correct default (the paper predates CUBIC's
/// deployment); CUBIC is provided for ablations on modern-Internet
/// payment dynamics, mirroring smoltcp's optional Reno/CUBIC support.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CongestionControl {
    /// NewReno-style AIMD (default).
    #[default]
    Reno,
    /// CUBIC (RFC 9438 shape): window grows as a cubic of time since the
    /// last congestion event, with β = 0.7 multiplicative decrease.
    Cubic,
}

/// Transport configuration for one flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Maximum segment size: payload bytes per data packet.
    pub mss: u32,
    /// Wire overhead added to each data segment (IP + TCP headers).
    pub header_bytes: u32,
    /// Wire size of a pure ACK.
    pub ack_bytes: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segments: u32,
    /// Congestion window ceiling in bytes (stands in for the peer's
    /// receive window).
    pub max_cwnd_bytes: u64,
    /// Retransmission timeout before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Lower bound on the RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the RTO (with backoff applied).
    pub max_rto: SimDuration,
    /// Congestion-control algorithm.
    pub cc: CongestionControl,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            mss: 1460,
            header_bytes: 40,
            ack_bytes: 40,
            init_cwnd_segments: 2,
            max_cwnd_bytes: 1 << 20,
            initial_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(16),
            cc: CongestionControl::Reno,
        }
    }
}

/// Counters for one flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowStats {
    /// Data segments sent, including retransmissions.
    pub segments_sent: u64,
    /// Data segments retransmitted (fast retransmit or timeout).
    pub segments_retransmitted: u64,
    /// Fast-retransmit episodes entered.
    pub fast_retransmits: u64,
    /// Retransmission timer expirations.
    pub rto_events: u64,
    /// Pure ACKs emitted by the receiver side.
    pub acks_sent: u64,
    /// Largest congestion window observed, in bytes.
    pub max_cwnd: u64,
}

/// What the world must do in response to a flow event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowAction {
    /// Transmit stream bytes `[offset, offset+len)` from `src` toward `dst`.
    SendData {
        /// First stream byte of the segment.
        offset: u64,
        /// Segment payload length.
        len: u32,
    },
    /// Transmit a cumulative ACK from `dst` toward `src`.
    SendAck {
        /// One past the highest in-order byte received.
        cum: u64,
    },
    /// (Re)arm the retransmission timer to fire after this long.
    ArmRto(SimDuration),
    /// Cancel the retransmission timer.
    CancelRto,
    /// The last byte of the message with this tag arrived in order:
    /// deliver it to the receiving application.
    Deliver {
        /// The tag the sender attached to the message.
        tag: u64,
    },
    /// Every byte written so far has been acknowledged: tell the sending
    /// application its buffer drained.
    Drained,
}

/// One direction of a connection. See module docs.
#[derive(Debug)]
pub struct Flow {
    /// Flow identifier.
    pub id: FlowId,
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Transport parameters.
    pub cfg: FlowConfig,

    // ---- sender state ----
    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Total bytes the application has written.
    write_limit: u64,
    /// Congestion window, bytes. f64 so congestion-avoidance fractions
    /// accumulate.
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    /// On entering recovery, snd_nxt at that moment; recovery ends when
    /// cumulative ACK reaches it.
    recover: u64,
    /// Smoothed RTT (seconds), RFC 6298.
    srtt: Option<f64>,
    rttvar: f64,
    /// Current retransmission timeout (with backoff applied).
    rto: SimDuration,
    /// Outstanding RTT measurement: (segment end byte, send time).
    rtt_probe: Option<(u64, SimTime)>,
    /// Whether we believe the world has an armed RTO timer for us.
    rto_armed: bool,

    // ---- CUBIC state (unused under Reno) ----
    /// Window size (bytes) just before the last congestion event.
    cubic_w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    cubic_epoch: Option<SimTime>,

    // ---- receiver state ----
    /// Next in-order byte expected.
    rcv_nxt: u64,
    /// Out-of-order ranges received: start -> end (coalesced).
    ooo: BTreeMap<u64, u64>,

    // ---- framing ----
    /// Message boundaries in write order: (end offset, tag).
    boundaries: VecDeque<(u64, u64)>,

    // ---- lifecycle ----
    aborted: bool,
    drained_notified: bool,

    /// Counters.
    pub stats: FlowStats,
}

impl Flow {
    /// A fresh flow in the initial (slow-start) state.
    pub fn new(id: FlowId, src: NodeId, dst: NodeId, cfg: FlowConfig) -> Self {
        let cwnd = (cfg.init_cwnd_segments as f64) * cfg.mss as f64;
        Flow {
            id,
            src,
            dst,
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            write_limit: 0,
            cwnd,
            ssthresh: cfg.max_cwnd_bytes as f64,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto: cfg.initial_rto,
            rtt_probe: None,
            rto_armed: false,
            cubic_w_max: 0.0,
            cubic_epoch: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            boundaries: VecDeque::new(),
            aborted: false,
            drained_notified: false,
            stats: FlowStats::default(),
        }
    }

    // ---------------------------------------------------------------- inputs

    /// The application writes a message of `bytes` bytes tagged `tag`.
    pub fn write(&mut self, now: SimTime, bytes: u64, tag: u64, out: &mut Vec<FlowAction>) {
        assert!(bytes > 0, "zero-length messages are not supported");
        if self.aborted {
            return;
        }
        self.write_limit += bytes;
        self.boundaries.push_back((self.write_limit, tag));
        self.drained_notified = false;
        self.pump(now, out);
        self.update_timer(out);
    }

    /// A cumulative ACK for everything below `cum` arrived at the sender.
    pub fn on_ack(&mut self, now: SimTime, cum: u64, out: &mut Vec<FlowAction>) {
        if self.aborted {
            return;
        }
        let cum = cum.min(self.snd_nxt);
        if cum > self.snd_una {
            let acked = cum - self.snd_una;
            self.snd_una = cum;
            self.dup_acks = 0;

            // Drop fully-acked message boundaries: on a split sender half
            // nothing ever consumes them (delivery runs on the receiver
            // half), and on a combined instance delivery has already
            // popped everything at or below the acked watermark, so this
            // only bounds memory.
            while self
                .boundaries
                .front()
                .is_some_and(|&(end, _)| end <= self.snd_una)
            {
                self.boundaries.pop_front();
            }

            // RTT sample (Karn's rule: the probe is invalidated whenever the
            // probed range is retransmitted).
            if let Some((end, sent)) = self.rtt_probe {
                if cum >= end {
                    if let Some(sample) = now.checked_since(sent) {
                        self.take_rtt_sample(sample.as_secs_f64());
                    }
                    self.rtt_probe = None;
                }
            }

            if self.in_recovery {
                if cum >= self.recover {
                    // Full recovery: deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh.max(self.cfg.mss as f64);
                } else {
                    // NewReno partial ACK: retransmit the next hole and
                    // deflate by the amount acked.
                    self.retransmit_head(out);
                    self.cwnd =
                        (self.cwnd - acked as f64 + self.cfg.mss as f64).max(self.cfg.mss as f64);
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start: one MSS per ACK (bounded by bytes acked).
                self.cwnd += (acked as f64).min(self.cfg.mss as f64);
            } else {
                match self.cfg.cc {
                    CongestionControl::Reno => {
                        // Congestion avoidance: ~one MSS per RTT.
                        self.cwnd += self.cfg.mss as f64 * self.cfg.mss as f64 / self.cwnd;
                    }
                    CongestionControl::Cubic => self.cubic_grow(now),
                }
            }
            self.cap_cwnd();
            self.pump(now, out);
            self.update_timer(out);
            self.maybe_drained(out);
        } else if cum == self.snd_una && self.snd_una < self.snd_nxt {
            // Duplicate ACK with data outstanding.
            self.dup_acks += 1;
            if self.in_recovery {
                // Inflate during recovery so new data keeps flowing.
                self.cwnd += self.cfg.mss as f64;
                self.cap_cwnd();
                self.pump(now, out);
            } else if self.dup_acks == 3 {
                self.enter_fast_retransmit(now, out);
            }
        }
    }

    /// The retransmission timer fired at the sender.
    pub fn on_rto(&mut self, _now: SimTime, out: &mut Vec<FlowAction>) {
        self.rto_armed = false;
        if self.aborted || self.snd_una == self.snd_nxt {
            return;
        }
        self.stats.rto_events += 1;
        let flight = (self.snd_nxt - self.snd_una) as f64;
        self.ssthresh = match self.cfg.cc {
            CongestionControl::Reno => (flight / 2.0).max(2.0 * self.cfg.mss as f64),
            CongestionControl::Cubic => (self.cwnd * 0.7).max(2.0 * self.cfg.mss as f64),
        };
        self.on_congestion_event();
        self.cwnd = self.cfg.mss as f64;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtt_probe = None; // Karn: no sampling across a timeout
                               // Exponential backoff, bounded.
        let doubled = SimDuration::from_nanos(self.rto.as_nanos().saturating_mul(2));
        self.rto = doubled.min(self.cfg.max_rto);
        // Go-back-N: rewind and resend from the hole.
        self.snd_nxt = self.snd_una;
        self.pump_retransmission(out);
        self.update_timer(out);
    }

    /// Record a message boundary on the receiver half of a split flow:
    /// the stream byte range ending at `end` completes the message tagged
    /// `tag`. The simulator replicates the sender's [`Flow::write`]
    /// boundaries to the receiver half through this (boundary records
    /// travel at the path's propagation delay, so they always precede the
    /// data bytes they frame).
    pub fn note_boundary(&mut self, end: u64, tag: u64) {
        self.boundaries.push_back((end, tag));
    }

    /// A data segment `[offset, offset+len)` arrived at the receiver.
    pub fn on_data(&mut self, _now: SimTime, offset: u64, len: u32, out: &mut Vec<FlowAction>) {
        if self.aborted {
            return;
        }
        let end = offset + u64::from(len);
        if end > self.rcv_nxt {
            if offset <= self.rcv_nxt && self.ooo.is_empty() {
                // In-order data with nothing buffered — the steady state
                // on a loss-free path. Skip the out-of-order machinery.
                self.rcv_nxt = end;
                self.deliver_boundaries(out);
            } else {
                self.insert_ooo(offset.max(self.rcv_nxt), end);
                self.advance_rcv(out);
            }
        }
        self.stats.acks_sent += 1;
        out.push(FlowAction::SendAck { cum: self.rcv_nxt });
    }

    /// Abort the flow from either endpoint: stop transmitting, ignore
    /// stragglers. Irreversible.
    pub fn abort(&mut self, out: &mut Vec<FlowAction>) {
        if self.aborted {
            return;
        }
        self.aborted = true;
        if self.rto_armed {
            self.rto_armed = false;
            out.push(FlowAction::CancelRto);
        }
    }

    // -------------------------------------------------------------- queries

    /// Whether the flow was aborted by either endpoint.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Bytes delivered in order to the receiving application.
    pub fn delivered_bytes(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes acknowledged back to the sender.
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una
    }

    /// Bytes the application has written.
    pub fn written_bytes(&self) -> u64 {
        self.write_limit
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn flight_bytes(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        // lint: allow(cast) — f64 -> u64 saturates; cwnd is clamped to [mss, cap]
        self.cwnd as u64
    }

    /// Current smoothed RTT estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn current_rto(&self) -> SimDuration {
        self.rto
    }

    /// True once every written byte has been acknowledged.
    pub fn is_drained(&self) -> bool {
        self.snd_una == self.write_limit
    }

    // ------------------------------------------------------------ internals

    fn cap_cwnd(&mut self) {
        let cap = self.cfg.max_cwnd_bytes as f64;
        if self.cwnd > cap {
            self.cwnd = cap;
        }
        // lint: allow(cast) — f64 -> u64 saturates; cwnd is clamped to [mss, cap]
        self.stats.max_cwnd = self.stats.max_cwnd.max(self.cwnd as u64);
    }

    /// Send as much new data as the window allows.
    fn pump(&mut self, now: SimTime, out: &mut Vec<FlowAction>) {
        while self.snd_nxt < self.write_limit {
            let flight = (self.snd_nxt - self.snd_una) as f64;
            if flight + 1.0 > self.cwnd {
                break;
            }
            let len = u32::try_from((self.write_limit - self.snd_nxt).min(u64::from(self.cfg.mss)))
                .expect("invariant: min-clamped by mss");
            out.push(FlowAction::SendData {
                offset: self.snd_nxt,
                len,
            });
            self.stats.segments_sent += 1;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt + u64::from(len), now));
            }
            self.snd_nxt += u64::from(len);
        }
    }

    /// After a timeout: resend one window starting at the hole.
    fn pump_retransmission(&mut self, out: &mut Vec<FlowAction>) {
        // snd_nxt was rewound to snd_una; everything we now emit below the
        // old high-water mark is a retransmission.
        let mut sent = 0f64;
        while self.snd_nxt < self.write_limit && sent + 1.0 <= self.cwnd {
            let len = u32::try_from((self.write_limit - self.snd_nxt).min(u64::from(self.cfg.mss)))
                .expect("invariant: min-clamped by mss");
            out.push(FlowAction::SendData {
                offset: self.snd_nxt,
                len,
            });
            self.stats.segments_sent += 1;
            self.stats.segments_retransmitted += 1;
            self.snd_nxt += u64::from(len);
            sent += len as f64;
        }
    }

    fn enter_fast_retransmit(&mut self, _now: SimTime, out: &mut Vec<FlowAction>) {
        let flight = (self.snd_nxt - self.snd_una) as f64;
        self.ssthresh = match self.cfg.cc {
            CongestionControl::Reno => (flight / 2.0).max(2.0 * self.cfg.mss as f64),
            CongestionControl::Cubic => (self.cwnd * 0.7).max(2.0 * self.cfg.mss as f64),
        };
        self.on_congestion_event();
        self.retransmit_head(out);
        self.cwnd = self.ssthresh + 3.0 * self.cfg.mss as f64;
        self.cap_cwnd();
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.rtt_probe = None;
        self.stats.fast_retransmits += 1;
    }

    /// Retransmit the first unacknowledged segment.
    fn retransmit_head(&mut self, out: &mut Vec<FlowAction>) {
        let len = u32::try_from((self.write_limit - self.snd_una).min(u64::from(self.cfg.mss)))
            .expect("invariant: min-clamped by mss");
        if len == 0 {
            return;
        }
        out.push(FlowAction::SendData {
            offset: self.snd_una,
            len,
        });
        self.stats.segments_sent += 1;
        self.stats.segments_retransmitted += 1;
        self.rtt_probe = None;
    }

    /// Record a congestion event for CUBIC: remember the window and start
    /// a fresh cubic epoch.
    fn on_congestion_event(&mut self) {
        if self.cfg.cc == CongestionControl::Cubic {
            self.cubic_w_max = self.cwnd;
            self.cubic_epoch = None; // restarted on the next CA ACK
        }
    }

    /// CUBIC window growth (RFC 9438 shape, in MSS/second units):
    /// `W(t) = C·(t − K)³ + W_max`, `K = cbrt(W_max·(1−β)/C)` with
    /// β = 0.7 and C = 0.4. The window steps toward the target by at most
    /// one MSS per ACK.
    fn cubic_grow(&mut self, now: SimTime) {
        const C: f64 = 0.4; // MSS/s³
        const BETA: f64 = 0.7;
        let mss = self.cfg.mss as f64;
        let epoch = *self.cubic_epoch.get_or_insert(now);
        let t = now.saturating_since(epoch).as_secs_f64();
        let w_max = (self.cubic_w_max / mss).max(2.0); // in MSS
        let k = (w_max * (1.0 - BETA) / C).cbrt();
        let target = (C * (t - k).powi(3) + w_max) * mss; // bytes
        if target > self.cwnd {
            // Move toward the cubic curve, at most one MSS per ACK.
            let step = ((target - self.cwnd) / self.cwnd) * mss;
            self.cwnd += step.min(mss);
        } else {
            // TCP-friendly floor: creep like Reno so CUBIC never does
            // worse than AIMD in its concave region.
            self.cwnd += 0.25 * mss * mss / self.cwnd;
        }
    }

    fn take_rtt_sample(&mut self, r: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto = self.srtt.expect("just set") + (4.0 * self.rttvar).max(0.001);
        self.rto = SimDuration::from_secs_f64(rto)
            .max(self.cfg.min_rto)
            .min(self.cfg.max_rto);
    }

    /// Keep the RTO timer armed exactly when data is outstanding.
    fn update_timer(&mut self, out: &mut Vec<FlowAction>) {
        let want = self.snd_una < self.snd_nxt && !self.aborted;
        if want {
            // Restart on every ACK that advances, and on new transmissions.
            out.push(FlowAction::ArmRto(self.rto));
            self.rto_armed = true;
        } else if self.rto_armed {
            out.push(FlowAction::CancelRto);
            self.rto_armed = false;
        }
    }

    fn maybe_drained(&mut self, out: &mut Vec<FlowAction>) {
        if self.snd_una == self.write_limit && !self.drained_notified && self.write_limit > 0 {
            self.drained_notified = true;
            out.push(FlowAction::Drained);
        }
    }

    fn insert_ooo(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let mut new_start = start;
        let mut new_end = end;
        // Coalesce with overlapping or adjacent ranges, one at a time
        // (no scratch allocation; overlaps are rare and few).
        while let Some(s) = self
            .ooo
            .range(..=new_end)
            .find(|&(_, &e)| e >= new_start)
            .map(|(&s, _)| s)
        {
            let e = self.ooo.remove(&s).expect("present");
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
        self.ooo.insert(new_start, new_end);
    }

    fn advance_rcv(&mut self, out: &mut Vec<FlowAction>) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
        self.deliver_boundaries(out);
    }

    fn deliver_boundaries(&mut self, out: &mut Vec<FlowAction>) {
        while let Some(&(end, tag)) = self.boundaries.front() {
            if end > self.rcv_nxt {
                break;
            }
            self.boundaries.pop_front();
            out.push(FlowAction::Deliver { tag });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1460;

    fn flow() -> Flow {
        Flow::new(FlowId(0), NodeId(0), NodeId(1), FlowConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Collect the data segments from an action list.
    fn datas(out: &[FlowAction]) -> Vec<(u64, u32)> {
        out.iter()
            .filter_map(|a| match a {
                FlowAction::SendData { offset, len } => Some((*offset, *len)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_write_respects_init_cwnd() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 10 * MSS, 7, &mut out);
        let d = datas(&out);
        assert_eq!(d.len(), 2, "init cwnd is 2 segments");
        assert_eq!(d[0], (0, MSS as u32));
        assert_eq!(d[1], (MSS, MSS as u32));
        assert!(out.contains(&FlowAction::ArmRto(f.current_rto())));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 100 * MSS, 1, &mut out);
        assert_eq!(datas(&out).len(), 2);
        out.clear();
        // ACK both segments: cwnd 2 -> 4, so 4 more segments flow.
        f.on_ack(t(10), MSS, &mut out);
        f.on_ack(t(10), 2 * MSS, &mut out);
        assert_eq!(datas(&out).len(), 4);
    }

    #[test]
    fn receiver_delivers_in_order_message() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 2 * MSS, 42, &mut out);
        out.clear();
        f.on_data(t(5), 0, MSS as u32, &mut out);
        assert!(!out.iter().any(|a| matches!(a, FlowAction::Deliver { .. })));
        assert!(out.contains(&FlowAction::SendAck { cum: MSS }));
        out.clear();
        f.on_data(t(6), MSS, MSS as u32, &mut out);
        assert!(out.contains(&FlowAction::Deliver { tag: 42 }));
        assert!(out.contains(&FlowAction::SendAck { cum: 2 * MSS }));
        assert_eq!(f.delivered_bytes(), 2 * MSS);
    }

    #[test]
    fn out_of_order_data_is_reassembled() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 3 * MSS, 9, &mut out);
        out.clear();
        // Segment 2 arrives first: duplicate ACK for 0.
        f.on_data(t(5), MSS, MSS as u32, &mut out);
        assert!(out.contains(&FlowAction::SendAck { cum: 0 }));
        out.clear();
        f.on_data(t(6), 0, MSS as u32, &mut out);
        // Both now in order.
        assert!(out.contains(&FlowAction::SendAck { cum: 2 * MSS }));
        out.clear();
        f.on_data(t(7), 2 * MSS, MSS as u32, &mut out);
        assert!(out.contains(&FlowAction::Deliver { tag: 9 }));
    }

    #[test]
    fn duplicate_data_reacked_not_redelivered() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), MSS, 5, &mut out);
        out.clear();
        f.on_data(t(5), 0, MSS as u32, &mut out);
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, FlowAction::Deliver { .. }))
                .count(),
            1
        );
        out.clear();
        f.on_data(t(6), 0, MSS as u32, &mut out);
        assert!(out.contains(&FlowAction::SendAck { cum: MSS }));
        assert!(!out.iter().any(|a| matches!(a, FlowAction::Deliver { .. })));
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 20 * MSS, 1, &mut out);
        // Grow the window a bit first.
        f.on_ack(t(10), MSS, &mut out);
        f.on_ack(t(11), 2 * MSS, &mut out);
        out.clear();
        // Now dup-ACK three times at 2*MSS.
        f.on_ack(t(20), 2 * MSS, &mut out);
        f.on_ack(t(21), 2 * MSS, &mut out);
        assert_eq!(datas(&out).len(), 0);
        f.on_ack(t(22), 2 * MSS, &mut out);
        let d = datas(&out);
        assert_eq!(d.len(), 1, "exactly the head segment is retransmitted");
        assert_eq!(d[0].0, 2 * MSS);
        assert_eq!(f.stats.fast_retransmits, 1);
        assert_eq!(f.stats.segments_retransmitted, 1);
    }

    #[test]
    fn recovery_exits_on_full_ack_and_deflates() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 40 * MSS, 1, &mut out);
        for i in 1..=8u64 {
            f.on_ack(t(i), i * MSS, &mut out);
        }
        let cwnd_before = f.cwnd_bytes();
        out.clear();
        for _ in 0..3 {
            f.on_ack(t(50), 8 * MSS, &mut out);
        }
        assert!(f.cwnd_bytes() < cwnd_before + 4 * MSS);
        let recover_point = 8 * MSS + f.flight_bytes();
        // Ack everything outstanding: recovery ends, cwnd = ssthresh.
        out.clear();
        f.on_ack(t(60), recover_point, &mut out);
        assert!(!f.in_recovery);
        assert!((f.cwnd - f.ssthresh).abs() < 1.0 + MSS as f64);
    }

    #[test]
    fn rto_backs_off_and_goes_back_n() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 10 * MSS, 1, &mut out);
        let rto0 = f.current_rto();
        out.clear();
        f.on_rto(t(1000), &mut out);
        let d = datas(&out);
        assert_eq!(d.len(), 1, "cwnd collapses to 1 MSS");
        assert_eq!(d[0].0, 0, "retransmission starts at snd_una");
        assert_eq!(f.current_rto(), rto0 * 2);
        assert_eq!(f.stats.rto_events, 1);
        out.clear();
        f.on_rto(t(3000), &mut out);
        assert_eq!(f.current_rto(), rto0 * 4);
        // Backoff is bounded.
        for i in 0..20 {
            f.on_rto(t(4000 + i), &mut out);
        }
        assert_eq!(f.current_rto(), FlowConfig::default().max_rto);
    }

    #[test]
    fn rtt_sample_sets_rto() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), MSS, 1, &mut out);
        out.clear();
        f.on_ack(t(100), MSS, &mut out); // 100 ms RTT
        let srtt = f.srtt().expect("sampled");
        assert!((srtt - 0.1).abs() < 1e-9);
        // RTO = srtt + max(4*rttvar, 1ms) = 0.1 + 0.2 = 0.3 s.
        assert_eq!(f.current_rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn min_rto_respected() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), MSS, 1, &mut out);
        out.clear();
        f.on_ack(t(1), MSS, &mut out); // 1 ms RTT
        assert_eq!(f.current_rto(), FlowConfig::default().min_rto);
    }

    #[test]
    fn drained_fires_once() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), MSS, 1, &mut out);
        out.clear();
        f.on_ack(t(10), MSS, &mut out);
        assert!(out.contains(&FlowAction::Drained));
        assert!(out.contains(&FlowAction::CancelRto));
        assert!(f.is_drained());
        out.clear();
        f.on_ack(t(11), MSS, &mut out);
        assert!(!out.contains(&FlowAction::Drained));
        // A new write re-arms the whole machinery.
        f.write(t(20), MSS, 2, &mut out);
        out.clear();
        f.on_ack(t(30), 2 * MSS, &mut out);
        assert!(out.contains(&FlowAction::Drained));
    }

    #[test]
    fn abort_silences_everything() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 10 * MSS, 1, &mut out);
        out.clear();
        f.abort(&mut out);
        assert!(out.contains(&FlowAction::CancelRto));
        assert!(f.is_aborted());
        out.clear();
        f.on_ack(t(10), MSS, &mut out);
        f.on_data(t(10), 0, MSS as u32, &mut out);
        f.on_rto(t(20), &mut out);
        f.write(t(30), MSS, 2, &mut out);
        assert!(out.is_empty());
        // Double-abort is a no-op.
        f.abort(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cwnd_capped_by_max() {
        let cfg = FlowConfig {
            max_cwnd_bytes: 8 * MSS,
            ..Default::default()
        };
        let mut f = Flow::new(FlowId(0), NodeId(0), NodeId(1), cfg);
        let mut out = Vec::new();
        f.write(t(0), 1000 * MSS, 1, &mut out);
        for i in 1..200u64 {
            f.on_ack(t(i), i * MSS, &mut out);
        }
        assert!(f.cwnd_bytes() <= 8 * MSS);
    }

    #[test]
    fn multiple_message_boundaries_deliver_in_order() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 100, 1, &mut out);
        f.write(t(0), 200, 2, &mut out);
        f.write(t(0), 300, 3, &mut out);
        out.clear();
        f.on_data(t(5), 0, 600, &mut out);
        let tags: Vec<u64> = out
            .iter()
            .filter_map(|a| match a {
                FlowAction::Deliver { tag } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn partial_message_not_delivered() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 1000, 1, &mut out);
        out.clear();
        f.on_data(t(5), 0, 999, &mut out);
        assert!(!out.iter().any(|a| matches!(a, FlowAction::Deliver { .. })));
        f.on_data(t(6), 999, 1, &mut out);
        assert!(out.contains(&FlowAction::Deliver { tag: 1 }));
    }

    #[test]
    fn ooo_coalescing_handles_overlaps() {
        let mut f = flow();
        let mut out = Vec::new();
        f.write(t(0), 10_000, 1, &mut out);
        out.clear();
        // Insert overlapping out-of-order ranges in nasty orders.
        f.on_data(t(1), 5000, 1000, &mut out); // [5000,6000)
        f.on_data(t(2), 4500, 600, &mut out); // [4500,5100) merges
        f.on_data(t(3), 6000, 500, &mut out); // [6000,6500) adjacent merges
        f.on_data(t(4), 100, 200, &mut out); // [100,300)
                                             // Fill the head: everything up to 6500 should complete.
        f.on_data(t(5), 0, 4500, &mut out);
        assert_eq!(f.delivered_bytes(), 6500);
    }
}

#[cfg(test)]
mod cubic_tests {
    use super::*;

    const MSS: u64 = 1460;

    fn cubic_flow() -> Flow {
        let cfg = FlowConfig {
            cc: CongestionControl::Cubic,
            ..FlowConfig::default()
        };
        Flow::new(FlowId(0), NodeId(0), NodeId(1), cfg)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Drive a flow through slow start into congestion avoidance by
    /// ACKing steadily, with one loss event to set ssthresh.
    fn into_avoidance(f: &mut Flow) -> u64 {
        let mut out = Vec::new();
        f.write(t(0), 10_000 * MSS, 1, &mut out);
        let mut acked = 0;
        for i in 1..=8u64 {
            acked = i * MSS;
            f.on_ack(t(i * 10), acked, &mut out);
        }
        // Trigger fast retransmit: cwnd collapses, epoch recorded.
        for _ in 0..3 {
            f.on_ack(t(100), acked, &mut out);
        }
        // Recover fully.
        let recover = acked + f.flight_bytes();
        f.on_ack(t(120), recover, &mut out);
        recover
    }

    #[test]
    fn cubic_recovers_and_keeps_transferring() {
        let mut f = cubic_flow();
        let mut acked = into_avoidance(&mut f);
        let mut out = Vec::new();
        for i in 0..200u64 {
            acked += MSS;
            f.on_ack(t(200 + i * 10), acked, &mut out);
        }
        assert!(f.cwnd_bytes() >= 2 * MSS);
        assert_eq!(f.acked_bytes(), acked);
    }

    #[test]
    fn cubic_growth_accelerates_past_the_plateau() {
        // After a congestion event the cubic curve is flat near W_max and
        // accelerates beyond it: the window gained in the second half of
        // an epoch exceeds the first half's gain (convex region), unlike
        // Reno's constant slope.
        let mut f = cubic_flow();
        let mut acked = into_avoidance(&mut f);
        let mut out = Vec::new();
        let w0 = f.cwnd_bytes();
        // First half: 5 simulated seconds of steady ACKs.
        for i in 0..500u64 {
            acked += MSS;
            f.on_ack(t(200 + i * 10), acked, &mut out);
        }
        let w1 = f.cwnd_bytes();
        // Second half: 5 more seconds.
        for i in 500..1000u64 {
            acked += MSS;
            f.on_ack(t(200 + i * 10), acked, &mut out);
        }
        let w2 = f.cwnd_bytes();
        let first_half = w1.saturating_sub(w0);
        let second_half = w2.saturating_sub(w1);
        assert!(
            second_half > first_half,
            "cubic should accelerate: {first_half} then {second_half}"
        );
    }

    #[test]
    fn cubic_beta_decrease_is_gentler_than_reno() {
        // Same loss pattern: CUBIC keeps 70% of the window, Reno 50%.
        let run = |cc: CongestionControl| {
            let cfg = FlowConfig {
                cc,
                ..FlowConfig::default()
            };
            let mut f = Flow::new(FlowId(0), NodeId(0), NodeId(1), cfg);
            let mut out = Vec::new();
            f.write(t(0), 10_000 * MSS, 1, &mut out);
            let mut acked = 0;
            for i in 1..=20u64 {
                acked = i * MSS;
                f.on_ack(t(i * 10), acked, &mut out);
            }
            let before = f.cwnd_bytes();
            for _ in 0..3 {
                f.on_ack(t(300), acked, &mut out);
            }
            let recover = acked + f.flight_bytes();
            f.on_ack(t(320), recover, &mut out);
            (before, f.cwnd_bytes())
        };
        let (reno_before, reno_after) = run(CongestionControl::Reno);
        let (cubic_before, cubic_after) = run(CongestionControl::Cubic);
        let reno_ratio = reno_after as f64 / reno_before as f64;
        let cubic_ratio = cubic_after as f64 / cubic_before as f64;
        assert!(
            cubic_ratio > reno_ratio,
            "cubic β=0.7 should retain more window: {cubic_ratio} vs {reno_ratio}"
        );
        assert!((0.6..=0.8).contains(&cubic_ratio), "{cubic_ratio}");
    }

    #[test]
    fn default_is_reno() {
        assert_eq!(FlowConfig::default().cc, CongestionControl::Reno);
    }
}
