//! The thinner: speak-up's server front-end (§3).
//!
//! The thinner implements the three mechanisms any speak-up realization
//! needs (§3.1):
//!
//! 1. a **rate limit** — at most one request executes at a time, so the
//!    server sees load `c`;
//! 2. **encouragement** — causing clients to send more traffic than they
//!    would if the server were unattacked;
//! 3. a **proportional allocation** mechanism — admitting clients at rates
//!    proportional to delivered bandwidth.
//!
//! Four interchangeable front ends implement the [`FrontEnd`] trait:
//!
//! | variant | paper | encouragement | allocation |
//! |---|---|---|---|
//! | [`NoDefense`] | baseline | none | random drop when busy |
//! | [`ProfileFrontEnd`] | §8.1 comparator | none | per-identity rate limiting (detect-and-block) |
//! | [`RetryFrontEnd`] | §3.2 | please-retry signal | random admission at rate-matched probability `p`; price emerges as `r = 1/p` retries |
//! | [`AuctionFrontEnd`] | §3.3 | payment channel of dummy bytes | virtual auction: admit the highest-paying contender |
//! | [`QuantumFrontEnd`] | §5 | on-going payment channel | per-quantum auctions with SUSPEND/RESUME/ABORT |
//!
//! All front ends are pure state machines over [`Directive`]s — see
//! [`crate::types`].

mod auction;
mod digest;
mod none;
mod profile;
mod quantum;
mod retry;

pub use auction::{AuctionConfig, AuctionFrontEnd, AuctionStats};
pub use digest::{
    merged_expiry_horizon, paid_bracket, BidDigest, DigestBoard, RemoteView, DIGEST_WORDS,
    PAID_BRACKETS,
};
pub use none::{NoDefense, NoDefenseStats};
pub use profile::{ProfileConfig, ProfileFrontEnd, ProfileStats};
pub use quantum::{QuantumConfig, QuantumFrontEnd, QuantumStats};
pub use retry::{RetryConfig, RetryFrontEnd, RetryStats};

use crate::types::{Directive, RequestKey};
use speakup_net::time::SimTime;

/// The uniform event interface every thinner front end implements.
///
/// The driver (simulator harness, real proxy, or test) feeds events in and
/// executes the returned [`Directive`]s. Front ends track server busyness
/// themselves: a request is "on the server" from the `Admit` directive
/// until the driver calls [`FrontEnd::on_server_done`] for it. `Send` is
/// a supertrait so the simulator's thinner application, which boxes its
/// front end, meets the simulator's `Send` bound on apps.
pub trait FrontEnd: Send {
    /// A new request arrived from a client.
    fn on_request(&mut self, now: SimTime, req: RequestKey, out: &mut Vec<Directive>);

    /// `bytes` new payment bytes arrived on the channel associated with
    /// `req` (delta, not cumulative). For the retry front end, each retry
    /// is reported as one payment event with the retry's byte size.
    fn on_payment(&mut self, now: SimTime, req: RequestKey, bytes: u64, out: &mut Vec<Directive>);

    /// The server finished executing `req`.
    fn on_server_done(&mut self, now: SimTime, req: RequestKey, out: &mut Vec<Directive>);

    /// The client abandoned `req` (closed its channel / disconnected).
    fn on_cancel(&mut self, now: SimTime, req: RequestKey, out: &mut Vec<Directive>);

    /// Housekeeping (channel timeouts, quantum auctions). Returns the time
    /// at which the driver must call `on_tick` again, if any.
    fn on_tick(&mut self, now: SimTime, out: &mut Vec<Directive>) -> Option<SimTime>;

    /// The hosting node crashed and restarted at `now`: drop all
    /// in-flight request state (contenders, queues, rate estimates) as a
    /// freshly started process would. Configuration, RNG streams, and
    /// cumulative counters survive — counters are the harness's
    /// measurement apparatus, not process memory, and continuing the RNG
    /// stream keeps the run a pure function of its seed.
    fn reset(&mut self, now: SimTime);

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The going rate (§3.3): the winning bid of the most recent auction,
    /// in bytes. Zero when the server is unloaded. Fronts without a
    /// meaningful price return `None`.
    fn going_rate(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::types::{ClientId, RequestId};

    pub fn key(c: u32, r: u64) -> RequestKey {
        RequestKey::new(ClientId(c), RequestId(r))
    }

    pub fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Extract the requests admitted in an action list, in order.
    pub fn admitted(out: &[Directive]) -> Vec<RequestKey> {
        out.iter()
            .filter_map(|d| match d {
                Directive::Admit(k) => Some(*k),
                _ => None,
            })
            .collect()
    }

    pub fn dropped(out: &[Directive]) -> Vec<RequestKey> {
        out.iter()
            .filter_map(|d| match d {
                Directive::Drop(k) => Some(*k),
                _ => None,
            })
            .collect()
    }

    pub fn encouraged(out: &[Directive]) -> Vec<RequestKey> {
        out.iter()
            .filter_map(|d| match d {
                Directive::Encourage(k) => Some(*k),
                _ => None,
            })
            .collect()
    }
}
