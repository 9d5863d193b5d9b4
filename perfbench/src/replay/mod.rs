//! Outside-in layer replays.
//!
//! Each replay drives one layer's public API with a synthetic operation
//! stream shaped like a workload's use of that layer (delay mix, queue
//! occupancy, window size, contender count, replica count, cohort size),
//! generated from a seed before timing starts. A pass replays the whole
//! stream from fresh layer state and returns the operation count and a
//! checksum over everything the layer returned, so a pass doubles as a
//! determinism check: the same script must give the same checksum on
//! every pass.
//!
//! The replays time the layers from outside, through their `pub`
//! functions only. They stand in for per-layer counters inside the
//! simulator, which do not exist yet. The shapes are derived from a run
//! of the workload where its reports and scenarios show them
//! (`Workload::derive`); the rest, such as the event queue's pending-set
//! size and delay mix, are estimates and are labelled as such.

pub mod auction;
pub mod cohort;
pub mod digest;
pub mod event;
pub mod link;
pub mod tcp;

/// What one pass over a replay script did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pass {
    /// Layer operations performed (the denominator of ns/op).
    pub ops: u64,
    /// Order-sensitive digest of every value the layer returned.
    pub checksum: u64,
}

/// A generated operation stream that can be replayed from fresh state.
pub trait Replay {
    /// Replay the whole script once.
    fn pass(&self) -> Pass;
}

/// Folds `v` into an order-sensitive checksum (FNV-1a style).
#[inline]
pub(crate) fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// Checksum seed: the FNV-1a offset basis.
pub(crate) const CHECKSUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// How a workload uses each layer; the replays take their parameters
/// from here.
#[derive(Clone, Copy, Debug)]
pub struct Shapes {
    /// Event-queue shape.
    pub event: event::Shape,
    /// Link shape.
    pub link: link::Shape,
    /// Transport shape.
    pub tcp: tcp::Shape,
    /// Auction shape.
    pub auction: auction::Shape,
    /// Digest-exchange shape, when the workload runs thinner replicas.
    pub digest: Option<digest::Shape>,
    /// Cohort shape, when the workload runs cohorts.
    pub cohort: Option<cohort::Shape>,
}
