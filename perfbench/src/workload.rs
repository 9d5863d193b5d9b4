//! The benchmark's workloads: registry entries run through the same
//! library path as `speakup run <entry> --json`, the fidelity rows each
//! one plots, and the output checks that decide whether a repetition
//! counts as failed.

use crate::replay::{auction, cohort, digest, event, link, tcp, Shapes};
use speakup_exp::driver::EntryRun;
use speakup_exp::registry::{RunOptions, FAULT_GOODPUT_BAND};
use speakup_exp::scenario::{ClientSpec, Mode, Scenario};
use speakup_exp::RunReport;
use speakup_net::link::LinkConfig;
use speakup_net::tcp::FlowConfig;
use speakup_net::time::SimDuration;

/// Which rows of a workload's figure `share_gap` averages over.
#[derive(Clone, Copy, Debug)]
pub enum Rows {
    /// Every auction run's good-client share against its scenario's
    /// `G/(G+B)`.
    AuctionRuns,
    /// Every run's five RTT classes (10 clients each) against 1/5.
    RttClasses,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The registry entry it runs.
    pub entry: &'static str,
    /// Simulated duration of every run of the entry.
    pub duration: SimDuration,
    /// The fidelity rows.
    pub rows: Rows,
    /// How the workload uses the event queue. Neither the pending-set
    /// size nor the delay mix is visible from outside the program, so
    /// this shape is an estimate; every other replay parameter is
    /// derived from a run (see [`Workload::derive`]).
    pub event: event::Shape,
}

/// Transmission of a 1500-byte segment at 1 Gbit/s, an access-link
/// propagation delay, a 1500-byte segment at 2 Mbit/s: the LAN delay mix
/// of fig2-shaped topologies.
const LAN_DELAYS: [event::DelayClass; 7] = [
    delay(25, 10_000, 14_000, false),        // hub-link serialization
    delay(25, 450_000, 550_000, false),      // access propagation
    delay(10, 90_000, 110_000, false),       // hub propagation
    delay(8, 5_500_000, 6_500_000, false),   // access-link data segment
    delay(4, 150_000, 170_000, false),       // access-link ACK
    delay(5, 1_000_000, 100_000_000, false), // arrival timers
    delay(23, 200_000_000, 1_000_000_000, true), // RTO re-arms
];

/// fig7's RTT classes put 50–250 ms of one-way propagation on most
/// packet events, which lands them in the wheel's upper levels.
const RTT_DELAYS: [event::DelayClass; 7] = [
    delay(15, 10_000, 14_000, false),
    delay(40, 50_000_000, 250_000_000, false),
    delay(5, 90_000, 110_000, false),
    delay(10, 5_500_000, 6_500_000, false),
    delay(5, 150_000, 170_000, false),
    delay(5, 1_000_000, 100_000_000, false),
    delay(20, 300_000_000, 2_000_000_000, true),
];

/// The LAN mix plus the replicas' 10–100 ms digest-sync control lane.
const SYNC_DELAYS: [event::DelayClass; 8] = [
    delay(25, 10_000, 14_000, false),
    delay(25, 450_000, 550_000, false),
    delay(10, 90_000, 110_000, false),
    delay(8, 5_500_000, 6_500_000, false),
    delay(4, 150_000, 170_000, false),
    delay(5, 1_000_000, 100_000_000, false),
    delay(21, 200_000_000, 1_000_000_000, true),
    delay(2, 10_000_000, 100_000_000, false),
];

const fn delay(weight: u32, lo_ns: u64, hi_ns: u64, timer: bool) -> event::DelayClass {
    event::DelayClass {
        weight,
        lo_ns,
        hi_ns,
        timer,
    }
}

/// Pops in one event-replay pass.
const EVENT_POPS: usize = 400_000;
/// Packets offered in one link-replay pass.
const LINK_PACKETS: usize = 400_000;
/// Messages sent in one transport-replay pass.
const TCP_MESSAGES: usize = 200;
/// Server completions in one auction-replay pass.
const AUCTION_ADMISSIONS: usize = 5_000;
/// Digest publishes in one digest-replay pass.
const DIGEST_PUBLISHES: usize = 40_000;
/// Tracker operations in one cohort-replay pass.
const COHORT_OPS: usize = 400_000;

/// Every workload, in the order the docs list them.
pub const WORKLOADS: [Workload; 4] = [
    // The headline figure: 5 f values × {auction, off}, 50 LAN clients
    // at c = 100. Its runs are uneven, so the pool's packing moves
    // wall_s here and nowhere else.
    Workload {
        name: "fig2_sweep",
        entry: "fig2",
        duration: SimDuration::from_secs(40),
        rows: Rows::AuctionRuns,
        event: event::Shape {
            pending: 1_500,
            timers: 600,
            delays: &LAN_DELAYS,
            pops: EVENT_POPS,
        },
    },
    // 10^5 clients as 100 foreground clients + 100 cohorts × 999 at
    // f = 0.5 and c = 2 × 10^5: cohort agents and a crowded auction
    // dominate, and the working set far exceeds the caches.
    Workload {
        name: "fig2_xl",
        entry: "fig2_xl",
        duration: SimDuration::from_millis(100),
        rows: Rows::AuctionRuns,
        event: event::Shape {
            pending: 50_000,
            timers: 20_000,
            delays: &LAN_DELAYS,
            pops: EVENT_POPS,
        },
    },
    // fig7's all-good and all-bad runs over 5 RTT classes (100–500 ms)
    // at c = 10: queue, links and TCP do nearly all the work and the
    // thinner sees ~0.15% of callbacks, so an auction change should not
    // move it.
    Workload {
        name: "fig7_rtt",
        entry: "fig7",
        duration: SimDuration::from_secs(20),
        rows: Rows::RttClasses,
        event: event::Shape {
            pending: 5_000,
            timers: 1_000,
            delays: &RTT_DELAYS,
            pops: EVENT_POPS,
        },
    },
    // R = 4 replicas × sync {10, 100} ms, crash-free baselines plus a
    // replica crash at 15 s and at 30 s (10 s each): digest control
    // packets, fault lanes and failover load the thinner layer
    // differently from fig2. 45 s contains both outage windows.
    Workload {
        name: "fig2_faults",
        entry: "fig2_faults",
        duration: SimDuration::from_secs(45),
        rows: Rows::AuctionRuns,
        event: event::Shape {
            pending: 2_000,
            timers: 600,
            delays: &SYNC_DELAYS,
            pops: EVENT_POPS,
        },
    },
];

/// Where a replay parameter's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Computed from the run's `RunReport`s.
    Report,
    /// Read from the built `Scenario`s or a library default.
    Scenario,
    /// Not observable from outside the program: a guess.
    Estimate,
}

impl Source {
    /// Short label for the parameter table.
    pub fn label(self) -> &'static str {
        match self {
            Source::Report => "report",
            Source::Scenario => "scenario",
            Source::Estimate => "estimate (unverified)",
        }
    }
}

/// One replay parameter and where it came from.
#[derive(Clone, Debug)]
pub struct Param {
    /// `<layer>.<parameter>`.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Where the value comes from.
    pub source: Source,
}

/// Replay shapes and outside-visible layer counts, derived from one run
/// of a workload's entry.
#[derive(Clone, Debug)]
pub struct Derived {
    /// The replays' parameters.
    pub shapes: Shapes,
    /// Every parameter, with its provenance, for the parameter table.
    pub params: Vec<Param>,
    /// Payment data segments the thinners received (payment bytes ÷ MSS).
    pub segments: f64,
    /// Link transmissions per payment segment: the segment and its ACK
    /// each cross every link of the client–thinner path.
    pub link_ops_per_segment: f64,
    /// Digest merges: every replica merges every peer's digest once per
    /// sync period.
    pub merges: f64,
}

impl Workload {
    /// Derives the replay shapes from `run`, one run of this workload's
    /// entry. Parameters the reports or scenarios give are computed from
    /// them; the rest are estimates and are labelled so. The digest shape
    /// is present only when some run has several thinner replicas, the
    /// cohort shape only when some run has cohorts.
    pub fn derive(&self, run: &EntryRun) -> Derived {
        let mut params = Vec::new();
        let mut note = |name, value: f64, source| {
            params.push(Param {
                name,
                value,
                source,
            });
            value
        };
        let runs: Vec<(&Scenario, &RunReport)> = run.scenarios.iter().zip(&run.reports).collect();
        let mss = f64::from(FlowConfig::default().mss);
        let segments_of = |r: &RunReport| r.payment_bytes_total as f64 / mss;
        let segments: f64 = runs.iter().map(|(_, r)| segments_of(r)).sum();
        let clients: Vec<&ClientSpec> = run
            .scenarios
            .iter()
            .flat_map(|sc| sc.clients.iter().chain(sc.cohorts.iter().map(|c| &c.spec)))
            .collect();
        let mean_client = |f: &dyn Fn(&ClientSpec) -> f64| {
            clients.iter().map(|c| f(c)).sum::<f64>() / clients.len().max(1) as f64
        };
        let hub_wire = run
            .scenarios
            .first()
            .map_or(SimDuration::ZERO, |sc| sc.hub_link.delay);

        // Auction: payments per admission, the gap between payments at
        // one replica, and the contenders come from the reports.
        let auction_runs: Vec<_> = runs
            .iter()
            .filter(|(sc, _)| sc.mode == Mode::Auction)
            .collect();
        let auction_segments: f64 = auction_runs.iter().map(|(_, r)| segments_of(r)).sum();
        let admissions: u64 = auction_runs
            .iter()
            .map(|(_, r)| r.allocation.good + r.allocation.bad)
            .sum();
        let replica_secs: f64 = auction_runs
            .iter()
            .map(|(sc, _)| sc.duration.as_secs_f64() * f64::from(sc.thinners.max(1)))
            .sum();
        // Requests issued but neither served nor dropped were still
        // contending when the run ended; the clients' request windows
        // bound them.
        let contenders: f64 = auction_runs
            .iter()
            .map(|(sc, r)| {
                let singles: u64 = sc.clients.iter().map(|c| u64::from(c.profile.window)).sum();
                let crowds: u64 = sc
                    .cohorts
                    .iter()
                    .map(|c| u64::from(c.spec.profile.window) * u64::from(c.members))
                    .sum();
                let open = (r.good.issued + r.bad.issued)
                    .saturating_sub(r.allocation.good + r.allocation.bad + r.thinner_drops);
                open.min(singles + crowds) as f64 / f64::from(sc.thinners.max(1))
            })
            .sum::<f64>()
            / auction_runs.len().max(1) as f64;
        let auction = auction::Shape {
            contenders: note(
                "auction.contenders",
                contenders.round().max(2.0),
                Source::Report,
            ) as u32,
            payments_per_admission: note(
                "auction.payments_per_admission",
                (auction_segments / admissions.max(1) as f64)
                    .round()
                    .max(1.0),
                Source::Report,
            ) as u32,
            payment_gap_ns: note(
                "auction.payment_gap_ns",
                (replica_secs * 1e9 / auction_segments.max(1.0)).round(),
                Source::Report,
            ) as u64,
            admissions: AUCTION_ADMISSIONS,
        };

        // Links: a client's access uplink, from the scenarios and the
        // library's default queue.
        let rate_bps = mean_client(&|c| c.access_bps as f64).round() as u64;
        let leaf_delay_us = mean_client(&|c| c.access_delay.min(hub_wire).as_nanos() as f64) / 1e3;
        let queue_bytes = LinkConfig::new(rate_bps, hub_wire).queue_bytes;
        let link = link::Shape {
            rate_bps: note("link.rate_bps", rate_bps as f64, Source::Scenario) as u64,
            delay_us: note("link.delay_us", leaf_delay_us.round(), Source::Scenario) as u64,
            queue_packets: note(
                "link.queue_packets",
                (queue_bytes / 1500) as f64,
                Source::Scenario,
            ) as u64,
            data_pct: note("link.data_pct", 90.0, Source::Estimate) as u32,
            max_burst: note("link.max_burst", 40.0, Source::Estimate) as u32,
            packets: LINK_PACKETS,
        };
        // Grouped clients cross a leaf and an aggregation link; clients
        // behind the shared bottleneck cross it and the hub link too.
        let link_ops_per_segment = note(
            "link.ops_per_segment",
            mean_client(&|c| if c.behind_bottleneck { 6.0 } else { 4.0 }),
            Source::Scenario,
        );

        // Transport: payment POSTs over the clients' round trip; the
        // window ceiling the path's queue imposes is a guess.
        let tcp = tcp::Shape {
            message_bytes: note(
                "tcp.message_bytes",
                mean_client(&|c| c.profile.post_bytes as f64).round(),
                Source::Scenario,
            ) as u64,
            max_cwnd_bytes: note("tcp.max_cwnd_bytes", queue_bytes as f64, Source::Estimate) as u64,
            rtt_us: note(
                "tcp.rtt_us",
                (mean_client(&|c| 2.0 * (c.access_delay + hub_wire).as_nanos() as f64) / 1e3)
                    .round(),
                Source::Scenario,
            ) as u64,
            messages: TCP_MESSAGES,
        };

        // Digests: replica count and sync cadence from the scenarios,
        // payments folded into each publish from the reports.
        let replicated: Vec<_> = runs.iter().filter(|(sc, _)| sc.thinners > 1).collect();
        let publishes_of = |sc: &Scenario| {
            f64::from(sc.thinners) * sc.duration.as_secs_f64() / sc.sync_period.as_secs_f64()
        };
        let merges: f64 = replicated
            .iter()
            .map(|(sc, _)| publishes_of(sc) * f64::from(sc.thinners - 1))
            .sum();
        let digest = (!replicated.is_empty()).then(|| {
            let publishes: f64 = replicated.iter().map(|(sc, _)| publishes_of(sc)).sum();
            let segs: f64 = replicated.iter().map(|(_, r)| segments_of(r)).sum();
            digest::Shape {
                replicas: note(
                    "digest.replicas",
                    f64::from(
                        replicated
                            .iter()
                            .map(|(sc, _)| sc.thinners)
                            .max()
                            .unwrap_or(2),
                    ),
                    Source::Scenario,
                ) as u32,
                payments_per_sync: note(
                    "digest.payments_per_sync",
                    (segs / publishes).round().max(1.0),
                    Source::Report,
                ) as u32,
                publishes: DIGEST_PUBLISHES,
            }
        });

        // Cohorts: size and profile from the scenarios; the share of
        // tracker calls that serve a request from the class reports.
        let cohort = run
            .scenarios
            .iter()
            .flat_map(|sc| sc.cohorts.first())
            .next()
            .map(|c| {
                let bad = c.spec.profile.is_bad;
                let (served, generated) = runs.iter().fold((0, 0), |(s, g), (_, r)| {
                    let class = if bad { &r.bad } else { &r.good };
                    (s + class.served, g + class.generated)
                });
                cohort::Shape {
                    members: note("cohort.members", f64::from(c.members), Source::Scenario) as u32,
                    bad,
                    serve_pct: note(
                        "cohort.serve_pct",
                        (100.0 * served as f64 / (served + generated).max(1) as f64).round(),
                        Source::Report,
                    ) as u32,
                    ops: COHORT_OPS,
                }
            });

        note("event.pending", self.event.pending as f64, Source::Estimate);
        note(
            "event.timers",
            f64::from(self.event.timers),
            Source::Estimate,
        );
        note(
            "event.delay_classes",
            self.event.delays.len() as f64,
            Source::Estimate,
        );
        Derived {
            shapes: Shapes {
                event: self.event,
                link,
                tcp,
                auction,
                digest,
                cohort,
            },
            params,
            segments,
            link_ops_per_segment,
            merges,
        }
    }
}

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Worker pool size: one per logical core, as `speakup run` sizes it.
pub fn jobs() -> usize {
    speakup_exp::runner::default_jobs(1)
}

impl Workload {
    /// The `speakup run <entry> --secs .. --seed <seed> --shards 1`
    /// options for this workload.
    pub fn options(&self, seed: u64) -> RunOptions {
        RunOptions {
            duration: Some(self.duration),
            seed,
            jobs: Some(jobs()),
            shards: 1,
            ..RunOptions::default()
        }
    }

    /// Mean |observed − ideal| good-client share over the rows the
    /// figure plots.
    pub fn share_gap(&self, run: &EntryRun) -> f64 {
        let mut gaps = Vec::new();
        for (sc, r) in run.scenarios.iter().zip(&run.reports) {
            match self.rows {
                Rows::AuctionRuns => {
                    if sc.mode == Mode::Auction {
                        gaps.push((r.good_fraction() - sc.ideal_good_share()).abs());
                    }
                }
                Rows::RttClasses => {
                    gaps.extend(rtt_class_shares(r).iter().map(|s| (s - 0.2).abs()));
                }
            }
        }
        mean(&gaps)
    }

    /// Output checks beyond determinism; one message per failure.
    pub fn check(&self, run: &EntryRun) -> Vec<String> {
        let mut failures = Vec::new();
        for r in &run.reports {
            let boxed = boxed_calls(r);
            if boxed != 0 {
                failures.push(format!("{}: {boxed} boxed dispatches", r.name));
            }
        }
        if self.entry == "fig2" {
            failures.extend(speakup_beats_no_defense(run));
        }
        if self.entry == "fig2_faults" {
            failures.extend(outage_within_band(run));
        }
        failures
    }
}

/// `RunReport::good_served_fraction` averaged over the auction runs
/// that have good clients (fig7's all-bad run has none).
pub fn good_served_frac(run: &EntryRun) -> f64 {
    let fracs: Vec<f64> = run
        .scenarios
        .iter()
        .zip(&run.reports)
        .filter(|(sc, r)| sc.mode == Mode::Auction && r.good.clients > 0)
        .map(|(_, r)| r.good_served_fraction())
        .collect();
    mean(&fracs)
}

/// Events the app-dispatch fallback handled (must be 0).
pub fn boxed_calls(r: &RunReport) -> u64 {
    dispatch(r, "boxed")
}

/// Events dispatched to one agent variant.
pub fn dispatch(r: &RunReport, variant: &str) -> u64 {
    r.dispatch_counts
        .iter()
        .find(|(n, _)| *n == variant)
        .map_or(0, |&(_, c)| c)
}

/// Served share of each 10-client RTT class (fig7's row order).
fn rtt_class_shares(r: &RunReport) -> [f64; 5] {
    let mut served = [0u64; 5];
    for (i, pc) in r.per_client.iter().enumerate() {
        served[(i / 10).min(4)] += pc.served;
    }
    let total = served.iter().sum::<u64>().max(1) as f64;
    served.map(|s| s as f64 / total)
}

/// fig2: at every f, speak-up's good-client share beats the no-defense
/// share.
fn speakup_beats_no_defense(run: &EntryRun) -> Vec<String> {
    let runs: Vec<_> = run.scenarios.iter().zip(&run.reports).collect();
    let mut failures = Vec::new();
    for (off_sc, off) in runs.iter().filter(|(sc, _)| sc.mode == Mode::Off) {
        let f = off_sc.ideal_good_share();
        match runs
            .iter()
            .find(|(sc, _)| sc.mode == Mode::Auction && sc.ideal_good_share() == f)
        {
            Some((_, with)) if with.good_fraction() > off.good_fraction() => {}
            Some((_, with)) => failures.push(format!(
                "fig2 f={f:.1}: speak-up share {:.4} not above no-defense {:.4}",
                with.good_fraction(),
                off.good_fraction()
            )),
            None => failures.push(format!("fig2 f={f:.1}: no speak-up point")),
        }
    }
    failures
}

/// fig2_faults: each crashed run's outage-window share stays within
/// `FAULT_GOODPUT_BAND` of the crash-free baseline at the same sync
/// period.
fn outage_within_band(run: &EntryRun) -> Vec<String> {
    let mut failures = Vec::new();
    for r in &run.reports {
        let Some(f) = &r.failover else { continue };
        let Some(base) = run
            .reports
            .iter()
            .find(|b| b.failover.is_none() && b.sync_period == r.sync_period)
        else {
            failures.push(format!("{}: no crash-free baseline", r.name));
            continue;
        };
        let delta = (f.outage_good_fraction() - base.good_fraction()).abs();
        if delta > FAULT_GOODPUT_BAND {
            failures.push(format!(
                "{}: outage share {:.4} is {delta:.4} from baseline {:.4} (band {FAULT_GOODPUT_BAND})",
                r.name,
                f.outage_good_fraction(),
                base.good_fraction()
            ));
        }
    }
    failures
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
