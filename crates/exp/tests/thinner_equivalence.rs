//! Differential battery for replicated thinners.
//!
//! One determinism obligation and one fidelity obligation:
//!
//! 1. `--thinners 1` is the classic engine, byte for byte: for each of
//!    the four golden workloads, an explicit single-replica run must
//!    serialize identically to the unmodified scenario.
//! 2. Fairness regression: the replicated auction's good-client
//!    allocation must stay within the committed band of the R = 1
//!    baseline on the fig2_replicated grid.

use speakup_exp::driver::report_json;
use speakup_exp::registry::{find, FAIRNESS_BAND};
use speakup_exp::runner::{run, RunReport};
use speakup_exp::scenario::{Mode, Scenario};
use speakup_exp::scenarios;
use speakup_net::time::SimDuration;

/// The deterministic payload of one run, as the bytes `speakup run
/// --json` would emit for it.
fn payload(r: &RunReport) -> String {
    report_json(r).pretty()
}

/// One representative scenario per committed golden workload, shortened
/// so the battery stays test-suite sized.
fn golden_workloads() -> Vec<Scenario> {
    vec![
        scenarios::fig2(0.5, Mode::Auction).duration(SimDuration::from_secs(3)),
        scenarios::fig6().duration(SimDuration::from_secs(3)),
        scenarios::fig7(false).duration(SimDuration::from_secs(3)),
        scenarios::flash_crowd(Mode::Auction).duration(SimDuration::from_secs(3)),
    ]
}

#[test]
fn single_replica_is_byte_identical_to_the_classic_engine() {
    for sc in golden_workloads() {
        let classic = payload(&run(&sc));
        let explicit = payload(&run(&sc.clone().thinners(1)));
        assert_eq!(
            classic, explicit,
            "{}: --thinners 1 diverged from the classic engine",
            sc.name
        );
    }
}

#[test]
fn replica_payloads_change_behavior_only_above_one() {
    // Control for test 1's sensitivity: the battery would be vacuous if
    // the serialization ignored what the replicas do. R=2 must actually
    // move at least one checked field vs R=1 on the same scenario.
    let sc = scenarios::fig2(0.5, Mode::Auction).duration(SimDuration::from_secs(3));
    let one = payload(&run(&sc));
    let two = payload(&run(&sc
        .clone()
        .thinners(2)
        .sync_period(SimDuration::from_millis(10))));
    assert_ne!(one, two, "R=2 serialized identically to R=1");
}

#[test]
fn fairness_stays_within_the_committed_band() {
    // The fig2_replicated grid at a CI-sized duration: every replicated
    // point's good-client allocation within FAIRNESS_BAND of R=1. The
    // committed golden records the same band (fairness.band), which
    // `speakup compare` then checks structurally.
    let entry = find("fig2_replicated").expect("registered entry");
    let grid = entry.build_grid();
    let reports: Vec<RunReport> = grid
        .iter()
        .map(|sc| run(&sc.clone().duration(SimDuration::from_secs(10))))
        .collect();
    let baseline = reports
        .iter()
        .find(|r| r.thinners == 1)
        .expect("R=1 baseline in the grid")
        .good_fraction();
    for r in &reports {
        let delta = (r.good_fraction() - baseline).abs();
        assert!(
            delta <= FAIRNESS_BAND,
            "{}: good allocation {:.3} drifted {delta:.3} from the R=1 \
             baseline {baseline:.3} (band {FAIRNESS_BAND})",
            r.name,
            r.good_fraction()
        );
    }
}
