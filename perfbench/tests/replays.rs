//! The layer replays are deterministic: a seed fixes the operation
//! stream, every pass over a stream returns the same checksum, and the
//! event replay pops exactly what the binary-heap oracle pops.
//!
//! Each workload's shapes are derived from a short run of its entry
//! and shrunk to test size; only the operation counts change, not the
//! mix.

use speakup_exp::driver;
use speakup_exp::registry;
use speakup_net::time::SimDuration;
use speakup_perfbench::replay::{auction, cohort, digest, event, link, tcp, Replay, Shapes};
use speakup_perfbench::workload::{Source, Workload, WORKLOADS};

const SEEDS: [u64; 2] = [0x5ea4, 0x2006];

/// The workload's replay shapes, derived from a run of its entry
/// shortened to `secs` simulated seconds.
fn derived(w: &Workload, secs: f64) -> speakup_perfbench::workload::Derived {
    let mut opts = w.options(SEEDS[0]);
    opts.duration = Some(SimDuration::from_secs_f64(secs));
    let entry = registry::find(w.entry).expect("every workload names a registry entry");
    w.derive(&driver::execute(entry, &opts))
}

/// Simulated seconds for a test run: enough for payments to flow, and
/// short for the 10^5-client workload.
fn test_secs(w: &Workload) -> f64 {
    if w.name == "fig2_xl" {
        0.01
    } else {
        2.0
    }
}

fn small_event(e: &event::Shape) -> event::Shape {
    event::Shape {
        pops: 20_000,
        pending: e.pending.min(5_000),
        ..*e
    }
}

fn small(s: &Shapes) -> Shapes {
    Shapes {
        event: small_event(&s.event),
        link: link::Shape {
            packets: 20_000,
            ..s.link
        },
        tcp: tcp::Shape {
            messages: 6,
            ..s.tcp
        },
        auction: auction::Shape {
            admissions: 50,
            contenders: s.auction.contenders.min(2_000),
            ..s.auction
        },
        digest: s.digest.map(|d| digest::Shape {
            publishes: 2_000,
            ..d
        }),
        cohort: s.cohort.map(|c| cohort::Shape { ops: 20_000, ..c }),
    }
}

/// The same seed gives the same script and the same checksum on every
/// pass; another seed gives another script.
fn check_replay<S: Replay + PartialEq + std::fmt::Debug>(name: &str, make: impl Fn(u64) -> S) {
    let a = make(SEEDS[0]);
    assert_eq!(
        a,
        make(SEEDS[0]),
        "{name}: script not deterministic for its seed"
    );
    assert_ne!(a, make(SEEDS[1]), "{name}: seed does not change the script");
    let first = a.pass();
    assert!(first.ops > 0, "{name}: replay did no work");
    for _ in 0..3 {
        assert_eq!(a.pass(), first, "{name}: checksum changed between passes");
    }
    assert_ne!(
        make(SEEDS[1]).pass().checksum,
        first.checksum,
        "{name}: checksum blind to the script"
    );
}

#[test]
fn every_replay_is_deterministic_for_every_workload() {
    for w in &WORKLOADS {
        let s = small(&derived(w, test_secs(w)).shapes);
        check_replay(&format!("{} event", w.name), |seed| {
            event::script(&s.event, seed)
        });
        check_replay(&format!("{} link", w.name), |seed| {
            link::script(&s.link, seed)
        });
        check_replay(&format!("{} tcp", w.name), |seed| tcp::script(&s.tcp, seed));
        check_replay(&format!("{} auction", w.name), |seed| {
            auction::script(&s.auction, seed)
        });
        if let Some(d) = &s.digest {
            check_replay(&format!("{} digest", w.name), |seed| {
                digest::script(d, seed)
            });
        }
        if let Some(c) = &s.cohort {
            check_replay(&format!("{} cohort", w.name), |seed| {
                cohort::script(c, seed)
            });
        }
    }
}

#[test]
fn event_replay_pops_what_the_heap_oracle_pops() {
    for w in &WORKLOADS {
        let s = small_event(&w.event);
        for seed in SEEDS {
            let script = event::script(&s, seed);
            let wheel = script.pops(false);
            assert_eq!(wheel.len(), s.pops, "{}: every pop finds an event", w.name);
            assert_eq!(
                wheel,
                script.pops(true),
                "{}: wheel and heap disagree",
                w.name
            );
        }
    }
}

/// Digest and cohort shapes exist exactly where the workload runs
/// replicas or cohorts, and the parameters the reports give are labelled
/// as coming from them.
#[test]
fn derived_shapes_follow_the_workload() {
    for w in &WORKLOADS {
        let d = derived(w, test_secs(w));
        assert_eq!(
            d.shapes.digest.is_some(),
            w.name == "fig2_faults",
            "{}: digest shape",
            w.name
        );
        assert_eq!(
            d.shapes.cohort.is_some(),
            w.name == "fig2_xl",
            "{}: cohort shape",
            w.name
        );
        let source = |name: &str| {
            d.params
                .iter()
                .find(|p| p.name == name)
                .map(|p| p.source)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name))
        };
        assert_eq!(source("auction.payments_per_admission"), Source::Report);
        assert_eq!(source("auction.payment_gap_ns"), Source::Report);
        assert_eq!(source("event.pending"), Source::Estimate);
        assert_eq!(d.link_ops_per_segment, 4.0, "{}: LAN path", w.name);
        if w.name != "fig2_xl" {
            assert!(d.segments > 0.0, "{}: payments flowed", w.name);
        }
    }
}

#[test]
fn tcp_replay_delivers_every_message() {
    let shape = small(&derived(&WORKLOADS[0], 2.0).shapes).tcp;
    let pass = tcp::script(&shape, SEEDS[0]).pass();
    // Each message of at least 3/4 of the typical size needs at least
    // that many full segments.
    let min_segments = shape.messages as u64 * (shape.message_bytes * 3 / 4) / 1460;
    assert!(
        pass.ops >= min_segments,
        "{} segments < {min_segments}",
        pass.ops
    );
}
