//! `speakup compare`: diff a fresh run against a committed golden report.
//!
//! A golden file is simply a saved `speakup run <name> --json` document
//! (see `golden/` at the repo root). `compare` re-runs the experiment
//! with the options recorded in the document (duration, base seed,
//! replicate count), then walks both JSON trees leaf by leaf:
//!
//! * strings, booleans, and structure must match exactly;
//! * numbers must agree within a per-metric tolerance chosen by the leaf
//!   path (counts tighter than sample statistics, tail percentiles and
//!   spreads loosest, wall-clock measurements ignored).
//!
//! The engine is deterministic, so on the commit that produced a golden
//! the diff is empty; the tolerances define how much *intentional* drift
//! a later change may introduce before CI demands the goldens be
//! regenerated and the change justified.

use crate::driver::{entry_json, execute};
use crate::json::Json;
use crate::registry::{self, RunOptions};
use crate::scenario::FaultSpec;
use speakup_net::time::{SimDuration, SimTime};
use std::io::Write;

/// One numeric disagreement between golden and fresh reports.
#[derive(Debug)]
pub struct Breach {
    /// JSON path of the leaf (e.g. `runs[3].good.served`).
    pub path: String,
    /// Value in the golden file.
    pub golden: String,
    /// Value in the fresh run.
    pub fresh: String,
    /// The tolerance that was exceeded, rendered for the report.
    pub allowed: String,
}

/// Relative/absolute tolerance for a metric, selected by path substring.
/// First match wins; `None` means the leaf is not checked at all.
fn tolerance_for(path: &str) -> Option<(f64, f64)> {
    // Sample counts (`latency_s.n`, `price_good_bytes.n`, ...) are
    // counters even though their parent key matches a statistics rule.
    if path.ends_with(".n") {
        return Some((0.02, 0.5));
    }
    const RULES: &[(&str, Option<(f64, f64)>)] = &[
        // Host wall-clock measurements (§7.1 payment sink) are not
        // reproducible across machines.
        ("measured_mbps", None),
        // Replica fairness divergence: an absolute band around zero (the
        // generic catch-all's ±0.5 would vacuously pass a share delta).
        ("delta_vs_r1", Some((0.0, 0.02))),
        // Failover timing is quantized by the digest sync cadence: a
        // legitimate change can shift detection or re-join by a whole
        // sync period, so these get a much wider band than fairness.
        ("time_to_", Some((0.20, 0.25))),
        // The outage-window allocation share is estimated from the few
        // seconds a replica is down — twice the steady-state share band.
        // (Must precede the generic "fraction" rule.)
        ("outage_good_fraction", Some((0.0, 0.04))),
        // Spreads and tail statistics drift hardest under small changes.
        ("stddev", Some((0.25, 1e-6))),
        ("p90", Some((0.10, 1e-6))),
        ("max", Some((0.10, 1e-6))),
        ("min", Some((0.10, 1e-6))),
        // Sample means, fractions, prices, times.
        ("mean", Some((0.05, 1e-3))),
        ("fraction", Some((0.0, 0.02))),
        ("utilization", Some((0.0, 0.02))),
        ("latency", Some((0.05, 1e-3))),
        ("price", Some((0.05, 1e-3))),
        ("payment", Some((0.05, 1e-3))),
        // Everything else (counters, config echoes) must agree closely.
        ("", Some((0.02, 0.5))),
    ];
    for (pat, tol) in RULES {
        if pat.is_empty() || path.contains(pat) {
            return *tol;
        }
    }
    unreachable!("the catch-all rule matches everything")
}

fn walk(path: &str, golden: &Json, fresh: &Json, tol_scale: f64, out: &mut Vec<Breach>) {
    // Numbers (Num and UInt compare by value).
    if let (Some(g), Some(f)) = (golden.as_f64(), fresh.as_f64()) {
        let Some((rel, abs)) = tolerance_for(path) else {
            return;
        };
        let allowed = (abs + rel * g.abs().max(f.abs())) * tol_scale;
        if (g - f).abs() > allowed {
            out.push(Breach {
                path: path.to_string(),
                golden: format!("{g}"),
                fresh: format!("{f}"),
                allowed: format!("±{allowed:.6}"),
            });
        }
        return;
    }
    match (golden, fresh) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(g), Json::Bool(f)) if g == f => {}
        (Json::Str(g), Json::Str(f)) if g == f => {}
        (Json::Arr(g), Json::Arr(f)) => {
            if g.len() != f.len() {
                out.push(Breach {
                    path: path.to_string(),
                    golden: format!("array of {}", g.len()),
                    fresh: format!("array of {}", f.len()),
                    allowed: "equal lengths".to_string(),
                });
                return;
            }
            for (i, (gi, fi)) in g.iter().zip(f).enumerate() {
                walk(&format!("{path}[{i}]"), gi, fi, tol_scale, out);
            }
        }
        (Json::Obj(g), Json::Obj(f)) => {
            for (k, gv) in g {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match fresh.get(k) {
                    Some(fv) => walk(&sub, gv, fv, tol_scale, out),
                    None => out.push(Breach {
                        path: sub,
                        golden: "present".to_string(),
                        fresh: "missing".to_string(),
                        allowed: "field exists".to_string(),
                    }),
                }
            }
            for (k, _) in f {
                if golden.get(k).is_none() {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.push(Breach {
                        path: sub,
                        golden: "missing".to_string(),
                        fresh: "present".to_string(),
                        allowed: "field exists".to_string(),
                    });
                }
            }
        }
        _ => out.push(Breach {
            path: path.to_string(),
            golden: type_name(golden).to_string(),
            fresh: type_name(fresh).to_string(),
            allowed: "same type and value".to_string(),
        }),
    }
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) | Json::UInt(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// Compare a golden document against a freshly generated one. Returns
/// the list of breaches (empty means the reports agree).
pub fn diff(golden: &Json, fresh: &Json, tol_scale: f64) -> Vec<Breach> {
    let mut out = Vec::new();
    walk("", golden, fresh, tol_scale, &mut out);
    out
}

/// The run options a golden document was produced with.
pub fn options_of(golden: &Json) -> Result<(&'static registry::Entry, RunOptions), String> {
    let name = golden
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("golden file has no \"experiment\" field")?;
    let entry =
        registry::find(name).ok_or_else(|| format!("unknown experiment {name:?} in golden"))?;
    let duration = golden
        .get("duration_s")
        .and_then(Json::as_f64)
        .filter(|d| d.is_finite() && *d > 0.0)
        .ok_or("golden file needs a positive \"duration_s\" (zero-length runs have NaN rates)")?;
    let seed = golden
        .get("base_seed")
        .and_then(Json::as_u64)
        .ok_or("golden file has no \"base_seed\"")?;
    let seeds = golden
        .get("seeds")
        .and_then(Json::as_u64)
        .filter(|&k| k >= 1)
        .ok_or("golden file needs \"seeds\" >= 1")?
        .min(u32::MAX as u64) as u32;
    // Replica overrides are optional header fields (absent on goldens
    // produced without `--thinners` / `--sync-period`); when present the
    // re-run must apply them or every run diverges from the golden.
    let thinners = match golden.get("thinners_override") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&t| (1..=u32::MAX as u64).contains(&t))
                .ok_or("golden file's \"thinners_override\" must be a positive integer")?
                as u32,
        ),
    };
    let sync_period = match golden.get("sync_period_override_ms") {
        None => None,
        Some(v) => Some(SimDuration::from_nanos(
            v.as_u64()
                .filter(|&ms| ms >= 1 && ms.checked_mul(1_000_000).is_some())
                .ok_or("golden file's \"sync_period_override_ms\" must be a positive integer")?
                * 1_000_000,
        )),
    };
    // Fault overrides round-trip in nanoseconds so the re-run schedules
    // byte-identical fault events (seconds would lose precision through
    // the f64 path).
    let faults = match golden.get("faults_override") {
        None => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(fault_of(item)?);
            }
            out
        }
        Some(_) => return Err("golden file's \"faults_override\" must be an array".to_string()),
    };
    Ok((
        entry,
        RunOptions {
            duration: Some(SimDuration::from_secs_f64(duration)),
            seed,
            seeds,
            thinners,
            sync_period,
            faults,
            ..RunOptions::default()
        },
    ))
}

/// Parse one `faults_override` entry back into the [`FaultSpec`] it was
/// rendered from (see `driver::fault_json`).
fn fault_of(item: &Json) -> Result<FaultSpec, String> {
    let kind = item
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("fault override entry has no \"kind\"")?;
    let ns = |field: &str| -> Result<u64, String> {
        item.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fault override entry needs a u64 {field:?}"))
    };
    match kind {
        "replica_crash" => {
            let replica = ns("replica")?;
            if replica > u32::MAX as u64 {
                return Err("fault override \"replica\" is out of range".to_string());
            }
            Ok(FaultSpec::ReplicaCrash {
                replica: replica as u32,
                at: SimTime::from_nanos(ns("at_ns")?),
                down_for: SimDuration::from_nanos(
                    ns("down_for_ns")?.max(1), // zero would panic in the builder path
                ),
            })
        }
        "link_flaps" => Ok(FaultSpec::LinkFlaps {
            seed: ns("seed")?,
            mean_every: SimDuration::from_nanos(ns("mean_every_ns")?.max(1)),
            mean_down: SimDuration::from_nanos(ns("mean_down_ns")?.max(1)),
        }),
        other => Err(format!("unknown fault override kind {other:?}")),
    }
}

/// The number of numeric leaves in `doc` that [`tolerance_for`] would
/// actually check. A golden whose metrics are all missing (e.g. an
/// empty `runs` array, or a document reduced to its header) would diff
/// vacuously clean against *any* fresh run; [`compare_file`] rejects
/// such files outright.
pub fn checked_metric_count(doc: &Json) -> usize {
    fn count(path: &str, v: &Json, out: &mut usize) {
        if v.as_f64().is_some() {
            if tolerance_for(path).is_some() {
                *out += 1;
            }
            return;
        }
        match v {
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    count(&format!("{path}[{i}]"), item, out);
                }
            }
            Json::Obj(fields) => {
                for (k, fv) in fields {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    count(&sub, fv, out);
                }
            }
            _ => {}
        }
    }
    // Only measurement payloads count — header echoes (duration_s,
    // base_seed, seeds) are inputs, not results.
    let mut n = 0;
    for payload in ["runs", "analysis", "fairness", "failover"] {
        if let Some(v) = doc.get(payload) {
            count(payload, v, &mut n);
        }
    }
    n
}

/// Load `path`, re-run its experiment, and report the diff on `out`.
/// Returns `Ok(true)` when the reports agree within tolerance.
pub fn compare_file(
    path: &str,
    tol_scale: f64,
    jobs: Option<usize>,
    out: &mut dyn Write,
    progress: &mut dyn Write,
) -> std::io::Result<bool> {
    let text = std::fs::read_to_string(path)?;
    let mut golden = Json::parse(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path}: not valid JSON: {e}"),
        )
    })?;
    // `speakup run --json` appends a host-dependent `perf` section
    // (wall-clock rates) after the deterministic payload; the re-run
    // below rebuilds only the payload, so a golden saved straight from
    // the CLI would otherwise always breach on the extra field.
    if let Json::Obj(fields) = &mut golden {
        fields.retain(|(k, _)| k != "perf");
    }
    let (entry, mut opts) =
        options_of(&golden).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if checked_metric_count(&golden) == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{path}: golden has no checked metrics (empty or header-only \
                 \"runs\"); it would compare clean against anything — \
                 regenerate it with `speakup run {} --json`",
                entry.name
            ),
        ));
    }
    opts.jobs = jobs;
    writeln!(
        progress,
        "compare {path}: re-running {} ({} x {}s, seed {:#x}) ...",
        entry.name,
        entry.build_grid().len() * opts.seeds as usize,
        opts.duration_for(entry).as_secs_f64(),
        opts.seed,
    )?;
    let run = execute(entry, &opts);
    let fresh = entry_json(&run, &opts);
    let breaches = diff(&golden, &fresh, tol_scale);
    if breaches.is_empty() {
        writeln!(out, "{path}: OK ({} within tolerance)", entry.name)?;
        return Ok(true);
    }
    writeln!(
        out,
        "{path}: {} metric(s) outside tolerance for {}:",
        breaches.len(),
        entry.name
    )?;
    for b in breaches.iter().take(50) {
        writeln!(
            out,
            "  {}: golden {} vs fresh {} (allowed {})",
            b.path, b.golden, b.fresh, b.allowed
        )?;
    }
    if breaches.len() > 50 {
        writeln!(out, "  ... and {} more", breaches.len() - 50)?;
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_breaches() {
        let doc = Json::obj()
            .field("experiment", "fig2")
            .field("runs", vec![Json::obj().field("good", 10u64)]);
        assert!(diff(&doc, &doc.clone(), 1.0).is_empty());
    }

    #[test]
    fn counters_breach_outside_two_percent() {
        let golden = Json::obj().field("served", 100u64);
        let close = Json::obj().field("served", 101u64);
        let far = Json::obj().field("served", 110u64);
        assert!(diff(&golden, &close, 1.0).is_empty());
        let breaches = diff(&golden, &far, 1.0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].path, "served");
    }

    #[test]
    fn fractions_use_absolute_tolerance() {
        let golden = Json::obj().field("good_fraction", 0.50);
        let close = Json::obj().field("good_fraction", 0.515);
        let far = Json::obj().field("good_fraction", 0.54);
        assert!(diff(&golden, &close, 1.0).is_empty());
        assert_eq!(diff(&golden, &far, 1.0).len(), 1);
        // A larger scale admits the drift.
        assert!(diff(&golden, &far, 3.0).is_empty());
    }

    #[test]
    fn sample_counts_use_the_counter_tolerance() {
        let stats = |n: u64, mean: f64| {
            Json::obj().field("latency_s", Json::obj().field("n", n).field("mean", mean))
        };
        // 4% drift: fine for the mean (5% statistics rule), a breach for
        // the sample count (2% counter rule) despite the `latency` key.
        let breaches = diff(&stats(1000, 1.0), &stats(1040, 1.04), 1.0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].path, "latency_s.n");
    }

    #[test]
    fn wall_clock_measurements_are_ignored() {
        let golden = Json::obj().field("measured_mbps", 1000.0);
        let fresh = Json::obj().field("measured_mbps", 250.0);
        assert!(diff(&golden, &fresh, 1.0).is_empty());
    }

    #[test]
    fn structure_mismatches_are_breaches() {
        let golden = Json::obj().field("a", 1u64).field("b", "x");
        let missing = Json::obj().field("a", 1u64);
        let wrong_type = Json::obj().field("a", 1u64).field("b", true);
        assert_eq!(diff(&golden, &missing, 1.0).len(), 1);
        assert_eq!(diff(&golden, &wrong_type, 1.0).len(), 1);
        let short = Json::obj().field("r", vec![Json::UInt(1)]);
        let long = Json::obj().field("r", vec![Json::UInt(1), Json::UInt(2)]);
        assert_eq!(diff(&short, &long, 1.0).len(), 1);
    }

    #[test]
    fn options_round_trip_from_golden_header() {
        let golden = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 30.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32);
        let (entry, opts) = options_of(&golden).expect("valid header");
        assert_eq!(entry.name, "fig2");
        assert_eq!(opts.duration, Some(SimDuration::from_secs(30)));
        assert_eq!(opts.seed, 0x5ea4);
        assert_eq!(opts.seeds, 1);
        assert!(options_of(&Json::obj().field("experiment", "nope")).is_err());
        // Corrupt replicate counts must error, not panic downstream.
        let zero_seeds = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 30.0)
            .field("base_seed", 1u64)
            .field("seeds", 0u64);
        assert!(options_of(&zero_seeds).is_err());
        // A zero (or negative, or NaN-parsed-as-null) duration would
        // re-run a rate-less experiment; reject it at load time.
        for bad in [0.0, -5.0] {
            let doc = Json::obj()
                .field("experiment", "fig2")
                .field("duration_s", bad)
                .field("base_seed", 1u64)
                .field("seeds", 1u64);
            let err = options_of(&doc).err().expect("zero duration accepted");
            assert!(err.contains("positive"), "got: {err}");
        }
    }

    #[test]
    fn replica_overrides_round_trip_from_golden_header() {
        let golden = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32)
            .field("thinners_override", 4u64)
            .field("sync_period_override_ms", 10u64);
        let (_, opts) = options_of(&golden).expect("valid header");
        assert_eq!(opts.thinners, Some(4));
        assert_eq!(opts.sync_period, Some(SimDuration::from_millis(10)));
        // Absent overrides stay unset (the classic header shape).
        let plain = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 1u64)
            .field("seeds", 1u32);
        let (_, opts) = options_of(&plain).expect("valid header");
        assert_eq!(opts.thinners, None);
        assert_eq!(opts.sync_period, None);
        // Corrupt overrides error instead of silently re-running the
        // wrong configuration against the golden.
        for (k, v) in [
            ("thinners_override", 0u64),
            ("sync_period_override_ms", 0u64),
            ("thinners_override", u64::from(u32::MAX) + 1),
            ("sync_period_override_ms", u64::MAX / 2),
        ] {
            let doc = Json::obj()
                .field("experiment", "fig2")
                .field("duration_s", 10.0)
                .field("base_seed", 1u64)
                .field("seeds", 1u32)
                .field(k, v);
            let err = options_of(&doc).err().unwrap_or_else(|| {
                panic!("corrupt {k} = {v} accepted");
            });
            assert!(err.contains(k), "got: {err}");
        }
    }

    #[test]
    fn checked_metrics_count_only_payload_leaves() {
        // Header echoes alone count for nothing...
        let header_only = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 1u64)
            .field("seeds", 1u32);
        assert_eq!(checked_metric_count(&header_only), 0);
        // ...as does a structurally present but empty runs array...
        let empty_runs = header_only.clone().field("runs", Vec::<Json>::new());
        assert_eq!(checked_metric_count(&empty_runs), 0);
        // ...or runs whose members carry only unchecked (wall-clock)
        // numbers.
        let perf_only = header_only.clone().field(
            "runs",
            vec![Json::obj().field("payment_sink", Json::obj().field("measured_mbps", 612.5))],
        );
        assert_eq!(checked_metric_count(&perf_only), 0);
        // A real metric in any payload section counts.
        let with_metric = header_only.clone().field(
            "runs",
            vec![Json::obj().field("allocation", Json::obj().field("good", 140u64))],
        );
        assert_eq!(checked_metric_count(&with_metric), 1);
        let with_fairness = header_only
            .clone()
            .field("fairness", Json::obj().field("band", 0.05));
        assert_eq!(checked_metric_count(&with_fairness), 1);
        // The failover section is a payload too: a fault golden whose
        // runs were stripped must still be caught as checkable-or-reject.
        let with_failover = header_only.field(
            "failover",
            Json::obj().field(
                "runs",
                vec![Json::obj().field("outage_good_fraction", 0.48)],
            ),
        );
        assert_eq!(checked_metric_count(&with_failover), 1);
    }

    #[test]
    fn failover_timing_uses_a_wider_band_than_fairness() {
        // Failover detection is quantized by the sync cadence, so the
        // timing rule admits drift that would fail every fairness band.
        let golden = Json::obj().field("time_to_failover_s", 1.0);
        let close = Json::obj().field("time_to_failover_s", 1.4);
        let far = Json::obj().field("time_to_failover_s", 2.0);
        assert!(diff(&golden, &close, 1.0).is_empty());
        assert_eq!(diff(&golden, &far, 1.0).len(), 1);
        // Recovery timing shares the rule via the "time_to_" prefix.
        let golden = Json::obj().field("time_to_recovery_s", 0.1);
        let close = Json::obj().field("time_to_recovery_s", 0.3);
        assert!(diff(&golden, &close, 1.0).is_empty());
    }

    #[test]
    fn outage_share_band_is_wider_than_fairness_but_still_absolute() {
        let golden = Json::obj().field("outage_good_fraction", 0.50);
        // 0.03 off: inside the ±0.04 outage band, but outside the ±0.02
        // the generic "fraction" rule would impose — proving the more
        // specific rule matches first.
        let close = Json::obj().field("outage_good_fraction", 0.53);
        let far = Json::obj().field("outage_good_fraction", 0.56);
        assert!(diff(&golden, &close, 1.0).is_empty());
        assert_eq!(diff(&golden, &far, 1.0).len(), 1);
        // A timing event that vanished (null vs number) is structure
        // drift, not numeric drift — always reported.
        let golden = Json::obj().field("time_to_failover_s", 0.5);
        let gone = Json::obj().field("time_to_failover_s", Json::Null);
        assert_eq!(diff(&golden, &gone, 1.0).len(), 1);
    }

    #[test]
    fn fault_overrides_round_trip_from_golden_header() {
        let faults = vec![
            FaultSpec::ReplicaCrash {
                replica: 1,
                at: SimTime::from_secs(15),
                down_for: SimDuration::from_secs(10),
            },
            FaultSpec::LinkFlaps {
                seed: 9,
                mean_every: SimDuration::from_secs(10),
                mean_down: SimDuration::from_millis(200),
            },
        ];
        let golden = Json::obj()
            .field("experiment", "fig2_faults")
            .field("duration_s", 60.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32)
            .field(
                "faults_override",
                faults
                    .iter()
                    .map(crate::driver::fault_json)
                    .collect::<Vec<_>>(),
            );
        let (entry, opts) = options_of(&golden).expect("valid fault header");
        assert_eq!(entry.name, "fig2_faults");
        assert_eq!(opts.faults, faults);
        // Absent override: no faults (every pre-fault golden).
        let plain = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 1u64)
            .field("seeds", 1u32);
        let (_, opts) = options_of(&plain).expect("valid header");
        assert!(opts.faults.is_empty());
        // Corrupt shapes error instead of silently re-running fault-free.
        for bad in [
            Json::Str("replica=1@15+10".to_string()),
            Json::Arr(vec![Json::obj().field("kind", "meteor_strike")]),
            Json::Arr(vec![Json::obj()
                .field("kind", "replica_crash")
                .field("replica", 1u64)]),
        ] {
            let doc = Json::obj()
                .field("experiment", "fig2")
                .field("duration_s", 10.0)
                .field("base_seed", 1u64)
                .field("seeds", 1u32)
                .field("faults_override", bad);
            assert!(
                options_of(&doc).is_err(),
                "corrupt faults_override accepted"
            );
        }
    }

    #[test]
    fn compare_rejects_a_golden_with_no_checked_metrics() {
        // A golden reduced to its header (e.g. a bad merge or a
        // truncated regeneration) must be a hard error: it would diff
        // clean against any fresh run and rot silently. The check runs
        // before the re-run, so this test never executes a simulation.
        let doc = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32)
            .field("runs", Vec::<Json>::new());
        let path = std::env::temp_dir().join("speakup_empty_golden_test.json");
        std::fs::write(&path, doc.pretty()).expect("write temp golden");
        let mut out = Vec::new();
        let mut progress = Vec::new();
        let err = compare_file(
            path.to_str().expect("utf-8 temp path"),
            1.0,
            None,
            &mut out,
            &mut progress,
        )
        .expect_err("header-only golden accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("no checked metrics"), "got: {msg}");
        assert!(msg.contains("regenerate"), "got: {msg}");
        std::fs::remove_file(&path).ok();
    }
}
