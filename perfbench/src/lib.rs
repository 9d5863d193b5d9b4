//! The speak-up reproduction benchmark.
//!
//! Runs registry workloads through the same library path as `speakup
//! run <entry> --json`, measures host time and fidelity end to end, and
//! in a separate traced run splits the time over the simulator's layers
//! with spans around the driver and runner calls plus outside-in layer
//! replays. See `README.md` in this directory for the workloads and
//! metrics.

#![forbid(unsafe_code)]
// Reading the host clock is this crate's job; the repository's
// clippy.toml bans it for the simulator crates.
#![allow(clippy::disallowed_methods)]

pub mod replay;
pub mod trace;
pub mod workload;

/// Median of `v` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Host fingerprint: results from different fingerprints are never
/// compared.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Logical cores available to this process.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Fingerprint {
    /// The fingerprint of this host and build.
    pub fn take() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}}}",
            self.cores,
            json_str(&self.cpu),
            json_str(self.rustc),
            json_str(self.profile)
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where procfs is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
