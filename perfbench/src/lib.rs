//! The repository benchmark. `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` runs one named workload and prints, as
//! its last line, one JSON object: `correct`, `attempted`, `failed`,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a separate traced run (`--trace 1`). Everything above that line
//! is for people: the environment, each iteration, and each metric
//! with its sample count.
//!
//! The workloads, metrics, seeds and pinned digests are in
//! [`catalog`]; `BENCHMARK.json` must agree with it.

pub mod catalog;
pub mod procstat;
pub mod spans;
pub mod timed;
pub mod traced;

use std::path::Path;
use std::time::Instant;

use catalog::{pinned, Size, Workload, END_TO_END};
use timed::{Iteration, Until};

/// Environment variables that switch the engine's regime; the
/// benchmark is defined with all of them unset.
pub const REGIME_VARS: [&str; 4] =
    ["FFIS_REPLAY", "FFIS_REPLAY_OPT", "FFIS_MEMO", "FFIS_BENCH_QUICK"];

/// Set-up probes per timed run, besides the campaigns' own set-ups.
const SETUP_PROBES: usize = 2;

/// The `q`-quantile of `values` (nearest rank); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values` (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one invocation found: the counts for the result line, the
/// metrics, and the human-readable lines printed above it.
#[derive(Debug, Default)]
pub struct Report {
    /// Campaign iterations attempted.
    pub attempted: u64,
    /// Iterations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)`, in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for people.
    pub lines: Vec<String>,
}

impl Report {
    /// Add a line for people.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Every iteration passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Count one attempted iteration, failed if `problems` is not empty.
    pub fn tally(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.line(format!("FAILED: {p}"));
            }
        }
    }

    /// Count `iterations` and their failures. Besides each iteration's
    /// own checks, its digest and plan fingerprint must equal the
    /// pinned ones for this seed or, unpinned, the first whole
    /// campaign's. A set-up probe stops early, so only its plan
    /// fingerprint is compared.
    pub fn check_iterations(&mut self, workload: Workload, seed: u64, iterations: &[&Iteration]) {
        let reference = pinned(workload, seed).or_else(|| {
            iterations.iter().find(|it| !it.probe).map(|it| (it.run_digest, it.plan_fingerprint))
        });
        for it in iterations {
            let mut problems = it.problems.clone();
            let mismatch = reference.is_some_and(|(digest, plan)| {
                if it.probe {
                    it.plan_fingerprint != 0 && it.plan_fingerprint != plan
                } else {
                    (it.run_digest, it.plan_fingerprint) != (digest, plan)
                }
            });
            if mismatch {
                let (digest, plan) = reference.unwrap_or_default();
                problems.push(format!(
                    "run_digest {:#018x} / plan_fingerprint {:#018x}, expected {:#018x} / {:#018x}",
                    it.run_digest, it.plan_fingerprint, digest, plan
                ));
            }
            self.tally(problems);
        }
        if let Some((digest, plan)) = reference {
            let pin = if pinned(workload, seed).is_some() {
                "pinned"
            } else {
                "not pinned for this seed"
            };
            self.line(format!(
                "digest: run_digest {digest:#018x}, plan_fingerprint {plan:#018x} ({pin})"
            ));
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Timed run. An untimed warm-up comes first: the first campaign of a
/// process runs slow while its heap grows. For the daemon workload the
/// warm-up is the full spec run in-process, whose digest the HTTP
/// iterations must equal; otherwise it is a set-up probe. Then
/// [`SETUP_PROBES`] set-up probes, then whole campaigns until `seconds`
/// have passed since the warm-up (at least one).
///
/// `setup_s` is the median over the probes and the campaigns; the other
/// metrics are medians over the campaigns, and `peak_rss_mib` is the
/// process high-water mark at the end. Campaigns are large because
/// per-run cost is heavy tailed (a bit flip in a float exponent can
/// make one Nyx analyze cost six times the median): repeating a small
/// campaign would measure the seed's draws, not the code.
pub fn run_timed(workload: Workload, seed: u64, seconds: f64, size: Size, work: &Path) -> Report {
    let spec = workload.spec(seed, size);
    let mut report = Report::default();
    let daemon_root = work.join("daemon");
    let campaign = |until: Until| {
        if workload.via_daemon() {
            timed::via_daemon(&spec, &daemon_root, until)
        } else {
            timed::in_process(&spec, timed::cold_hooks(), until).0
        }
    };
    let warm = if workload.via_daemon() {
        timed::in_process(&spec, timed::cold_hooks(), Until::Done).0
    } else {
        campaign(Until::FirstRun)
    };
    let start = Instant::now();
    let probes: Vec<Iteration> = (0..SETUP_PROBES).map(|_| campaign(Until::FirstRun)).collect();
    let mut timed_its = Vec::new();
    while timed_its.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let it = campaign(Until::Done);
        report.line(format!(
            "campaign {}: setup {:.3} s, wall {:.3} s, {:.2} runs/s, {:.2} ms CPU/run, {:.0} minflt/run",
            timed_its.len() + 1,
            it.setup_s,
            it.wall_s,
            it.runs_per_s(),
            it.cpu_ms_per_run(),
            it.run_phase.minflt as f64 / it.runs as f64
        ));
        timed_its.push(it);
    }
    let all: Vec<&Iteration> = [&warm].into_iter().chain(&probes).chain(&timed_its).collect();
    report.check_iterations(workload, seed, &all);

    let series = |f: fn(&Iteration) -> f64| timed_its.iter().map(f).collect::<Vec<f64>>();
    for m in END_TO_END {
        let values = match m.name {
            "setup_s" => probes.iter().chain(&timed_its).map(|it| it.setup_s).collect(),
            "wall_s" => series(|it| it.wall_s),
            "runs_per_s" => series(Iteration::runs_per_s),
            "cpu_ms_per_run" => series(Iteration::cpu_ms_per_run),
            _ => vec![procstat::peak_rss_mib()],
        };
        report.line(format!(
            "{}: median {:.4} {} (min {:.4}, max {:.4}, n={})",
            m.name,
            median(&values),
            m.unit,
            quantile(&values, 0.0),
            quantile(&values, 1.0),
            values.len()
        ));
        report.metric(m.name, median(&values), m.unit);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.line(format!(
        "failed_frac: {failed_frac} ratio ({} of {} iterations)",
        report.failed, report.attempted
    ));
    report
}

/// The environment line printed with every result.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "environment: nproc {nproc}, commit {}, {}, profile {}",
        commit(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_mismatches_fail_their_iteration() {
        let it = |digest: u64, plan: u64| Iteration {
            run_digest: digest,
            plan_fingerprint: plan,
            ..Iteration::default()
        };
        let probe = |plan: u64| Iteration { probe: true, ..it(0, plan) };
        let mut r = Report::default();
        r.check_iterations(Workload::MontageMosaic, 99, &[&it(1, 2), &probe(2), &it(1, 2)]);
        assert!(r.correct(), "{:?}", r.lines);
        r.check_iterations(Workload::MontageMosaic, 99, &[&it(1, 2), &probe(3), &it(4, 2)]);
        assert_eq!((r.attempted, r.failed), (6, 2));
        // At a pinned seed the pin wins over agreeing iterations.
        let mut r = Report::default();
        r.check_iterations(Workload::MontageMosaic, catalog::DEFAULT_SEED, &[&it(1, 2), &it(1, 2)]);
        assert_eq!(r.failed, 2);
    }

    #[test]
    fn result_line_has_exactly_the_documented_keys() {
        let mut r = Report { attempted: 2, ..Report::default() };
        r.metric("setup_s", 0.8127, "s");
        r.metric("x", f64::NAN, "ms");
        let line = r.json();
        let v = ffis_daemon::json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").and_then(|s| s.get("unit")).and_then(|u| u.as_str()),
            Some("s")
        );
        assert!(line.contains("\"x\": {\"value\": 0,"), "{line}");
    }
}
