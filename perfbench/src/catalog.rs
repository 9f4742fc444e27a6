//! What the benchmark measures: the workloads, the metric catalog
//! (with the end-to-end metric and workloads each per-layer metric
//! should move), the seeds, and the pinned output digests.
//!
//! `BENCHMARK.json` at the repository root carries the same names,
//! units and bounds; [`check_benchmark_json`] refuses to run when the
//! two disagree, so the file and the code cannot drift apart.

use ffis_core::CampaignSpec;
use ffis_daemon::json::{self, Json};

/// Seed used when `--seed` is not given; its digests are pinned.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for confirming a claimed gain on inputs the change
/// was not tuned on; its digests are pinned too.
pub const HELD_OUT_SEED: u64 = 20_211;

/// Problem size: the paper-scale workloads, or a tiny grid for the
/// benchmark's own smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is defined at.
    Full,
    /// Seconds-long versions of the same campaigns.
    Tiny,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Nyx n=192³, BF at the write site.
    NyxWrite,
    /// Montage 48-tile mosaic, BF at the write site, memo on.
    MontageMosaic,
    /// QMC 4-restart series, BF at the read site, over HTTP.
    DaemonQmc,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] =
    [Workload::NyxWrite, Workload::MontageMosaic, Workload::DaemonQmc];

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NyxWrite => "nyx-write",
            Workload::MontageMosaic => "montage-mosaic",
            Workload::DaemonQmc => "daemon-qmc",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::NyxWrite => {
                "paper headline cell: checkpoint fork, short tail replay, full HDF5 decode and halo finder per run"
            }
            Workload::MontageMosaic => {
                "5 ms runs bound by the engine: batched executor, memo lookups, filtered tails, FITS per tile"
            }
            Workload::DaemonQmc => {
                "only service path (HTTP, JSON, job dirs, journal) and the incremental QMC analyze"
            }
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Submitted to a daemon over HTTP rather than run in-process.
    pub fn via_daemon(self) -> bool {
        self == Workload::DaemonQmc
    }

    /// The application layer the workload exercises.
    pub fn app_layer(self) -> &'static str {
        match self {
            Workload::NyxWrite => "nyx-sim",
            Workload::MontageMosaic => "montage-sim",
            Workload::DaemonQmc => "qmc-sim",
        }
    }

    /// The campaign this workload runs for `seed`. The seed becomes
    /// the campaign root seed, so it picks the injected runs; every
    /// other field is fixed. The regime is spelled out rather than
    /// taken from the environment (replay, replay_opt and memo on).
    pub fn spec(self, seed: u64, size: Size) -> CampaignSpec {
        let full = size == Size::Full;
        let (app, site, grid, files, runs) = match self {
            Workload::NyxWrite => ("nyx", "write", if full { 192 } else { 16 }, 1, 480),
            Workload::MontageMosaic => ("montage", "write", 16, if full { 48 } else { 3 }, 2400),
            Workload::DaemonQmc => ("qmc", "read", 16, if full { 4 } else { 2 }, 240),
        };
        let mut spec = CampaignSpec::new(app, "BF");
        spec.site = site.into();
        spec.grid = grid;
        spec.files = files;
        spec.runs = if full { runs } else { 12 };
        spec.seed = seed;
        spec.memo = true;
        spec.replay_opt = true;
        spec.parallel = true;
        spec.keep_runs = None;
        spec.journal = self.via_daemon();
        spec.resume = false;
        spec
    }
}

/// Pinned `(run_digest, plan_fingerprint)` of a full-size workload at
/// a pinned seed. A change to either is a change of results, not of
/// speed, and fails the benchmark.
pub fn pinned(workload: Workload, seed: u64) -> Option<(u64, u64)> {
    PINS.iter().find(|p| p.0 == workload.name() && p.1 == seed).map(|p| (p.2, p.3))
}

const PINS: &[(&str, u64, u64, u64)] = &[
    ("nyx-write", DEFAULT_SEED, 0x73be_0076_130e_e941, 0x6ac0_c4c8_b550_1d7d),
    ("nyx-write", HELD_OUT_SEED, 0xc08b_223f_df60_1a96, 0xe51d_0839_f3d7_5bfb),
    ("montage-mosaic", DEFAULT_SEED, 0xd725_fa7e_c75f_95cc, 0x1d56_7553_6276_2b77),
    ("montage-mosaic", HELD_OUT_SEED, 0x07ba_4741_272f_71a1, 0x7798_ea98_89c0_bfe7),
    ("daemon-qmc", DEFAULT_SEED, 0x8c69_1fda_d962_6dd0, 0xb8df_546d_d6e1_3e85),
    ("daemon-qmc", HELD_OUT_SEED, 0xa898_f823_e70e_ec41, 0x77bc_0582_6626_f6db),
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// End-to-end metrics, reported with `--trace 0`. The bounds are wide
/// because on a shared two-core virtual machine Nyx's page-fault-heavy
/// runs (a fifth to a third of their CPU is kernel time) vary by 10-20%
/// between runs of the same seed.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "runs_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_run", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.25 },
];

/// Whether a traced counter repeats exactly between two iterations of
/// the same workload and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// A wall-clock measurement.
    Timing,
    /// A count that repeats exactly.
    Exact,
    /// A count that depends on scheduling (labelled "varies").
    Varies,
}

/// A per-layer metric of the traced run.
pub struct PerLayer {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Timing, exact count, or scheduling-dependent count.
    pub repeat: Repeat,
    /// The end-to-end metric and workloads it should move.
    pub moves: &'static str,
}

use Repeat::{Exact, Timing, Varies};

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $repeat:expr, $moves:literal) => {
        PerLayer { name: $name, unit: $unit, better: $better, repeat: $repeat, moves: $moves }
    };
}

/// Per-layer metrics, reported with `--trace 1`. A metric whose layer
/// does not run in a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    layer!("nyx-sim.new_ms", "ms", "lower", Timing, "setup_s on nyx-write"),
    layer!("nyx-sim.produce_ms", "ms", "lower", Timing, "setup_s on nyx-write"),
    layer!(
        "nyx-sim.analyze_ms_p50",
        "ms",
        "lower",
        Timing,
        "runs_per_s, cpu_ms_per_run on nyx-write"
    ),
    layer!(
        "nyx-sim.analyze_ms_p95",
        "ms",
        "lower",
        Timing,
        "runs_per_s, cpu_ms_per_run on nyx-write"
    ),
    layer!(
        "nyx-sim.find_halos_ms",
        "ms",
        "lower",
        Timing,
        "runs_per_s, cpu_ms_per_run on nyx-write"
    ),
    layer!("nyx-sim.self_ms", "ms", "lower", Timing, "runs_per_s on nyx-write"),
    layer!("hdf5lite.read_dataset_ms", "ms", "lower", Timing, "runs_per_s on nyx-write"),
    layer!("hdf5lite.decoded_mib", "MiB", "lower", Exact, "runs_per_s on nyx-write"),
    layer!("hdf5lite.self_ms", "ms", "lower", Timing, "runs_per_s on nyx-write"),
    layer!("montage-sim.new_ms", "ms", "lower", Timing, "setup_s on montage-mosaic"),
    layer!("montage-sim.produce_ms", "ms", "lower", Timing, "setup_s on montage-mosaic"),
    layer!("montage-sim.substep_ms_p50", "ms", "lower", Timing, "runs_per_s on montage-mosaic"),
    layer!("montage-sim.substep_ms_p95", "ms", "lower", Timing, "runs_per_s on montage-mosaic"),
    layer!("montage-sim.self_ms", "ms", "lower", Timing, "runs_per_s on montage-mosaic"),
    layer!("fitslite.read_fits_ms", "ms", "lower", Timing, "runs_per_s on montage-mosaic"),
    layer!("fitslite.self_ms", "ms", "lower", Timing, "runs_per_s on montage-mosaic"),
    layer!("qmc-sim.new_ms", "ms", "lower", Timing, "setup_s on daemon-qmc"),
    layer!("qmc-sim.produce_ms", "ms", "lower", Timing, "setup_s on daemon-qmc"),
    layer!("qmc-sim.substep_ms_p50", "ms", "lower", Timing, "runs_per_s on daemon-qmc"),
    layer!("qmc-sim.substep_ms_p95", "ms", "lower", Timing, "runs_per_s on daemon-qmc"),
    layer!("qmc-sim.self_ms", "ms", "lower", Timing, "runs_per_s on daemon-qmc"),
    layer!("core.golden_ms", "ms", "lower", Timing, "setup_s on all workloads"),
    layer!("core.intercept_overhead_pct", "%", "lower", Timing, "setup_s on all workloads"),
    layer!("core.eligible", "count", "lower", Exact, "(size of the injection space)"),
    layer!(
        "core.replayed_suffix_ops",
        "count",
        "lower",
        Exact,
        "runs_per_s on nyx-write, montage-mosaic"
    ),
    layer!(
        "core.overshoot_ops",
        "count",
        "lower",
        Exact,
        "runs_per_s on nyx-write, montage-mosaic"
    ),
    layer!("core.batches", "count", "lower", Exact, "runs_per_s on nyx-write, montage-mosaic"),
    layer!(
        "core.coalesced_ops",
        "count",
        "higher",
        Exact,
        "runs_per_s on nyx-write, montage-mosaic"
    ),
    layer!(
        "core.skipped_tail_ops",
        "count",
        "higher",
        Exact,
        "runs_per_s on nyx-write, montage-mosaic"
    ),
    layer!("core.run_ms_p50", "ms", "lower", Timing, "runs_per_s on all workloads"),
    layer!("core.run_ms_p95", "ms", "lower", Timing, "runs_per_s on all workloads"),
    layer!("core.parallel_efficiency", "ratio", "higher", Timing, "runs_per_s on all workloads"),
    layer!("core.journal_append_us_p50", "us", "lower", Timing, "wall_s on daemon-qmc"),
    layer!("core.journal_bytes_per_run", "B", "lower", Exact, "wall_s on daemon-qmc"),
    layer!("core.self_ms", "ms", "lower", Timing, "runs_per_s, setup_s on all workloads"),
    layer!("vfs.trace_ops", "count", "lower", Exact, "setup_s on all workloads"),
    layer!("vfs.trace_payload_mib", "MiB", "lower", Exact, "setup_s on all workloads"),
    layer!(
        "vfs.checkpoint_build_ms",
        "ms",
        "lower",
        Timing,
        "setup_s on nyx-write, montage-mosaic (0 on daemon-qmc)"
    ),
    layer!(
        "vfs.checkpoint_points",
        "count",
        "lower",
        Exact,
        "setup_s on nyx-write, montage-mosaic (0 on daemon-qmc)"
    ),
    layer!("vfs.fork_us_p50", "us", "lower", Timing, "cpu_ms_per_run on nyx-write"),
    layer!("vfs.fork_us_p95", "us", "lower", Timing, "cpu_ms_per_run on nyx-write"),
    layer!(
        "vfs.tail_replay_us_p50",
        "us",
        "lower",
        Timing,
        "runs_per_s on nyx-write, montage-mosaic (0 on daemon-qmc)"
    ),
    layer!(
        "vfs.tail_ops_p50",
        "count",
        "lower",
        Exact,
        "runs_per_s on nyx-write, montage-mosaic (0 on daemon-qmc)"
    ),
    layer!("vfs.memo_hits", "count", "higher", Varies, "runs_per_s on montage-mosaic, daemon-qmc"),
    layer!("vfs.memo_misses", "count", "lower", Varies, "runs_per_s on montage-mosaic, daemon-qmc"),
    layer!(
        "vfs.memo_hit_ratio",
        "ratio",
        "higher",
        Varies,
        "runs_per_s on montage-mosaic, daemon-qmc"
    ),
    layer!("vfs.checkpoint_store_builds", "count", "lower", Exact, "setup_s on nyx-write"),
    layer!("vfs.checkpoint_store_hits", "count", "higher", Exact, "setup_s on nyx-write"),
    layer!(
        "vfs.self_ms",
        "ms",
        "lower",
        Timing,
        "cpu_ms_per_run on nyx-write, setup_s on write workloads"
    ),
    layer!("proc.minflt_per_run", "count", "lower", Varies, "cpu_ms_per_run on nyx-write"),
    layer!("proc.sys_cpu_share", "ratio", "lower", Timing, "cpu_ms_per_run on nyx-write"),
    layer!("daemon.submit_ms", "ms", "lower", Timing, "setup_s on daemon-qmc"),
    layer!("daemon.done_lag_ms", "ms", "lower", Timing, "wall_s on daemon-qmc"),
    layer!("daemon.self_ms", "ms", "lower", Timing, "wall_s on daemon-qmc"),
    layer!("trace.overhead_ms", "ms", "lower", Timing, "(traced minus untraced campaign wall)"),
    layer!("trace.overhead_pct", "%", "lower", Timing, "(traced minus untraced campaign wall)"),
    layer!("trace.spans", "count", "lower", Varies, "(spans recorded by the traced run)"),
];

/// Compare `BENCHMARK.json` against this catalog: same workloads, same
/// metric names, units, directions and bounds, in the same order.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Json>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("BENCHMARK.json: missing list '{key}'"))
    };
    let field = |item: &Json, key: &str| -> String {
        match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => format!("{n}"),
            _ => String::new(),
        }
    };
    let names: Vec<String> = list("workloads")?.iter().map(|w| field(w, "name")).collect();
    let want: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
    if names != want {
        return Err(format!("BENCHMARK.json workloads {names:?} differ from {want:?}"));
    }
    let e2e: Vec<[String; 4]> = list("end_to_end")?
        .iter()
        .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better"), field(m, "bound")])
        .collect();
    let want: Vec<[String; 4]> = END_TO_END
        .iter()
        .map(|m| [m.name.into(), m.unit.into(), m.better.into(), format!("{}", m.bound)])
        .collect();
    if e2e != want {
        return Err("BENCHMARK.json end_to_end differs from the catalog".into());
    }
    let per: Vec<[String; 3]> = list("per_layer")?
        .iter()
        .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
        .collect();
    let want: Vec<[String; 3]> =
        PER_LAYER.iter().map(|m| [m.name.into(), m.unit.into(), m.better.into()]).collect();
    if per != want {
        return Err("BENCHMARK.json per_layer differs from the catalog".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        check_benchmark_json(&text).unwrap();
    }

    #[test]
    fn specs_validate_and_follow_the_seed() {
        for w in WORKLOADS {
            for size in [Size::Full, Size::Tiny] {
                let spec = w.spec(7, size);
                spec.validate().unwrap();
                assert_eq!(spec.seed, 7);
                assert_eq!(w.spec(7, size), spec);
            }
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
