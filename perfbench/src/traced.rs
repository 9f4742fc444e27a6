//! The traced run: per-layer numbers for one workload, measured from
//! the benchmark's own code around the calls into each layer's public
//! functions. No span lives inside the program.
//!
//! It runs, in order:
//! 1. a journaled warm-up campaign at an eighth of the runs (its
//!    journal feeds the journal probe) and an untraced campaign through
//!    `execute_spec`, with a second untraced campaign after step 2;
//! 2. the same campaign built from the same parts (the spec-to-app
//!    mapping `execute_spec` uses) with the app wrapped in [`Traced`],
//!    so every `produce`/`analyze`/sub-step/`classify` call the engine
//!    makes is a span under one `core.campaign` root. Its digest must
//!    equal the untraced one, and its wall minus the untraced wall is
//!    the tracing overhead;
//! 3. a serial re-enactment from public functions: the golden profile
//!    with trace capture, a bare produce+analyze on `MemFs`, demand
//!    placed checkpoints, and sampled fault-free runs (fork, tail
//!    replay, analyze or dirty sub-steps, classify), plus the format
//!    readers, the halo finder and the run journal on their own;
//! 4. for the daemon workload, one more campaign over HTTP.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ffis_core::engine::journal::scan;
use ffis_core::{
    Campaign, CampaignConfig, CampaignResult, CampaignSpec, FaultApp, IoProfiler, Outcome,
    RunJournal, RunObserver,
};
use ffis_daemon::apps::nyx_app;
use ffis_daemon::ExecHooks;
use ffis_vfs::{
    CheckpointStore, FfisFs, FileSystem, Interceptor, MemFs, MemoStore, ReadLedger,
    TraceCheckpoints, TraceRecorder,
};
use montage_sim::MontageApp;
use nyx_sim::NyxConfig;
use qmc_sim::{QmcApp, QmcConfig};

use crate::catalog::{Repeat, Size, Workload, PER_LAYER};
use crate::procstat::ProcSample;
use crate::spans::Tracer;
use crate::timed::{self, Until};
use crate::{median, quantile, Report};

const MIB: f64 = 1024.0 * 1024.0;
/// Fault-free runs the re-enactment samples.
const SAMPLED_RUNS: usize = 16;

/// Span names of one application layer.
pub struct AppSpans {
    new_metric: &'static str,
    produce_metric: &'static str,
    substep_p50: &'static str,
    substep_p95: &'static str,
    new: &'static str,
    produce: &'static str,
    analyze: &'static str,
    substep: &'static str,
    assemble: &'static str,
    classify: &'static str,
}

macro_rules! app_spans {
    ($layer:literal) => {
        AppSpans {
            new_metric: concat!($layer, ".new_ms"),
            produce_metric: concat!($layer, ".produce_ms"),
            substep_p50: concat!($layer, ".substep_ms_p50"),
            substep_p95: concat!($layer, ".substep_ms_p95"),
            new: concat!($layer, ".new"),
            produce: concat!($layer, ".produce"),
            analyze: concat!($layer, ".analyze"),
            substep: concat!($layer, ".substep"),
            assemble: concat!($layer, ".assemble"),
            classify: concat!($layer, ".classify"),
        }
    };
}

static NYX: AppSpans = app_spans!("nyx-sim");
static MONTAGE: AppSpans = app_spans!("montage-sim");
static QMC: AppSpans = app_spans!("qmc-sim");

/// A [`FaultApp`] that records a span around every call the engine
/// makes into the wrapped application and otherwise defers to it.
pub struct Traced<'a, A> {
    inner: &'a A,
    tracer: &'a Tracer,
    names: &'static AppSpans,
}

impl<A: FaultApp> FaultApp for Traced<'_, A> {
    type Output = A::Output;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        self.tracer.span(self.names.produce, || self.inner.produce(fs)).0
    }

    fn analyze(
        &self,
        fs: &dyn FileSystem,
        golden: Option<&A::Output>,
    ) -> Result<A::Output, String> {
        self.tracer.span(self.names.analyze, || self.inner.analyze(fs, golden)).0
    }

    fn produce_read_count(&self) -> Option<u64> {
        self.inner.produce_read_count()
    }

    fn classify(&self, golden: &A::Output, faulty: &A::Output) -> Outcome {
        self.tracer.span(self.names.classify, || self.inner.classify(golden, faulty)).0
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn analyze_substeps(&self) -> Option<Vec<ffis_core::SubstepSpec>> {
        self.inner.analyze_substeps()
    }

    fn analyze_substep(
        &self,
        fs: &dyn FileSystem,
        index: usize,
        golden: Option<&A::Output>,
    ) -> Result<Vec<u8>, String> {
        self.tracer.span(self.names.substep, || self.inner.analyze_substep(fs, index, golden)).0
    }

    fn assemble(
        &self,
        artifacts: &[Vec<u8>],
        golden: Option<&A::Output>,
    ) -> Result<A::Output, String> {
        self.tracer.span(self.names.assemble, || self.inner.assemble(artifacts, golden)).0
    }
}

/// The per-layer metric values, all initialised to 0 (a layer that
/// does not run in a workload reads 0 there).
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn new() -> Metrics {
        Metrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("metric {name} not in the catalog"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The campaign configuration `execute_spec` derives from a spec, with
/// the given stores and observer.
fn campaign_config(
    spec: &CampaignSpec,
    checkpoints: &Arc<CheckpointStore>,
    memo: &Arc<MemoStore>,
    observer: RunObserver,
) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig::new(spec.signature()?)
        .with_runs(spec.runs)
        .with_seed(spec.seed)
        .with_keep_runs(spec.keep_runs)
        .with_checkpoints(Arc::clone(checkpoints))
        .with_memo(spec.memo)
        .with_replay_opt(spec.replay_opt)
        .with_memo_store(Arc::clone(memo))
        .with_observer(observer);
    cfg.parallel = spec.parallel;
    Ok(cfg)
}

/// The app a spec names, built the way `execute_spec` builds it. The
/// traced campaign needs the app itself, to wrap it, and `execute_spec`
/// does not expose it; the traced digest must equal the untraced one,
/// so any drift from `execute_spec` fails the run.
enum App {
    Nyx(nyx_sim::NyxApp),
    Montage(MontageApp),
    Qmc(QmcApp),
}

fn build_app(spec: &CampaignSpec) -> App {
    match spec.app.as_str() {
        "nyx" => App::Nyx(nyx_app(spec.grid, spec.files)),
        "montage" => App::Montage(MontageApp::multi_tile(spec.files.max(1))),
        _ => {
            let files = spec.files.max(1);
            App::Qmc(QmcApp::new(QmcConfig {
                restarts: files,
                dmc_blocks: if files > 1 { 4 } else { 1 },
                ..QmcConfig::default()
            }))
        }
    }
}

/// Shared state of one traced run.
struct Ctx<'a> {
    spec: &'a CampaignSpec,
    tracer: &'a Tracer,
    metrics: Metrics,
    problems: Vec<String>,
    /// Digest and plan fingerprint of the untraced campaign.
    reference: (u64, u64),
}

/// Run the traced pass for `workload` (see the module docs).
pub fn run(workload: Workload, seed: u64, size: Size, work: &Path) -> Report {
    let spec = workload.spec(seed, size);
    let tracer = Tracer::default();
    let mut report = Report::default();

    // 1. A journaled warm-up at an eighth of the runs (the first
    // campaign of a process runs slow), then the untraced campaign.
    let journal_src = work.join("journal-src");
    let _ = std::fs::remove_file(&journal_src);
    let warm_spec = CampaignSpec { runs: (spec.runs / 8).max(1), journal: true, ..spec.clone() };
    let hooks = ExecHooks { journal: Some(journal_src.clone()), ..timed::cold_hooks() };
    let (warm, _) = timed::in_process(&warm_spec, hooks, Until::Done);
    report.tally(warm.problems);
    let (untraced, _) = timed::in_process(&spec, timed::cold_hooks(), Until::Done);
    let mut ctx = Ctx {
        spec: &spec,
        tracer: &tracer,
        metrics: Metrics::new(),
        problems: Vec::new(),
        reference: (untraced.run_digest, untraced.plan_fingerprint),
    };

    // 2 and 3, over the concrete app.
    let traced_wall = match tracer.span(app_names(workload).new, || build_app(&spec)) {
        (App::Nyx(app), d) => trace_app(&mut ctx, &app, &NYX, d),
        (App::Montage(app), d) => trace_app(&mut ctx, &app, &MONTAGE, d),
        (App::Qmc(app), d) => trace_app(&mut ctx, &app, &QMC, d),
    };
    // A second untraced campaign after the traced one, so drift across
    // the process's lifetime (heap growth, page cache) cancels out of
    // the overhead.
    let (untraced2, _) = timed::in_process(&spec, timed::cold_hooks(), Until::Done);
    if let Some(traced_wall) = traced_wall {
        let untraced_wall = (untraced.wall_s + untraced2.wall_s) / 2.0;
        let overhead = traced_wall - untraced_wall;
        ctx.metrics.set("trace.overhead_ms", overhead * 1e3);
        ctx.metrics.set("trace.overhead_pct", overhead / untraced_wall * 100.0);
    }
    let mut iterations = vec![untraced, untraced2];
    journal_probe(&mut ctx, &journal_src, work);

    // 4. The service path.
    if workload.via_daemon() {
        let (it, _) = tracer.span("daemon.campaign", || {
            timed::via_daemon(&spec, &work.join("daemon"), Until::Done)
        });
        ctx.metrics.set("daemon.submit_ms", it.submit_s * 1e3);
        ctx.metrics.set("daemon.done_lag_ms", it.done_lag_s * 1e3);
        iterations.push(it);
    }
    // The daemon's digest must equal the in-process ones.
    report.check_iterations(workload, seed, &iterations.iter().collect::<Vec<_>>());

    let spans = tracer.spans();
    ctx.metrics.set("trace.spans", spans.len() as f64);
    for (layer, self_ms) in tracer.self_ms_by_layer() {
        let name =
            PER_LAYER.iter().map(|m| m.name).find(|n| n.strip_suffix(".self_ms") == Some(layer));
        match name {
            Some(name) => ctx.metrics.set(name, self_ms),
            None => ctx.problems.push(format!("spans of unknown layer '{layer}'")),
        }
    }
    let spans_path = work.join(format!("spans-{}-{}.jsonl", workload.name(), seed));
    match tracer.write_jsonl(&spans_path) {
        Ok(()) => {
            report.line(format!("spans: {} written to {}", spans.len(), spans_path.display()))
        }
        Err(e) => ctx.problems.push(format!("writing spans: {e}")),
    }

    report.tally(ctx.problems);
    for (repeat, label) in [
        (Repeat::Exact, "counters (repeat exactly)"),
        (Repeat::Varies, "counters (varies)"),
        (Repeat::Timing, "timings"),
    ] {
        report.line(format!("{label}:"));
        for m in PER_LAYER.iter().filter(|m| m.repeat == repeat) {
            report.line(format!("  {} = {} {}", m.name, ctx.metrics.0[m.name], m.unit));
        }
    }
    for m in PER_LAYER {
        report.metric(m.name, ctx.metrics.0[m.name], m.unit);
    }
    report
}

fn app_names(workload: Workload) -> &'static AppSpans {
    match workload.app_layer() {
        "nyx-sim" => &NYX,
        "montage-sim" => &MONTAGE,
        _ => &QMC,
    }
}

/// Steps 2 and 3 over one concrete app. Returns the traced campaign's
/// wall time (app construction included, as `execute_spec`'s is).
fn trace_app<A: FaultApp>(
    ctx: &mut Ctx<'_>,
    app: &A,
    names: &'static AppSpans,
    new: Duration,
) -> Option<f64> {
    let layer = names.new.trim_end_matches(".new");
    ctx.metrics.set(names.new_metric, ms(new));
    let traced_wall = traced_campaign(ctx, app, names).map(|wall| wall + new.as_secs_f64());
    if let Err(e) = reenact(ctx, app, names, layer) {
        ctx.problems.push(format!("re-enactment: {e}"));
    }
    traced_wall
}

/// The real campaign over the [`Traced`] app, with cold stores.
fn traced_campaign<A: FaultApp>(
    ctx: &mut Ctx<'_>,
    app: &A,
    names: &'static AppSpans,
) -> Option<f64> {
    let (spec, tracer) = (ctx.spec, ctx.tracer);
    let checkpoints = Arc::new(CheckpointStore::new());
    let memo = Arc::new(MemoStore::in_memory());
    let first: Arc<OnceLock<(Instant, ProcSample)>> = Arc::default();
    let observer = {
        let first = Arc::clone(&first);
        RunObserver::new(move |_, _| {
            first.get_or_init(|| (Instant::now(), ProcSample::now()));
        })
    };
    let cfg = match campaign_config(spec, &checkpoints, &memo, observer) {
        Ok(cfg) => cfg,
        Err(e) => {
            ctx.problems.push(format!("campaign config: {e}"));
            return None;
        }
    };
    let wrapped = Traced { inner: app, tracer, names };
    let (result, wall) = tracer.root_span("core.campaign", || Campaign::new(&wrapped, cfg).run());
    let (end_at, end) = (Instant::now(), ProcSample::now());
    let result: CampaignResult = match result {
        Ok(r) => r,
        Err(e) => {
            ctx.problems.push(format!("traced campaign: {e}"));
            return None;
        }
    };
    ctx.problems.extend(timed::check_result(spec, &result));
    // Sub-step cost as the engine pays it: dirty sub-steps of faulty
    // runs, which a fault-free re-enactment cannot reproduce.
    let substep_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == names.substep)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    if !substep_ms.is_empty() {
        ctx.metrics.set(names.substep_p50, median(&substep_ms));
        ctx.metrics.set(names.substep_p95, quantile(&substep_ms, 0.95));
    }
    if (result.run_digest(), result.plan_fingerprint) != ctx.reference {
        ctx.problems.push("traced campaign digest differs from the untraced one".into());
    }
    let m = &mut ctx.metrics;
    let ro = &result.replay_opt;
    m.set("core.eligible", result.profile.eligible as f64);
    m.set("core.replayed_suffix_ops", ro.replayed_suffix_ops as f64);
    m.set("core.overshoot_ops", ro.overshoot as f64);
    m.set("core.batches", ro.batches as f64);
    m.set("core.coalesced_ops", ro.coalesced_ops as f64);
    m.set("core.skipped_tail_ops", ro.skipped_tail_ops as f64);
    let memo_stats = result.memo.stats;
    m.set("vfs.memo_hits", memo_stats.hits as f64);
    m.set("vfs.memo_misses", memo_stats.misses as f64);
    let lookups = memo_stats.hits + memo_stats.misses;
    m.set(
        "vfs.memo_hit_ratio",
        if lookups == 0 { 0.0 } else { memo_stats.hits as f64 / lookups as f64 },
    );
    m.set("vfs.checkpoint_store_builds", checkpoints.builds() as f64);
    m.set("vfs.checkpoint_store_hits", checkpoints.hits() as f64);
    if let Some(&(at, proc_at)) = first.get() {
        let run_phase = end.since(&proc_at);
        let run_wall = (end_at - at).as_secs_f64();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        m.set("proc.minflt_per_run", run_phase.minflt as f64 / spec.runs as f64);
        m.set("proc.sys_cpu_share", run_phase.sys_s / run_phase.cpu_s());
        m.set("core.parallel_efficiency", run_phase.cpu_s() / (threads * run_wall));
    }
    Some(wall.as_secs_f64())
}

/// A fork a sampled run executes on.
enum Forked {
    Mount(Arc<FfisFs>),
    Mem(MemFs),
}

impl Forked {
    fn fs(&self) -> &dyn FileSystem {
        match self {
            Forked::Mount(ffs) => &**ffs,
            Forked::Mem(fs) => fs,
        }
    }
}

/// Step 3: the serial re-enactment from public functions.
fn reenact<A: FaultApp>(
    ctx: &mut Ctx<'_>,
    app: &A,
    names: &'static AppSpans,
    layer: &str,
) -> Result<(), String> {
    let (spec, tracer) = (ctx.spec, ctx.tracer);
    let signature = spec.signature()?;
    let write_site = spec.injection_site()? == ffis_core::InjectionSite::Write;

    // The golden profile with trace capture, as the campaign runs it.
    let profiler = IoProfiler::new(signature.primitive, signature.target.clone());
    let recorder = Arc::new(TraceRecorder::new());
    let ledger = Arc::new(ReadLedger::new());
    let extras: Vec<Arc<dyn Interceptor>> = vec![recorder.clone(), ledger.clone()];
    let produce = Cell::new(Duration::ZERO);
    let (golden, golden_d) = tracer.span("core.golden", || {
        profiler.profile_with_mount(&extras, |ffs| {
            let (r, d) = tracer.span(names.produce, || app.produce(ffs));
            produce.set(d);
            r?;
            ledger.mark_produce_end();
            tracer.span(names.analyze, || app.analyze(ffs, None)).0
        })
    });
    let (profile, golden, base) = golden?;
    let (bare, bare_d) = tracer.span("core.bare_golden", || {
        let fs = MemFs::new();
        app.produce(&fs).and_then(|()| app.analyze(&fs, None))
    });
    bare?;
    let m = &mut ctx.metrics;
    m.set("core.golden_ms", ms(golden_d));
    m.set(
        "core.intercept_overhead_pct",
        (golden_d.as_secs_f64() / bare_d.as_secs_f64() - 1.0) * 100.0,
    );
    m.set(names.produce_metric, ms(produce.get()));
    m.set("vfs.trace_ops", recorder.len() as f64);
    m.set("vfs.trace_payload_mib", recorder.payload_bytes() as f64 / MIB);

    // The campaign's per-run draws (engine law 2: run i draws its
    // 1-based target instance from child stream i of the root seed).
    let root = ffis_core::Rng::seed_from(spec.seed);
    let eligible = profile.eligible;
    if eligible == 0 {
        return Err("no eligible instances".into());
    }
    let draws: Vec<usize> =
        (0..spec.runs).map(|i| root.child(i as u64).gen_range(eligible) as usize).collect();
    let ops = recorder.take_ops();
    let records = ledger.records();
    // Per draw: the trace op it forks at (write site) and the path the
    // fault lands on.
    let (targets, paths): (Vec<usize>, Vec<Option<String>>) = if write_site {
        let eligible_ops: Vec<usize> = (0..ops.len())
            .filter(|&i| ops[i].is_write() && signature.target.matches(ops[i].write_path()))
            .collect();
        if eligible_ops.len() as u64 != eligible {
            return Err(format!(
                "{} eligible writes in the trace, profile says {eligible}",
                eligible_ops.len()
            ));
        }
        draws
            .iter()
            .map(|&d| (eligible_ops[d], ops[eligible_ops[d]].write_path().map(str::to_string)))
            .unzip()
    } else {
        let eligible_reads: Vec<&Option<String>> = records
            .iter()
            .map(|r| &r.path)
            .filter(|p| signature.target.matches(p.as_deref()))
            .collect();
        if eligible_reads.len() as u64 != eligible {
            return Err(format!(
                "{} eligible reads in the ledger, profile says {eligible}",
                eligible_reads.len()
            ));
        }
        draws.iter().map(|&d| (0, eligible_reads[d].clone())).unzip()
    };

    let cache = if write_site {
        let (cache, d) = tracer
            .span("vfs.checkpoint_build", || TraceCheckpoints::build_for_demand(ops, &targets));
        let cache = cache.map_err(|e| format!("checkpoint build: {e}"))?;
        ctx.metrics.set("vfs.checkpoint_build_ms", ms(d));
        ctx.metrics.set("vfs.checkpoint_points", cache.points().len() as f64);
        Some(cache)
    } else {
        None
    };

    // Golden sub-step artifacts (the memo layer's clean inputs).
    let substeps = if spec.memo { app.analyze_substeps() } else { None };
    let mut golden_artifacts = Vec::new();
    if let Some(specs) = &substeps {
        let fs = base.fork();
        for i in 0..specs.len() {
            golden_artifacts
                .push(tracer.span(names.substep, || app.analyze_substep(&fs, i, Some(&golden))).0?);
        }
    }

    // Sampled fault-free runs: each must classify Benign.
    let (mut run_d, mut fork_d, mut tail_d, mut tail_ops, mut analyze_d) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let samples = SAMPLED_RUNS.min(spec.runs);
    for k in (0..samples).map(|s| s * spec.runs / samples) {
        let (outcome, d) = tracer.span("core.run", || -> Result<Outcome, String> {
            let forked = match &cache {
                Some(cache) => {
                    let point = cache.nearest_before(targets[k]);
                    let ((ffs, mut cursor), d) =
                        tracer.span("vfs.mount_fork", || point.mount_fork());
                    fork_d.push(us(d));
                    let suffix = cache.suffix(point);
                    // With sub-steps, the tail keeps only paths a dirty
                    // sub-step reads, as the memoized batched arm does.
                    let (r, d) = tracer.span("vfs.tail_replay", || match &substeps {
                        Some(specs) => {
                            let dirty: Vec<&ffis_core::SubstepSpec> = specs
                                .iter()
                                .filter(|s| paths[k].as_deref().is_some_and(|p| s.reads(p)))
                                .collect();
                            let keep = |path: &str| dirty.iter().any(|s| s.reads(path));
                            cursor.replay_coalesced_filtered(&*ffs, suffix, &keep)
                        }
                        None => cursor.replay_coalesced(&*ffs, suffix),
                    });
                    let stats = r.map_err(|e| format!("tail replay: {e}"))?;
                    tail_d.push(us(d));
                    tail_ops.push(stats.replayed_ops as f64);
                    Forked::Mount(ffs)
                }
                None => {
                    let (fs, d) = tracer.span("vfs.memfs_fork", || base.fork());
                    fork_d.push(us(d));
                    Forked::Mem(fs)
                }
            };
            let fs = forked.fs();
            let out = match &substeps {
                Some(specs) => {
                    let mut artifacts = golden_artifacts.clone();
                    for (i, s) in specs.iter().enumerate() {
                        if paths[k].as_deref().is_some_and(|p| s.reads(p)) {
                            artifacts[i] = tracer
                                .span(names.substep, || app.analyze_substep(fs, i, Some(&golden)))
                                .0?;
                        }
                    }
                    tracer.span(names.assemble, || app.assemble(&artifacts, Some(&golden))).0?
                }
                None => {
                    let (out, d) = tracer.span(names.analyze, || app.analyze(fs, Some(&golden)));
                    analyze_d.push(ms(d));
                    out?
                }
            };
            Ok(tracer.span(names.classify, || app.classify(&golden, &out)).0)
        });
        match outcome? {
            Outcome::Benign => run_d.push(ms(d)),
            other => return Err(format!("fault-free run {k} classified {other:?}")),
        }
    }

    let m = &mut ctx.metrics;
    m.set("core.run_ms_p50", median(&run_d));
    m.set("core.run_ms_p95", quantile(&run_d, 0.95));
    m.set("vfs.fork_us_p50", median(&fork_d));
    m.set("vfs.fork_us_p95", quantile(&fork_d, 0.95));
    m.set("vfs.tail_replay_us_p50", median(&tail_d));
    m.set("vfs.tail_ops_p50", median(&tail_ops));
    match layer {
        "nyx-sim" => {
            m.set("nyx-sim.analyze_ms_p50", median(&analyze_d));
            m.set("nyx-sim.analyze_ms_p95", quantile(&analyze_d, 0.95));
            nyx_probe(ctx, &base.fork())
        }
        "montage-sim" => montage_probe(ctx, &base.fork()),
        _ => Ok(()),
    }
}

/// The HDF5 decode and the halo finder on their own, over the golden
/// plotfile.
fn nyx_probe(ctx: &mut Ctx<'_>, fs: &MemFs) -> Result<(), String> {
    let tracer = ctx.tracer;
    let (mut read_d, mut halo_d, mut decoded) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..3 {
        let (info, d) = tracer.span("hdf5lite.read_dataset", || {
            hdf5lite::read_dataset(fs, &nyx_sim::plotfile_path(0), nyx_sim::DATASET)
        });
        let info = info.map_err(|e| format!("read_dataset: {e}"))?;
        read_d.push(ms(d));
        decoded = (info.values.len() * std::mem::size_of::<f64>()) as f64 / MIB;
        let dims = match info.dims[..] {
            [a, b, c] => [a as usize, b as usize, c as usize],
            _ => return Err(format!("plotfile dataset of rank {}", info.dims.len())),
        };
        let finder = NyxConfig::paper_scale().finder;
        let (_, d) =
            tracer.span("nyx-sim.find_halos", || nyx_sim::find_halos(&info.values, dims, &finder));
        halo_d.push(ms(d));
    }
    ctx.metrics.set("hdf5lite.read_dataset_ms", median(&read_d));
    ctx.metrics.set("hdf5lite.decoded_mib", decoded);
    ctx.metrics.set("nyx-sim.find_halos_ms", median(&halo_d));
    Ok(())
}

/// The FITS reader on its own, over the golden mosaic of each tile
/// (at most eight).
fn montage_probe(ctx: &mut Ctx<'_>, fs: &MemFs) -> Result<(), String> {
    let tiles = ctx.spec.files.max(1);
    let mut read_d = Vec::new();
    for t in 0..tiles.min(8) {
        let path = if tiles == 1 {
            montage_sim::MOSAIC.to_string()
        } else {
            format!("/tile{t}{}", montage_sim::MOSAIC)
        };
        let (img, d) = ctx.tracer.span("fitslite.read_fits", || fitslite::read_fits(fs, &path));
        img.map_err(|e| format!("read_fits {path}: {}", e.0))?;
        read_d.push(ms(d));
    }
    ctx.metrics.set("fitslite.read_fits_ms", median(&read_d));
    Ok(())
}

/// Re-append the warm-up campaign's journal records through the
/// public `RunJournal` API into a fresh journal.
fn journal_probe(ctx: &mut Ctx<'_>, src: &Path, work: &Path) {
    let result = (|| -> Result<(f64, f64), String> {
        let (meta, _) = scan(src).map_err(|e| e.to_string())?;
        let (_, entries) = RunJournal::resume(src, &meta).map_err(|e| e.to_string())?;
        if entries.len() as u64 != meta.runs {
            return Err(format!("journal holds {} of {} runs", entries.len(), meta.runs));
        }
        let dst = work.join("journal-copy");
        let mut journal = RunJournal::create(&dst, meta).map_err(|e| e.to_string())?;
        let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).map_err(|e| e.to_string());
        let header = size(&dst)?;
        let mut append_d = Vec::new();
        for e in entries.values() {
            let (ok, d) = ctx.tracer.span("core.journal_append", || {
                journal.append(e.index, e.outcome, e.fired, &e.payload)
            });
            if !ok {
                return Err("journal append failed".into());
            }
            append_d.push(us(d));
        }
        let bytes = size(&dst)? - header;
        let _ = std::fs::remove_file(&dst);
        Ok((median(&append_d), bytes as f64 / entries.len() as f64))
    })();
    let _ = std::fs::remove_file(src);
    match result {
        Ok((append_us, bytes_per_run)) => {
            ctx.metrics.set("core.journal_append_us_p50", append_us);
            ctx.metrics.set("core.journal_bytes_per_run", bytes_per_run);
        }
        Err(e) => ctx.problems.push(format!("journal probe: {e}")),
    }
}
