//! One untraced campaign iteration, run through the
//! public entry points: [`ffis_daemon::execute_spec`] in-process, or a
//! fresh in-process daemon driven over HTTP by [`ffis_daemon::Client`].
//! Every iteration starts cold (fresh checkpoint and memo stores, a
//! fresh daemon root), so iterations are independent.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ffis_core::{
    CampaignResult, CampaignSpec, CancelToken, CompletionStatus, JobState, RunObserver,
};
use ffis_daemon::{execute_spec, Client, Daemon, DaemonConfig, ExecHooks, StreamEvent};
use ffis_vfs::{CheckpointStore, MemoStore};

use crate::procstat::ProcSample;

/// How far an iteration runs its campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// To the end: a timed iteration.
    Done,
    /// Cancelled once the first run lands: a set-up probe, which
    /// measures `setup_s` of the same spec without paying for its runs.
    FirstRun,
}

/// What one iteration measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// A set-up probe: only `setup_s` and `plan_fingerprint` count.
    pub probe: bool,
    /// Campaign call (or HTTP submit) to the first run event, seconds.
    pub setup_s: f64,
    /// Campaign call (or submit) to the result (or `done`), seconds.
    pub wall_s: f64,
    /// Planned runs.
    pub runs: usize,
    /// Process counters over the run phase (first run event to end).
    pub run_phase: ProcSample,
    /// [`CampaignResult::run_digest`].
    pub run_digest: u64,
    /// [`CampaignResult::plan_fingerprint`].
    pub plan_fingerprint: u64,
    /// `Client::submit` round trip, seconds (daemon only).
    pub submit_s: f64,
    /// Last run event to `done`, seconds (daemon only).
    pub done_lag_s: f64,
    /// Every correctness violation seen; empty when the iteration is good.
    pub problems: Vec<String>,
}

impl Iteration {
    /// Runs per second of the run phase.
    pub fn runs_per_s(&self) -> f64 {
        self.runs as f64 / (self.wall_s - self.setup_s).max(1e-9)
    }

    /// Process CPU per run over the run phase, milliseconds.
    pub fn cpu_ms_per_run(&self) -> f64 {
        self.run_phase.cpu_s() * 1e3 / self.runs.max(1) as f64
    }

    fn failed(spec: &CampaignSpec, until: Until, problem: String) -> Iteration {
        Iteration {
            probe: until == Until::FirstRun,
            runs: spec.runs,
            problems: vec![problem],
            ..Iteration::default()
        }
    }
}

/// Marks the first run event: its time and the process counters then.
type FirstEvent = Arc<OnceLock<(Instant, ProcSample)>>;

fn mark_first(first: &FirstEvent) {
    first.get_or_init(|| (Instant::now(), ProcSample::now()));
}

/// Check a finished campaign against the plan: complete, every run
/// executed and tallied.
pub fn check_result(spec: &CampaignSpec, result: &CampaignResult) -> Vec<String> {
    let mut problems = Vec::new();
    if result.status != CompletionStatus::Complete {
        problems.push(format!("campaign ended {:?}, not Complete", result.status));
    }
    if result.tally.total() != spec.runs as u64 {
        problems.push(format!("tally total {} != runs {}", result.tally.total(), spec.runs));
    }
    if result.executed != spec.runs {
        problems.push(format!("executed {} of {} runs", result.executed, spec.runs));
    }
    problems
}

/// Cold stores for one independent iteration.
pub fn cold_hooks() -> ExecHooks {
    ExecHooks {
        checkpoints: Some(Arc::new(CheckpointStore::new())),
        memo: Some(Arc::new(MemoStore::in_memory())),
        ..ExecHooks::default()
    }
}

/// One in-process campaign through [`execute_spec`].
pub fn in_process(
    spec: &CampaignSpec,
    mut hooks: ExecHooks,
    until: Until,
) -> (Iteration, Option<CampaignResult>) {
    let probe = until == Until::FirstRun;
    if probe {
        hooks.cancel = Some(CancelToken::after_runs(1));
    }
    let first: FirstEvent = Arc::default();
    let events = Arc::new(AtomicU64::new(0));
    hooks.observer = Some({
        let (first, events) = (Arc::clone(&first), Arc::clone(&events));
        RunObserver::new(move |_, _| {
            mark_first(&first);
            events.fetch_add(1, Ordering::Relaxed);
        })
    });
    let t0 = Instant::now();
    let result = execute_spec(spec, &hooks);
    let t1 = Instant::now();
    let p1 = ProcSample::now();
    let result = match result {
        Ok(r) => r,
        Err(e) => return (Iteration::failed(spec, until, format!("campaign error: {e}")), None),
    };
    let mut it = Iteration {
        probe,
        runs: spec.runs,
        wall_s: (t1 - t0).as_secs_f64(),
        run_digest: result.run_digest(),
        plan_fingerprint: result.plan_fingerprint,
        problems: if probe { Vec::new() } else { check_result(spec, &result) },
        ..Iteration::default()
    };
    match first.get() {
        Some(&(t, p)) => {
            it.setup_s = (t - t0).as_secs_f64();
            it.run_phase = p1.since(&p);
        }
        None => it.problems.push("no run event observed".into()),
    }
    let seen = events.load(Ordering::Relaxed);
    if !probe && seen != spec.runs as u64 {
        it.problems.push(format!("{seen} run events for {} runs", spec.runs));
    }
    (it, Some(result))
}

/// One campaign submitted over HTTP to a fresh in-process daemon (one
/// worker slot) rooted at `root`, streamed to `done`. The daemon is
/// shut down and its root removed before returning.
pub fn via_daemon(spec: &CampaignSpec, root: &Path, until: Until) -> Iteration {
    let _ = std::fs::remove_dir_all(root);
    let mut config = DaemonConfig::new(root);
    config.workers = 1;
    let mut daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => return Iteration::failed(spec, until, format!("daemon start: {e}")),
    };
    let it = submit_and_watch(spec, &Client::new(daemon.addr().to_string()), until);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(root);
    it
}

fn submit_and_watch(spec: &CampaignSpec, client: &Client, until: Until) -> Iteration {
    let probe = until == Until::FirstRun;
    let t0 = Instant::now();
    let id = match client.submit(spec) {
        Ok(id) => id,
        Err(e) => return Iteration::failed(spec, until, format!("submit: {e}")),
    };
    let submitted = Instant::now();
    let mut first: Option<(Instant, ProcSample)> = None;
    let mut last_run = t0;
    let mut done_at = None;
    let mut seen = vec![false; spec.runs];
    let mut problems = Vec::new();
    let view = client.watch_live(id, |event| match event {
        StreamEvent::Run { run, resumed, .. } => {
            let now = Instant::now();
            if first.is_none() {
                first = Some((now, ProcSample::now()));
                if probe {
                    if let Err(e) = client.cancel(id) {
                        problems.push(format!("cancel: {e}"));
                    }
                }
            }
            last_run = now;
            match seen.get_mut(*run) {
                Some(slot) if !*slot && !*resumed => *slot = true,
                _ => problems.push(format!("unexpected run event {run} (resumed: {resumed})")),
            }
        }
        StreamEvent::Done(_) => done_at = Some(Instant::now()),
        StreamEvent::Snapshot(_) => {}
    });
    let p1 = ProcSample::now();
    let view = match view {
        Ok(v) => v,
        Err(e) => return Iteration::failed(spec, until, format!("watch: {e}")),
    };
    let done_at = done_at.unwrap_or_else(Instant::now);
    let missing = seen.iter().filter(|s| !**s).count();
    if !probe && missing > 0 {
        problems.push(format!("{missing} run events missing"));
    }
    if !probe && view.state != JobState::Complete {
        problems.push(format!("job ended {:?}, not Complete", view.state));
    }
    if !probe && view.tally.total() != spec.runs as u64 {
        problems.push(format!("tally total {} != runs {}", view.tally.total(), spec.runs));
    }
    let (run_digest, plan_fingerprint) = match (view.run_digest, view.plan_fingerprint) {
        (Some(d), Some(f)) => (d, f),
        _ if probe => (0, 0),
        _ => {
            problems.push("job view without run digest or plan fingerprint".into());
            (0, 0)
        }
    };
    if first.is_none() {
        problems.push("no run event observed".into());
    }
    let (first_at, first_proc) = first.unwrap_or((done_at, p1));
    Iteration {
        probe,
        setup_s: (first_at - t0).as_secs_f64(),
        wall_s: (done_at - t0).as_secs_f64(),
        runs: spec.runs,
        run_phase: p1.since(&first_proc),
        run_digest,
        plan_fingerprint,
        submit_s: (submitted - t0).as_secs_f64(),
        done_lag_s: (done_at - last_run).as_secs_f64(),
        problems,
    }
}
