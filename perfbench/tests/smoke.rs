//! Smoke test of the benchmark's own code at a tiny grid, so the
//! benchmark cannot rot: every workload runs timed and traced, every
//! catalog metric is reported, the output checks pass, and the counters
//! the catalog labels exact repeat exactly across two traced runs.

use std::path::PathBuf;
use std::process::Command;

use perfbench::catalog::{Repeat, Size, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::{run_timed, traced};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn timed_runs_report_every_end_to_end_metric() {
    let work = work_dir("timed");
    for w in WORKLOADS {
        let report = run_timed(w, 3, 0.01, Size::Tiny, &work);
        assert!(report.correct(), "{}: {:#?}", w.name(), report.lines);
        assert!(
            report.attempted >= 4,
            "{}: warm-up plus at least three timed iterations",
            w.name()
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn traced_runs_repeat_their_exact_counters() {
    let work = work_dir("traced");
    for w in WORKLOADS {
        let a = traced::run(w, 5, Size::Tiny, &work);
        let b = traced::run(w, 5, Size::Tiny, &work);
        for r in [&a, &b] {
            assert!(r.correct(), "{}: {:#?}", w.name(), r.lines);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
        }
        for m in PER_LAYER {
            let (x, y) = (a.value(m.name).unwrap(), b.value(m.name).unwrap());
            match m.repeat {
                Repeat::Exact => assert_eq!(x, y, "{}: {} should repeat exactly", w.name(), m.name),
                Repeat::Varies if x != y => {
                    println!("{}: {} varies ({x} vs {y})", w.name(), m.name)
                }
                _ => {}
            }
        }
        let app_time = a.value(&format!("{}.self_ms", w.app_layer())).unwrap();
        assert!(app_time > 0.0, "{}: no time in its app layer", w.name());
    }
}

#[test]
fn command_refuses_other_regimes_and_bad_flags() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let bench = env!("CARGO_BIN_EXE_perfbench");
    let regime = Command::new(bench)
        .args(["--workload", "montage-mosaic", "--seconds", "1"])
        .current_dir(root)
        .env("FFIS_MEMO", "0")
        .output()
        .unwrap();
    assert_eq!(regime.status.code(), Some(2));
    assert!(regime.stdout.is_empty());
    let bad =
        Command::new(bench).args(["--workload", "nonesuch"]).current_dir(root).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown workload"));
}
