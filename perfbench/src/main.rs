//! Command-line entry point; see the library docs.

use std::path::Path;
use std::process::ExitCode;

use perfbench::catalog::{check_benchmark_json, Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use perfbench::{environment, run_timed, traced, REGIME_VARS};

const USAGE: &str = "usage: perfbench --workload <nyx-write|montage-mosaic|daemon-qmc> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Scratch space for daemon roots, journals and span files, relative
/// to the checkout the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("not a duration"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REGIME_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; the benchmark is defined with the default regime only");
        return ExitCode::from(2);
    }
    let catalog_check = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| check_benchmark_json(&text));
    if let Err(e) = catalog_check {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let work = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(work) {
        eprintln!("perfbench: {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }

    println!("{}", environment());
    println!(
        "workload {} ({}), seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}), {} s, trace {}",
        args.workload.name(),
        args.workload.why(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced::run(args.workload, args.seed, Size::Full, work)
    } else {
        run_timed(args.workload, args.seed, args.seconds, Size::Full, work)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
