//! Served-search benchmark.
//!
//! ```text
//! servebench --workload <paper_search|private_repeat|ingest_sharded>
//!            --seed N --seconds S --trace <0|1>
//!            --server PATH [--rustc VERSION] [--rev REV]
//! ```
//!
//! Normally started through `servebench/run.py`, which builds the server
//! and this binary first. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the same run is followed by the
//! traced in-process phase and the last line carries the per-layer metrics.
//! Files go under `.bench_work/` (removed at exit) and `.bench_out/` (span
//! dumps) in the current directory.

mod served;
mod server;
mod stats;
mod traced;
mod workload;

use stats::{median, percentile, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    rustc: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let (mut server, mut rustc, mut rev) = (None, "unknown".to_string(), "unknown".to_string());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = value()? == "1",
            "--server" => server = Some(PathBuf::from(value()?)),
            "--rustc" => rustc = value()?,
            "--rev" => rev = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace,
        server: server.ok_or("--server is required")?,
        rustc,
        rev,
    })
}

fn end_to_end(s: &served::Served) -> Report {
    let mut r = Report::default();
    r.put("setup_s", median(&s.setup_s), "s");
    r.put("search_p50_ms", percentile(&s.search_ms, 0.5), "ms");
    r.put("search_p90_ms", percentile(&s.search_ms, 0.9), "ms");
    r.put("searches_per_s", s.searches_per_s, "1/s");
    r.put("register_iqm_ms", stats::interquartile_mean(&s.register_ms), "ms");
    r.put("restart_ms", median(&s.restart_ms), "ms");
    r.put("server_cpu_ms_per_op", s.cpu_ms_per_op, "ms");
    r.put("server_peak_rss_mb", s.peak_rss_mb, "MiB");
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("servebench: {msg}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let out = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(&out)) {
        eprintln!("servebench: create work directories: {e}");
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work, &out);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("servebench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One run; returns the result line.
fn run(args: &Args, work: &std::path::Path, out: &std::path::Path) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# header {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{}\", \"rev\": \"{}\", \"clients\": {}, \
         \"ingest_rate_per_s\": {}, \"corpus_seed\": {}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rustc,
        args.rev,
        if args.kind == Kind::IngestSharded { 1 } else { 2 },
        workload::INGEST_RATE,
        workload::CORPUS_SEED,
    );
    let w = Workload::new(args.kind, args.seed, args.seconds);
    let env = served::Env {
        server_bin: args.server.clone(),
        work: work.to_path_buf(),
        seconds: args.seconds,
    };
    let served = served::run(&env, &w)?;
    let (mut attempted, mut failed) = (served.attempted, served.failed);
    let mut failures = served.failures.clone();
    for note in &served.notes {
        println!("# note: {note}");
    }
    let e2e = end_to_end(&served);
    let traced = if args.trace {
        let spans = out.join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
        let traced = traced::run(&w, &served, work, &spans)?;
        for note in &traced.notes {
            println!("# {note}");
        }
        println!("# spans written to {}", spans.display());
        attempted += traced.replays;
        failed += traced.mismatches.len() as u64;
        failures.extend(traced.mismatches.iter().take(8).cloned());
        Some(traced.report)
    } else {
        None
    };
    println!(
        "# searches {} in {:.2} s, register samples {}, failed {failed}/{attempted} \
         (failed_ratio {})",
        served.search_ms.len(),
        served.timed_s,
        served.register_ms.len(),
        failed as f64 / attempted.max(1) as f64
    );
    for f in &failures {
        println!("# FAILED {f}");
    }
    // The log carries every metric; the result line carries the end-to-end
    // ones, or with tracing on the per-layer ones.
    for (name, value, unit) in e2e.entries().iter().chain(traced.iter().flat_map(Report::entries)) {
        println!("# metric {name} = {value:.6} {unit}");
    }
    let report = traced.as_ref().unwrap_or(&e2e);
    let correct = failed == 0 && report.all_finite();
    Ok(stats::result_line(correct, attempted, failed, report))
}
