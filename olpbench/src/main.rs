//! `olpbench` — the end-to-end and per-layer benchmark of the
//! ordered-logic system.
//!
//! ```text
//! olpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--runs R]
//! ```
//!
//! Runs one named workload (see README.md), checks every answer against
//! an oracle independent of the engine, prints a summary on stderr and,
//! as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` makes a separate traced run that
//! reports the per-layer metrics and writes its spans as JSON lines next
//! to the build. `--runs R` repeats the run in R child processes on
//! seeds N, N+1, … and prints each metric's median and quartiles.
//! A wrong answer exits 1.

mod cold_ancestor;
mod mutation_stream;
mod query_mix;
mod report;
mod rng;
mod server_mixed;
mod stats;
mod sys;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// A workload's run.
type Workload = fn(&RunCfg) -> Result<Outcome, String>;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("cold_ancestor", cold_ancestor::run),
    ("query_mix", query_mix::run),
    ("mutation_stream", mutation_stream::run),
    ("server_mixed", server_mixed::run),
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunCfg {
    /// Whether operation `op` is traced: every other one in the traced
    /// run, so the untraced rest measures the tracing overhead.
    pub fn traced(&self, op: u64) -> bool {
        self.trace && op % 2 == 1
    }

    /// The loop clock for a workload that reports percentile `p`.
    pub fn clock(&self, p: usize) -> Clock {
        Clock {
            start: Instant::now(),
            seconds: self.seconds,
            min_ops: stats::min_samples(p),
        }
    }

    /// Writes the traced run's spans and its self-time table.
    pub fn finish_trace(
        &self,
        t: &Tracer,
        workload: &str,
        out: &mut Outcome,
    ) -> Result<(), String> {
        if !t.is_on() {
            return Ok(());
        }
        let path = work_dir()?.join(format!("trace-{workload}-{}.jsonl", self.seed));
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes.push(format!("spans: {}", path.display()));
        out.notes.push(t.summary());
        Ok(())
    }
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Ends a closed loop once `seconds` have passed and the reported
/// percentiles have at least ten samples beyond them, or at three times
/// `seconds` whatever the count.
pub struct Clock {
    start: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Clock {
    /// Whether set-up number `done` (from 0) is due: the first at once,
    /// the others evenly across `seconds`. Other tenants slow this kind
    /// of host for seconds at a time; set-ups made back to back would
    /// all land in one such stretch, spread out they sample the run as
    /// the loop's blocks do.
    pub fn setup_due(&self, done: usize) -> bool {
        done < SETUPS
            && self.start.elapsed().as_secs_f64() >= self.seconds * done as f64 / SETUPS as f64
    }

    /// Seconds from the start of the loop to `at`.
    pub fn seconds(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Whether the loop is over after `done` operations.
    pub fn done(&self, done: usize) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        (t >= self.seconds && done >= self.min_ops) || t >= 3.0 * self.seconds
    }
}

/// Where runs keep their scratch files and span files: a directory in
/// the build's target directory, next to the binary.
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("the binary has no target directory")?
        .join("olpbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

const USAGE: &str =
    "usage: olpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--runs R]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        runs: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => a.runs = val.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == a.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) || a.runs == 0 {
        return Err("--seconds and --runs must be positive".to_string());
    }
    Ok(a)
}

/// Worker threads of the engine, in this process and in the `olp serve`
/// it starts. At the sizes measured a second thread does not shorten an
/// operation, but it does make each one wait for both of a small host's
/// CPUs: on a 2-vCPU host shared with other tenants, ten `cold_ancestor`
/// runs spread their median by 60 % at two threads and by 4 % at one.
const ENGINE_THREADS: &str = "1";

fn main() -> ExitCode {
    // Set before any thread starts; children inherit it.
    std::env::set_var("OLP_THREADS", ENGINE_THREADS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("olpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.runs > 1 {
        return repeat(&args, &argv);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let run = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("checked")
        .1;
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("olpbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let metrics = if cfg.trace {
        out.per_layer()
    } else {
        out.end_to_end()
    };
    eprintln!(
        "olpbench {} seed={} seconds={} trace={} threads={}: {} ops, {} failed, {} set-ups",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(cfg.trace),
        ordered_logic::kb::default_threads(),
        out.attempted,
        out.failed,
        out.setups_s.len()
    );
    for n in &out.notes {
        eprintln!("{}", n.trim_end());
    }
    for w in &out.wrong {
        eprintln!("WRONG: {w}");
    }
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<28} {v:>14.4} {unit}");
    }
    if let Some((name, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("olpbench: {name} was not measured");
        return ExitCode::from(1);
    }
    let correct = out.wrong.is_empty();
    println!(
        "{}",
        report::json_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--runs R`: the same run in R child processes on consecutive seeds,
/// then each metric's quartiles and the spread `(q3 - q1) / median`.
fn repeat(args: &Args, argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("olpbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut base: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let (Some(flag), Some(val)) = (it.next(), it.next()) {
        if flag != "--runs" && flag != "--seed" {
            base.extend([flag.clone(), val.clone()]);
        }
    }
    let mut results = Vec::new();
    for i in 0..args.runs as u64 {
        let seed = args.seed + i;
        let child = std::process::Command::new(&exe)
            .args(&base)
            .args(["--seed", &seed.to_string()])
            .stderr(std::process::Stdio::null())
            .output();
        let parsed = child.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .and_then(report::parse_line)
        });
        match parsed {
            Some(p) => {
                eprintln!(
                    "run {} (seed {seed}): {} ops, {} failed",
                    i + 1,
                    p.attempted,
                    p.failed
                );
                results.push(p);
            }
            None => {
                eprintln!("olpbench: run with seed {seed} failed");
                return ExitCode::from(1);
            }
        }
    }
    let mut summary = Vec::new();
    eprintln!(
        "{:<28} {:>12} {:>12} {:>12} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (k, (name, _, unit)) in results[0].metrics.iter().enumerate() {
        let values: Vec<f64> = results.iter().map(|r| r.metrics[k].1).collect();
        let s = stats::Spread::of(&values);
        eprintln!(
            "{name:<28} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {unit}",
            s.q1,
            s.median,
            s.q3,
            100.0 * s.share()
        );
        summary.push((name.as_str(), s.median, unit.as_str()));
    }
    let correct = results.iter().all(|r| r.correct);
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum();
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &summary)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_command_line_follows_the_benchmark_contract() {
        let a = args("--workload query_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query_mix", 7, 10.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload query_mix --trace 2").is_err());
        assert!(args("--workload query_mix --seed").is_err());
        assert!(args("--workload query_mix --bogus 1").is_err());
        assert!(args("--workload query_mix --seconds 0").is_err());
    }

    #[test]
    fn the_clock_waits_for_enough_samples() {
        let c = Clock {
            start: Instant::now() - std::time::Duration::from_secs(2),
            seconds: 1.0,
            min_ops: 100,
        };
        assert!(!c.done(99));
        assert!(c.done(100));
        let late = Clock {
            start: Instant::now() - std::time::Duration::from_secs(4),
            ..c
        };
        assert!(late.done(5));
    }

    #[test]
    fn set_ups_are_spread_across_the_loop() {
        let at = |elapsed: f64| Clock {
            start: Instant::now() - std::time::Duration::from_secs_f64(elapsed),
            seconds: 9.0,
            min_ops: 1,
        };
        assert!(at(0.0).setup_due(0));
        assert!(!at(0.5).setup_due(1));
        assert!(at(1.5).setup_due(1));
        assert!(!at(7.5).setup_due(8));
        assert!(at(8.5).setup_due(8));
        assert!(!at(100.0).setup_due(SETUPS));
    }
}
