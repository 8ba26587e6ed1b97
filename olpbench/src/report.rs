//! What a run measured, the metrics derived from it, and the one-line
//! JSON result.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload's untraced run:
/// `(name, unit)`. Latencies are of the workload's operation (see
/// README.md), percentiles by [`stats::percentile`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MiB"),
];

/// The percentiles [`END_TO_END`] reports.
pub const PERCENTILES: [usize; 2] = [50, 90];

/// Per-layer metrics, printed by every workload's traced run. Layer
/// self time is reported as a share of the traced operation time, so a
/// layer a workload never enters reads 0 % rather than a time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.cpu_ms_per_op", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("parser.share_pct", "%"),
    ("analyze.share_pct", "%"),
    ("ground.share_pct", "%"),
    ("flat.share_pct", "%"),
    ("semantics.share_pct", "%"),
    ("kb.share_pct", "%"),
    ("store.share_pct", "%"),
    ("server.share_pct", "%"),
    ("semantics.truth_pct", "%"),
    ("semantics.pattern_pct", "%"),
    ("semantics.why_pct", "%"),
    ("semantics.stable_pct", "%"),
    ("semantics.skeptical_pct", "%"),
    ("semantics.credulous_pct", "%"),
    ("ground.rules", "count"),
    ("core.atoms", "count"),
    ("kb.write_drift", "x"),
    ("store.wal_bytes_per_write", "B"),
    ("server.idle_cpu_pct", "%"),
    ("loadgen.late_over_1ms_pct", "%"),
    ("loadgen.backlog_end", "count"),
];

/// The layers whose self time [`PER_LAYER`] reports as a share.
pub const LAYERS: &[&str] = &[
    "parser",
    "analyze",
    "ground",
    "flat",
    "semantics",
    "kb",
    "store",
    "server",
];

/// The read classes whose self time [`PER_LAYER`] reports as a share.
pub const CLASSES: &[&str] = &[
    "truth",
    "pattern",
    "why",
    "stable",
    "skeptical",
    "credulous",
];

/// One completed operation of the measured loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it completed, in seconds since the loop started.
    pub done_s: f64,
    /// Its latency, in ms.
    pub lat_ms: f64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the measured loop.
    pub attempted: u64,
    /// Operations refused, errored, unanswered or answered wrongly.
    pub failed: u64,
    /// Oracle violations (a few examples; empty when all answers were
    /// right).
    pub wrong: Vec<String>,
    /// Duration of each set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Every completed operation, in completion order.
    pub samples: Vec<Sample>,
    /// Cumulative CPU time of the process doing the work, in seconds,
    /// against seconds since the loop started; starts at `(0, 0)`.
    pub cpu: Vec<(f64, f64)>,
    /// Whether requests arrive on a schedule (open loop) rather than
    /// one after another (closed loop).
    pub open_loop: bool,
    /// Peak resident memory of the process doing the work, in MiB.
    pub peak_rss_mib: f64,
    /// The traced run's per-layer values, keyed like [`PER_LAYER`].
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

/// At most this many blocks per run (see [`Outcome::end_to_end`]).
const MAX_BLOCKS: usize = 40;

impl Outcome {
    /// Records one oracle violation (keeping the first few examples).
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }

    /// Records a closed-loop operation that completed `done_s` into the
    /// loop after `lat_ms` and `cpu_s` of this process's CPU time.
    pub fn record(&mut self, done_s: f64, lat_ms: f64, cpu_s: f64) {
        self.samples.push(Sample { done_s, lat_ms });
        let total = self.cpu.last().map_or(0.0, |c| c.1) + cpu_s;
        if self.cpu.is_empty() {
            self.cpu.push((0.0, 0.0));
        }
        self.cpu.push((done_s, total));
    }

    /// Latency percentiles, throughput and CPU time per operation.
    ///
    /// The run's operations are cut into consecutive blocks of at least
    /// [`stats::min_samples`] of the highest percentile (at most
    /// [`MAX_BLOCKS`]) and each value is computed per block. The run
    /// reports the quieter quartile over blocks: the first quartile of a
    /// latency or a CPU time, the third of a throughput. Other tenants of
    /// a shared host slow it by up to twofold for stretches of seconds,
    /// at times for most of a run; such a stretch moves the blocks it
    /// covers, and the quieter quartile only once it covers three
    /// quarters of them, while a change to the program moves every
    /// block.
    fn block_values(&self) -> [f64; 4] {
        let per_block = stats::min_samples(PERCENTILES[1]);
        let n_blocks = (self.samples.len() / per_block).clamp(1, MAX_BLOCKS);
        let mut rows: [Vec<f64>; 4] = Default::default();
        let mut start_s = 0.0;
        for b in 0..n_blocks {
            let block = &self.samples
                [b * self.samples.len() / n_blocks..(b + 1) * self.samples.len() / n_blocks];
            let end_s = block.last().map_or(start_s, |s| s.done_s);
            let lat: Vec<f64> = block.iter().map(|s| s.lat_ms).collect();
            let busy_s = if self.open_loop {
                end_s - start_s
            } else {
                lat.iter().sum::<f64>() / 1e3
            };
            let cpu_s = cpu_at(&self.cpu, end_s) - cpu_at(&self.cpu, start_s);
            let n = block.len() as f64;
            for (row, v) in rows.iter_mut().zip([
                stats::percentile(&lat, PERCENTILES[0]),
                stats::percentile(&lat, PERCENTILES[1]),
                n / busy_s,
                cpu_s * 1e3 / n,
            ]) {
                row.push(v);
            }
            start_s = end_s;
        }
        let [p50, p90, ops, cpu] = rows;
        [
            stats::quartile(&p50, 1),
            stats::quartile(&p90, 1),
            stats::quartile(&ops, 3),
            stats::quartile(&cpu, 1),
        ]
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let [p50, p90, ops, _] = self.block_values();
        let values = [
            stats::median(&self.setups_s),
            p50,
            p90,
            ops,
            self.peak_rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order; a value the
    /// workload did not produce (a layer it never enters) is 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let cpu = self.block_values()[3];
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "process.cpu_ms_per_op" => cpu,
                    _ => self.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, v, unit)
            })
            .collect()
    }
}

/// Cumulative CPU seconds at `t`, interpolated linearly between the
/// samples of `series` (sorted by time).
fn cpu_at(series: &[(f64, f64)], t: f64) -> f64 {
    let i = series.partition_point(|p| p.0 < t);
    match (series.get(i.wrapping_sub(1)), series.get(i)) {
        (Some(a), Some(b)) if b.0 > a.0 => a.1 + (b.1 - a.1) * (t - a.0) / (b.0 - a.0),
        (_, Some(b)) => b.1,
        (Some(a), None) => a.1,
        (None, None) => 0.0,
    }
}

/// Per-layer values from a traced run.
///
/// `op_ms` holds the latency of every traced operation and
/// `untraced_ms` of every untraced one (the traced run alternates).
/// `self_ms` maps span names to their summed self time over the traced
/// operations; the `op` entry is time inside an operation that no
/// layer span covers.
pub fn layer_values(
    op_ms: &[f64],
    untraced_ms: &[f64],
    self_ms: &BTreeMap<&'static str, f64>,
) -> BTreeMap<String, f64> {
    let total: f64 = op_ms.iter().sum();
    let share = |ms: f64| 100.0 * ms / total;
    let mut out = BTreeMap::new();
    out.insert("trace.op_ms".to_string(), stats::mean(op_ms));
    out.insert(
        "trace.overhead_pct".to_string(),
        100.0 * (stats::mean(op_ms) / stats::mean(untraced_ms) - 1.0),
    );
    let layer_ms = |layer: &str| -> f64 {
        self_ms
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .fold(0.0, |sum, (_, ms)| sum + ms)
    };
    out.insert("trace.unattributed_pct".to_string(), share(layer_ms("op")));
    for layer in LAYERS {
        out.insert(format!("{layer}.share_pct"), share(layer_ms(layer)));
    }
    for class in CLASSES {
        let name = format!("semantics.{class}");
        let ms = self_ms.get(name.as_str()).copied().unwrap_or(0.0);
        out.insert(format!("{name}_pct"), share(ms));
    }
    out
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": v, "unit": u}, …}}`. Values keep every
/// digit Rust's shortest round-trip formatting gives.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A result line read back (the inverse of [`json_line`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a line written by [`json_line`].
pub fn parse_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for part in body.split("}, ") {
        let (name, rest) = part
            .trim_start_matches(['{', '"'])
            .split_once("\": {\"value\": ")?;
        let (value, rest) = rest.split_once(", \"unit\": \"")?;
        let unit = rest.split('"').next()?;
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let m = [("p50_ms", 1.203_456_789, "ms"), ("setup_s", 0.8127, "s")];
        let line = json_line(true, 1000, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let p = parse_line(&line).unwrap();
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (1000, 0));
        assert_eq!(
            p.metrics[0],
            ("p50_ms".to_string(), 1.203456789, "ms".to_string())
        );
        assert_eq!(p.metrics[1].0, "setup_s");
    }

    #[test]
    fn end_to_end_values_are_quiet_quartiles_over_blocks() {
        let mut out = Outcome {
            setups_s: vec![0.3, 0.1, 0.2],
            peak_rss_mib: 5.0,
            ..Outcome::default()
        };
        // 1000 closed-loop operations of 1 ms and 1 ms of CPU each (ten
        // blocks of 100), slowed twofold over six of the blocks: the
        // median over blocks would report the slow value.
        let mut done = 0.0;
        for i in 0..1000 {
            let slow = if (100..700).contains(&i) { 2.0 } else { 1.0 };
            done += slow * 1e-3;
            out.record(done, slow, slow * 1e-3);
        }
        let m: BTreeMap<&str, f64> = out
            .end_to_end()
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["p50_ms"], 1.0);
        assert_eq!(m["p90_ms"], 1.0);
        assert!((m["ops_per_s"] - 1000.0).abs() < 1e-6);
        assert_eq!(m["peak_rss_mb"], 5.0);
        let cpu = out.per_layer()[0];
        assert_eq!(cpu.0, "process.cpu_ms_per_op");
        assert!((cpu.1 - 1.0).abs() < 1e-6);
        // Fewer samples than a block: one block, the whole run.
        let mut few = Outcome::default();
        few.record(0.5, 2.0, 0.002);
        few.record(1.0, 4.0, 0.004);
        assert_eq!(few.end_to_end()[1].1, 3.0);
        assert!((few.per_layer()[0].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_is_interpolated_between_samples() {
        let series = [(0.0, 0.0), (1.0, 0.5), (3.0, 1.5)];
        assert_eq!(cpu_at(&series, 0.0), 0.0);
        assert_eq!(cpu_at(&series, 2.0), 1.0);
        assert_eq!(cpu_at(&series, 5.0), 1.5);
        assert_eq!(cpu_at(&[], 1.0), 0.0);
    }

    #[test]
    fn layer_shares_add_up() {
        let mut own = BTreeMap::new();
        own.insert("op", 1.0);
        own.insert("ground.ground", 6.0);
        own.insert("semantics.truth", 3.0);
        let v = layer_values(&[4.0, 6.0], &[4.0, 5.0], &own);
        assert_eq!(v["trace.op_ms"], 5.0);
        assert!((v["trace.overhead_pct"] - 100.0 / 9.0).abs() < 1e-9);
        assert_eq!(v["ground.share_pct"], 60.0);
        assert_eq!(v["semantics.share_pct"], 30.0);
        assert_eq!(v["semantics.truth_pct"], 30.0);
        assert_eq!(v["trace.unattributed_pct"], 10.0);
        assert_eq!(v["kb.share_pct"], 0.0);
    }

    #[test]
    fn metric_tables_match_the_benchmark_description() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        let v = layer_values(&[1.0], &[1.0], &BTreeMap::new());
        for name in v
            .keys()
            .map(String::as_str)
            .chain(["process.cpu_ms_per_op"])
        {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} undeclared"
            );
        }
    }
}
