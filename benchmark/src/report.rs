//! The parent side of a run: generate inputs, spawn the measured
//! child, read its report, print it — and `aa`, which repeats the
//! untraced suite on one build and applies the acceptance rule.

use crate::inputs::{self, Plan};
use crate::json::{self, Value};
use crate::spec::{self, Workload};
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One run of one workload, as the parent sees it.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    pub window_s: f64,
    /// Whole run, input generation and verification included.
    pub wall_s: f64,
    /// Every declared metric of the run's kind, in spec order.
    pub metrics: Vec<(String, f64)>,
    /// Span name → (calls, total ms, self ms); traced runs only.
    pub spans: Vec<(String, f64, f64, f64)>,
    pub failures: Vec<String>,
}

/// Everything a run leaves behind lives under the package's ignored
/// `out/`: inputs (removed after the run) and the span files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload once: inputs from the seed here, measurement in a
/// child process of its own.
pub fn run_one(w: &Workload, opts: &RunOpts) -> Result<Report, String> {
    let started = Instant::now();
    // Per-process input directory: concurrent invocations never share files.
    let dir = out_dir()
        .join("inputs")
        .join(std::process::id().to_string());
    let result = spawn_child(w, opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = result?;
    report.wall_s = started.elapsed().as_secs_f64();
    Ok(report)
}

fn spawn_child(w: &Workload, opts: &RunOpts, dir: &Path) -> Result<Report, String> {
    let plan = inputs::generate(w, opts.seed, opts.smoke, dir)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let plan_path = Plan::path_for(dir, w.name, opts.seed);
    plan.write(&plan_path)
        .map_err(|e| format!("writing the plan: {e}"))?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .arg("--plan")
        .arg(&plan_path)
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: no process outlives its run.
    let output = command
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{}: measured process failed ({})",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(line).map_err(|e| format!("child report: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("child report lacks {key}"))
    };
    let mut metrics: Vec<(String, f64)> = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("child report lacks metrics")?
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect();
    // Exactly the declared metrics, in the order of the spec tables:
    // every per-layer one (traced), or every end-to-end one and the
    // ungated p95 (untraced).
    let declared: Vec<&str> = if opts.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(spec::UNGATED.iter().map(|m| m.name))
            .collect()
    };
    for name in &declared {
        if !metrics.iter().any(|(n, _)| n == name) {
            return Err(format!("{}: metric {name} was not measured", w.name));
        }
    }
    if let Some((name, _)) = metrics
        .iter()
        .find(|(n, _)| !declared.contains(&n.as_str()))
    {
        return Err(format!(
            "{}: child reported an undeclared metric {name}",
            w.name
        ));
    }
    metrics.sort_by_key(|(name, _)| declared.iter().position(|d| d == name));
    let spans = doc
        .get("spans")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, v)| {
            let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            (name.clone(), f("calls"), f("total_ms"), f("self_ms"))
        })
        .collect();
    Ok(Report {
        workload: w.name.to_string(),
        seed: opts.seed,
        traced: opts.trace,
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        samples: num("samples")? as u64,
        window_s: num("window_s")?,
        wall_s: 0.0,
        metrics,
        spans,
        failures: doc
            .get("failures")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
    })
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The result object of the driver's contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every
    /// end-to-end one (untraced) or every per-layer one (traced) and
    /// nothing `BENCHMARK.json` does not name.
    pub fn driver_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value(false)),
        ])
    }

    fn metrics_value(&self, with_ungated: bool) -> Value {
        let ungated = |name: &str| spec::UNGATED.iter().any(|m| m.name == name);
        let kept = self
            .metrics
            .iter()
            .filter(|(name, _)| with_ungated || !ungated(name));
        Value::obj(kept.map(|(name, v)| {
            (
                name.clone(),
                Value::obj([
                    ("value", Value::Num(*v)),
                    ("unit", Value::str(spec::unit_of(name))),
                ]),
            )
        }))
    }

    pub fn summary(&self) -> Value {
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("correct", Value::Bool(self.correct)),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failed as f64)),
            ("samples", Value::Num(self.samples as f64)),
            ("window_s", Value::Num(self.window_s)),
            ("wall_s", Value::Num(self.wall_s)),
            ("metrics", self.metrics_value(true)),
        ])
    }

    /// Every metric by name and unit, the op accounting beside each.
    pub fn print_table(&self) {
        let w = spec::workload(&self.workload).expect("report of a declared workload");
        println!(
            "\n== {} (seed {}, {}) — timed window {:.2} s, whole run {:.1} s",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.window_s,
            self.wall_s
        );
        println!("   why: {}", w.why);
        let ops = format!(
            "ops attempted/failed/samples {}/{}/{}",
            self.attempted, self.failed, self.samples
        );
        for (name, value) in &self.metrics {
            println!(
                "   {name:<46} {value:>14.4} {:<8} [{ops}]",
                spec::unit_of(name)
            );
        }
        if !self.traced {
            println!(
                "   (op_tail_ms: median over {} blocks of {} ops of the block's second-slowest op; \
                 op_p95_ms: pooled nearest-rank p95, reported, not gated)",
                (self.samples as usize / stats::TAIL_BLOCK).max(1),
                stats::TAIL_BLOCK
            );
        }
        let ladder: Vec<(&str, f64)> = self
            .metrics
            .iter()
            .filter(|(n, _)| n.starts_with("ladder."))
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        if !ladder.is_empty() {
            println!("   ladder (share of the 1-thread Engine::run; a faster rung saves at most its share of op_p50_ms):");
            for (name, share) in &ladder {
                println!("     {name:<28} {share:>8.4}");
            }
            println!(
                "     {:<28} {:>8.4}",
                "sum",
                ladder.iter().map(|l| l.1).sum::<f64>()
            );
        }
        if !self.spans.is_empty() {
            println!("   spans: name, calls, total ms, self ms");
            for (name, calls, total, own) in &self.spans {
                println!("     {name:<36} {calls:>7} {total:>12.3} {own:>12.3}");
            }
            println!(
                "   span file: {}",
                out_dir()
                    .join(format!("trace.{}.jsonl", self.workload))
                    .display()
            );
        }
        for f in &self.failures {
            println!("   FAILED: {f}");
        }
    }
}

/// Is `second` worse than `first` by more than `bound` of `first`?
fn worse_by(better: &str, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (first - second) / first.abs(),
        _ => (second - first) / first.abs(),
    }
}

/// Runs per set of `aa`: the ten the acceptance check takes its
/// quartiles over.
pub const AA_RUNS: usize = 10;

/// A/A: `sets` sets of [`AA_RUNS`] untraced runs per workload on this
/// one build, seeds `seed .. seed+10`. The sets are interleaved — each
/// seed runs once per set back to back, odd seeds in reverse set order
/// — so slow drift of the host lands in every set alike. Per metric ×
/// workload it prints each set's median and quartiles, the spread
/// (inter-quartile distance over the median) and the gap between the
/// set medians, and a verdict by the acceptance rule: `unresolved`
/// when a spread is wider than the bound (`setup_s` exempt, as in the
/// rule), `outside-bound` when a later median is worse than the first
/// by more than the bound, else `ok`. One traced run per set checks
/// that the exact counts repeat. Later PRs reuse the same table with
/// parent and change as the two sets.
pub fn aa(workloads: &[&'static Workload], opts: RunOpts, sets: usize) -> Result<bool, String> {
    if sets < 2 {
        return Err("aa needs --sets ≥ 2".into());
    }
    crate::host::warn_if_undersized();
    println!(
        "host: {}",
        crate::host::record(opts.seed, opts.smoke).render()
    );
    let started = Instant::now();
    // The gated metrics with their bounds, then the ungated p95.
    let rows: Vec<(spec::Metric, Option<f64>)> = spec::END_TO_END
        .iter()
        .map(|(m, bound)| (*m, Some(*bound)))
        .chain(spec::UNGATED.iter().map(|m| (*m, None)))
        .collect();
    // values[workload][metric][set] = one value per run
    let mut values: Vec<Vec<Vec<Vec<f64>>>> =
        vec![vec![vec![Vec::new(); sets]; rows.len()]; workloads.len()];
    let mut counts: Vec<Vec<Vec<(String, f64)>>> = vec![vec![Vec::new(); sets]; workloads.len()];
    let mut failed_ops = 0u64;
    for (wi, w) in workloads.iter().enumerate() {
        for run in 0..AA_RUNS {
            let seed = opts.seed + run as u64;
            let mut order: Vec<usize> = (0..sets).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for set in order {
                let report = run_one(
                    w,
                    &RunOpts {
                        seed,
                        trace: false,
                        ..opts
                    },
                )?;
                failed_ops += report.failed;
                for (mi, (m, _)) in rows.iter().enumerate() {
                    let v = report
                        .metric(m.name)
                        .ok_or_else(|| format!("{} did not report {}", w.name, m.name))?;
                    values[wi][mi][set].push(v);
                }
                eprintln!(
                    "aa: set {} {} seed {seed} done in {:.1} s ({} ops, {} failed)",
                    set + 1,
                    w.name,
                    report.wall_s,
                    report.attempted,
                    report.failed
                );
            }
        }
        for set_counts in &mut counts[wi] {
            let traced = run_one(
                w,
                &RunOpts {
                    trace: true,
                    ..opts
                },
            )?;
            failed_ops += traced.failed;
            *set_counts = spec::EXACT_COUNTS
                .iter()
                .filter_map(|n| traced.metric(n).map(|v| (n.to_string(), v)))
                .collect();
        }
    }

    let mut all_ok = true;
    println!(
        "\n{:<14} {:<16} {:>6}  per set: median [q1, q3] spread  {:>8} {:>7}  verdict",
        "workload", "metric", "bound", "gap", "steady"
    );
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, (m, gate)) in rows.iter().enumerate() {
            // The ungated p95 is held against the contract's ceiling,
            // to show whether it could have been gated at all.
            let bound = gate.unwrap_or(spec::MAX_BOUND);
            let per_set = &values[wi][mi];
            let medians: Vec<f64> = per_set.iter().map(|v| stats::median(v)).collect();
            let spreads: Vec<f64> = per_set.iter().map(|v| stats::spread(v)).collect();
            // Each later set against the first, as parent-vs-change would be.
            let gap = medians[1..]
                .iter()
                .map(|&later| worse_by(m.better, medians[0], later))
                .fold(f64::NEG_INFINITY, f64::max);
            let resolved = m.name == "setup_s" || spreads.iter().all(|s| *s <= bound);
            let verdict = match (resolved, gap <= bound) {
                (false, _) => "unresolved",
                (true, false) => "outside-bound",
                (true, true) => "ok",
            };
            all_ok &= verdict == "ok" || gate.is_none();
            let verdict = format!(
                "{verdict}{}",
                if gate.is_some() { "" } else { " (not gated)" }
            );
            let steady = spreads.iter().all(|s| *s <= bound / 3.0);
            let cells: Vec<String> = per_set
                .iter()
                .zip(&medians)
                .zip(&spreads)
                .map(|((v, med), s)| {
                    let (q1, q3) = stats::quartiles(v);
                    format!("{med:.4} [{q1:.4}, {q3:.4}] {:.1}%", s * 100.0)
                })
                .collect();
            println!(
                "{:<14} {:<16} {:>5.0}%  {}  {:>7.1}% {:>7}  {verdict}",
                w.name,
                m.name,
                bound * 100.0,
                cells.join(" | "),
                gap * 100.0,
                if steady { "yes" } else { "no" },
            );
        }
    }
    println!(
        "\nexact counts (one traced run per set at seed {}):",
        opts.seed
    );
    for (wi, w) in workloads.iter().enumerate() {
        for (i, (name, first)) in counts[wi][0].iter().enumerate() {
            let repeats = counts[wi]
                .iter()
                .all(|set| set.get(i).map(|c| c.1) == Some(*first));
            all_ok &= repeats;
            println!(
                "{:<14} {:<34} {:>14.4}  {}",
                w.name,
                name,
                first,
                if repeats { "repeats" } else { "DIFFERS" }
            );
        }
    }
    all_ok &= failed_ops == 0;
    println!(
        "\naa: {sets} sets × {AA_RUNS} runs × {} workloads in {:.0} s — {} (failed ops: {failed_ops})",
        workloads.len(),
        started.elapsed().as_secs_f64(),
        if all_ok { "every cell ok" } else { "NOT ok" }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("lower", 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by("higher", 100.0, 120.0) < 0.0);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "geojson_pat".into(),
            seed: 1,
            traced: false,
            correct: true,
            attempted: 300,
            failed: 0,
            samples: 300,
            window_s: 10.0,
            wall_s: 12.0,
            metrics: spec::END_TO_END
                .iter()
                .map(|(m, _)| (m.name.to_string(), 1.5))
                .collect(),
            spans: Vec::new(),
            failures: Vec::new(),
        };
        let line = report.driver_line();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));

        let traced = Report {
            traced: true,
            metrics: spec::PER_LAYER
                .iter()
                .map(|m| (m.name.to_string(), 7.0))
                .collect(),
            ..report
        };
        let line = traced.driver_line();
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
        let pairs = metrics
            .iter()
            .find(|(k, _)| k == "core.join.pairs")
            .unwrap();
        assert_eq!(pairs.1.get("unit").unwrap().as_str(), Some("count"));
    }
}
