//! The repo benchmark. See `README.md` beside this package for the
//! metric and workload tables; `BENCHMARK.json` at the repo root is
//! the machine-readable contract.
//!
//! ```text
//! atgis-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
//! atgis-benchmark run   [--smoke] [--workload W] [--seed N] [--seconds S]
//! atgis-benchmark trace [--smoke] [--workload W] [--seed N] [--seconds S]
//! atgis-benchmark aa    [--sets 2] [--smoke] [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! Every run generates its inputs in this (parent) process and
//! measures in a child process of its own, so `VmHWM` at the child's
//! exit is that workload's peak and nobody else's.

mod host;
mod inputs;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use inputs::Plan;
use json::Value;
use report::{Report, RunOpts};
use spec::Kind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Budget;

/// `--key value` pairs and bare `--flag`s after an optional subcommand.
struct Args {
    command: Option<String>,
    values: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut raw = raw.peekable();
        let command = raw.next_if(|a| !a.starts_with("--"));
        let mut values = BTreeMap::new();
        while let Some(arg) = raw.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg}"))?;
            let value = raw.next_if(|a| !a.starts_with("--")).unwrap_or_default();
            values.insert(key.to_string(), value);
        }
        Ok(Args { command, values })
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for --{key}: {v:?}"))
            })
            .transpose()
    }

    fn run_opts(&self) -> Result<RunOpts, String> {
        let smoke = self.flag("smoke");
        Ok(RunOpts {
            seed: self.get("seed")?.unwrap_or(spec::DEFAULT_SEED),
            seconds: self.get("seconds")?.unwrap_or(if smoke {
                spec::SMOKE_SECONDS
            } else {
                spec::RUN_SECONDS
            }),
            trace: self.get::<u8>("trace")?.unwrap_or(0) != 0,
            smoke,
        })
    }

    /// The workloads a command covers: one named, or all six.
    fn workloads(&self) -> Result<Vec<&'static spec::Workload>, String> {
        match self.values.get("workload") {
            None => Ok(spec::WORKLOADS.iter().collect()),
            Some(name) => spec::workload(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("atgis-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        None => driver(&args),
        Some("run") => suite(&args, false),
        Some("trace") => suite(&args, true),
        Some("aa") => aa(&args),
        Some("child") => child(&args).map(|()| true),
        Some(other) => Err(format!("unknown command {other:?} (run | trace | aa)")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("atgis-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The driver's form: one workload, one run, the result object as the
/// last line of stdout. A run whose answers fail verification still
/// exits 0 — `correct: false` and `failed` carry the verdict; only a
/// broken harness exits non-zero, and then prints no result.
fn driver(args: &Args) -> Result<bool, String> {
    let name = args
        .values
        .get("workload")
        .ok_or("--workload is required (or use: run | trace | aa)")?;
    let w = spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let opts = args.run_opts()?;
    host::warn_if_undersized();
    println!(
        "{}",
        Value::obj([("host", host::record(opts.seed, opts.smoke))]).render()
    );
    let report = report::run_one(w, &opts)?;
    for f in &report.failures {
        eprintln!("{}: {f}", w.name);
    }
    println!("{}", report.driver_line().render());
    Ok(true)
}

/// `run` / `trace`: every workload (or one), a table per workload and
/// a JSON summary. Exits non-zero when any op failed.
fn suite(args: &Args, trace: bool) -> Result<bool, String> {
    let opts = RunOpts {
        trace,
        ..args.run_opts()?
    };
    host::warn_if_undersized();
    let host = host::record(opts.seed, opts.smoke);
    println!("host: {}", host.render());
    let started = Instant::now();
    let mut reports: Vec<Report> = Vec::new();
    for w in args.workloads()? {
        let report = report::run_one(w, &opts)?;
        report.print_table();
        reports.push(report);
    }
    let clean = reports.iter().all(|r| r.correct && r.failed == 0);
    println!(
        "\n{} workload(s) in {:.1} s — {}",
        reports.len(),
        started.elapsed().as_secs_f64(),
        if clean {
            "all answers verified"
        } else {
            "FAILED OPS — see above"
        }
    );
    let summary = Value::obj([
        ("host", host),
        (
            "workloads",
            Value::obj(reports.iter().map(|r| (r.workload.clone(), r.summary()))),
        ),
        // This benchmark defines the measurement; it claims no gain.
        ("claim", Value::Null),
    ]);
    println!("{}", summary.render());
    Ok(clean)
}

fn aa(args: &Args) -> Result<bool, String> {
    report::aa(
        &args.workloads()?,
        args.run_opts()?,
        args.get("sets")?.unwrap_or(2),
    )
}

/// The measured process: set-up, timed window, verification and — in a
/// traced run — the per-layer numbers, reported as one JSON line.
fn child(args: &Args) -> Result<(), String> {
    let plan_path: PathBuf = args.get("plan")?.ok_or("child needs --plan")?;
    let plan = Plan::read(&plan_path)?;
    let w = spec::workload(&plan.workload).ok_or("plan names an unknown workload")?;
    let opts = args.run_opts()?;
    let budget = Budget::of(w, &opts);
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let observed = match w.kind {
        Kind::ServeClosed => workloads::run_serve(&plan, &budget, &mut tracer),
        _ => workloads::run_serial(w.kind, &plan, &budget, &mut tracer),
    }?;
    if observed.latencies_ms.is_empty() {
        return Err(format!(
            "{}: no op was verified ({} attempted): {:?}",
            w.name, observed.attempted, observed.failures
        ));
    }

    let mut fields = vec![
        ("correct", Value::Bool(observed.failed == 0)),
        ("attempted", Value::Num(observed.attempted as f64)),
        ("failed", Value::Num(observed.failed as f64)),
        ("samples", Value::Num(observed.latencies_ms.len() as f64)),
        ("window_s", Value::Num(observed.window_s)),
        (
            "failures",
            Value::Arr(observed.failures.iter().map(Value::str).collect()),
        ),
    ];
    let metrics: Vec<(&str, f64)> = if opts.trace {
        tracer.set_enabled(true);
        let layers = layers::measure(&plan, &observed, opts.smoke, &mut tracer)?;
        tracer
            .write_jsonl(
                &report::out_dir().join(format!("trace.{}.jsonl", w.name)),
                w.name,
            )
            .map_err(|e| format!("writing the span file: {e}"))?;
        fields.push((
            "spans",
            Value::obj(trace::self_times(tracer.spans()).into_iter().map(
                |(name, (calls, total, own))| {
                    (
                        name,
                        Value::obj([
                            ("calls", Value::Num(calls as f64)),
                            ("total_ms", Value::Num(total as f64 / 1e6)),
                            ("self_ms", Value::Num(own as f64 / 1e6)),
                        ]),
                    )
                },
            )),
        ));
        layers
    } else {
        let verified = observed.latencies_ms.len() as f64;
        let megabytes = verified * observed.dataset_bytes as f64 / (1024.0 * 1024.0);
        vec![
            ("setup_s", stats::median(&observed.setup_s)),
            ("throughput_mbps", megabytes / observed.window_s),
            (
                "op_p50_ms",
                stats::percentile(&stats::sorted(&observed.latencies_ms), 50.0),
            ),
            ("op_tail_ms", stats::block_tail(&observed.latencies_ms)),
            ("peak_rss_mb", observed.peak_rss_mb),
            (
                "op_p95_ms",
                stats::percentile(&stats::sorted(&observed.latencies_ms), 95.0),
            ),
        ]
    };
    fields.push((
        "metrics",
        Value::obj(metrics.into_iter().map(|(k, v)| (k, Value::Num(v)))),
    ));
    println!("{}", Value::obj(fields).render());
    Ok(())
}
