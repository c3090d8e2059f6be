//! The six workloads as the measured (child) process runs them:
//! set-up through the program's public calls, the timed op loop, and
//! verification of every answer after the window closes.

use crate::inputs::{Input, Mix, Plan, Request};
use crate::report::RunOpts;
use crate::spec::{self, Kind};
use crate::trace::{Tracer, SETUP_OP};
use atgis::{
    Dataset, Engine, ExecOptions, QueryResult, QueryScheduler, QuerySession, SliceChunkSource,
};
use atgis_baselines::{sequential, BaselineAnswer, BaselineQuery};
use atgis_formats::{Format, Mode};
use atgis_geometry::Mbr;
use atgis_server::{Client, MetricMask, QuerySpec, Server, ServerHandle, NO_TIMEOUT};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How long and how much one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
    pub setups: usize,
    pub trace: bool,
}

impl Budget {
    /// A traced run spends part of its time on the per-layer passes, so
    /// its op window is half as long and it sets up once; a smoke run
    /// keeps only enough ops and set-ups to walk every code path.
    pub fn of(w: &spec::Workload, opts: &RunOpts) -> Budget {
        let (seconds, min_ops, setups) = match (opts.trace, opts.smoke) {
            (false, false) => (opts.seconds, w.min_ops, spec::SETUPS),
            (true, false) => (opts.seconds * 0.5, w.min_ops / 4, 1),
            (_, true) => (opts.seconds, spec::SMOKE_MIN_OPS, 2),
        };
        Budget {
            seconds,
            min_ops,
            setups,
            trace: opts.trace,
        }
    }
}

/// One verified, timed op.
struct Sample {
    latency_ms: f64,
    /// What was asked (serial workloads ask the same thing every op).
    spec: Option<QuerySpec>,
    /// Digest of the answer, or the error that replaced it.
    answer: Result<u64, String>,
    traced: bool,
}

/// What the measured process observed.
pub struct Observed {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub dataset_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of the verified ops in completion order (per
    /// connection, one connection after the other, for `serve_closed`).
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// `1 − traced/untraced` throughput (traced runs only).
    pub trace_overhead_share: Option<f64>,
    pub failures: Vec<String>,
    /// Server statistics at the end of the window (serve_closed).
    pub server_stats: Option<atgis_server::StatsReport>,
}

pub fn mode_of(kind: Kind) -> Mode {
    match kind {
        Kind::StreamFat => Mode::Fat,
        _ => Mode::Pat,
    }
}

/// Containment + aggregation over `region`: the scan workloads' op.
pub fn scan_specs(region: Mbr) -> Vec<QuerySpec> {
    vec![
        QuerySpec::Containment(region),
        QuerySpec::Aggregation {
            region,
            metrics: MetricMask::ALL,
        },
    ]
}

/// The queries one op of a serial workload asks, as wire specs (the
/// one closed description both `to_query()` and the oracle accept).
pub fn queries_of(kind: Kind, input: &Input) -> Vec<QuerySpec> {
    match kind {
        Kind::JoinWkt | Kind::RestartWarm => vec![QuerySpec::Join(input.join_threshold())],
        _ => scan_specs(input.region),
    }
}

pub fn build_engine(mode: Mode, tracer: &mut Tracer, op: u64, persist: Option<&Path>) -> Engine {
    let span = tracer.enter("core.engine.build", op);
    let mut builder = Engine::builder().threads(spec::ENGINE_THREADS).mode(mode);
    if mode == Mode::Fat {
        builder = builder.block_multiplier(spec::FAT_BLOCKS);
    }
    if let Some(root) = persist {
        builder = builder.persist_path(root);
    }
    let engine = builder.build();
    tracer.exit(span);
    engine
}

/// Program state of the serial (one driver thread) workloads.
enum Serial {
    Scan { engine: Engine, dataset: Dataset },
    Join { engine: Engine, dataset: Dataset },
    Stream { engine: Engine, bytes: Vec<u8> },
    Restart { dataset: Dataset, root: PathBuf },
}

struct SerialRun {
    kind: Kind,
    queries: Vec<atgis::Query>,
    state: Serial,
}

impl SerialRun {
    /// Everything the program does before the first timed op.
    fn setup(kind: Kind, plan: &Plan, nth: usize, tracer: &mut Tracer) -> Result<Self, String> {
        let queries: Vec<atgis::Query> = queries_of(kind, &plan.input)
            .iter()
            .map(QuerySpec::to_query)
            .collect();
        let load = |tracer: &mut Tracer| -> Result<Dataset, String> {
            let span = tracer.enter("core.dataset.from_file", SETUP_OP);
            let d =
                Dataset::from_file(&plan.input.path, plan.input.format).map_err(|e| e.to_string());
            tracer.exit(span);
            d
        };
        let state = match kind {
            Kind::GeojsonPat | Kind::XmlScan => Serial::Scan {
                engine: build_engine(mode_of(kind), tracer, SETUP_OP, None),
                dataset: load(tracer)?,
            },
            Kind::JoinWkt => Serial::Join {
                engine: build_engine(mode_of(kind), tracer, SETUP_OP, None),
                dataset: load(tracer)?,
            },
            Kind::StreamFat => Serial::Stream {
                engine: build_engine(mode_of(kind), tracer, SETUP_OP, None),
                bytes: std::fs::read(&plan.input.path).map_err(|e| e.to_string())?,
            },
            Kind::RestartWarm => {
                // A fresh store root per set-up: the cold join below
                // writes the snapshot every timed op restores from.
                let root = plan.scratch.join(format!("store-{nth}"));
                let _ = std::fs::remove_dir_all(&root);
                let dataset = load(tracer)?;
                let engine = build_engine(mode_of(kind), tracer, SETUP_OP, Some(&root));
                let span = tracer.enter("core.session.cold_join_and_save", SETUP_OP);
                let cold = QuerySession::new(engine, dataset.clone())
                    .run(&queries, &ExecOptions::new())
                    .map_err(|e| e.to_string());
                tracer.exit(span);
                cold?;
                Serial::Restart { dataset, root }
            }
            Kind::ServeClosed => unreachable!("serve_closed has its own driver"),
        };
        let mut run = SerialRun {
            kind,
            queries,
            state,
        };
        for _ in 0..spec::WARMUP_OPS {
            run.op(SETUP_OP, tracer)?;
        }
        Ok(run)
    }

    fn dataset_bytes(&self) -> u64 {
        match &self.state {
            Serial::Scan { dataset, .. }
            | Serial::Join { dataset, .. }
            | Serial::Restart { dataset, .. } => dataset.len() as u64,
            Serial::Stream { bytes, .. } => bytes.len() as u64,
        }
    }

    /// One op, through the program's public entry points only.
    fn op(&mut self, op: u64, tracer: &mut Tracer) -> Result<Vec<QueryResult>, String> {
        let opts = ExecOptions::new();
        let outcome = match &self.state {
            Serial::Scan { engine, dataset } => {
                let span = tracer.enter("core.engine.run", op);
                let out = engine.run(&self.queries, dataset, &opts);
                tracer.exit(span);
                out
            }
            Serial::Join { engine, dataset } => {
                let span = tracer.enter("core.session.new", op);
                let session = QuerySession::new(engine.clone(), dataset.clone());
                tracer.exit(span);
                let span = tracer.enter("core.session.run", op);
                let out = session.run(&self.queries, &opts);
                tracer.exit(span);
                out
            }
            Serial::Stream { engine, bytes } => {
                // Chunk-fed ingest on the caller's thread, then the FAT
                // scan. Not `Engine::run_streaming`: its per-call pump
                // thread makes latency and RSS unresolvable on the
                // sandbox (README "Calibration"); `core.stream.*` in the
                // traced run still measures it.
                let mut source = SliceChunkSource::new(bytes, spec::STREAM_CHUNK);
                let span = tracer.enter("core.dataset.from_chunk_source", op);
                let ingested = Dataset::from_chunk_source(&mut source, Format::GeoJson);
                tracer.exit(span);
                let span = tracer.enter("core.engine.run", op);
                let out = ingested.and_then(|dataset| engine.run(&self.queries, &dataset, &opts));
                tracer.exit(span);
                out
            }
            Serial::Restart { dataset, root } => {
                // Fresh engine ⇒ fresh PersistStore ⇒ no resident-cache
                // hit: the op pays file read + decode like a restart.
                let engine = build_engine(mode_of(self.kind), tracer, op, Some(root));
                let span = tracer.enter("core.session.new", op);
                let session = QuerySession::new(engine, dataset.clone());
                tracer.exit(span);
                let span = tracer.enter("core.session.run", op);
                let out = session.run(&self.queries, &opts.clone().timed());
                tracer.exit(span);
                if let Ok(o) = &out {
                    let passes = o.batch.as_ref().map_or(u64::MAX, |b| b.scan_passes);
                    if passes != 0 {
                        return Err(format!("restart_warm op parsed ({passes} scan passes)"));
                    }
                }
                out
            }
        };
        tracer.count("ops", 1);
        outcome
            .and_then(|o| o.collapse())
            .map_err(|e| e.to_string())
    }
}

/// FNV-1a over the exact content of an answer: two answers digest
/// equal iff they are bit-identical (float aggregates included).
pub fn digest(results: &[QueryResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        match r {
            QueryResult::Matches(ms) => {
                put(1);
                put(ms.len() as u64);
                for m in ms {
                    put(m.id);
                    put(m.offset);
                    put(u64::from(m.len));
                    for e in [m.mbr.min_x, m.mbr.min_y, m.mbr.max_x, m.mbr.max_y] {
                        put(e.to_bits());
                    }
                }
            }
            QueryResult::Aggregate(a) => {
                put(2);
                put(a.count);
                put(a.total_area.to_bits());
                put(a.total_perimeter.to_bits());
            }
            QueryResult::Joined(ps) => {
                put(3);
                put(ps.len() as u64);
                for p in ps {
                    put(p.left_id);
                    put(p.right_id);
                    put(p.left_offset);
                    put(p.right_offset);
                }
            }
            QueryResult::Combined {
                pairs,
                total_union_area,
            } => {
                put(4);
                put(*pairs);
                put(total_union_area.to_bits());
            }
        }
    }
    h
}

/// Checks one answer against `atgis_baselines::sequential::execute`.
/// Ids and pairs must match exactly; float aggregates to 1e-9 (the
/// oracle folds plain f64 left to right, the engine sums exactly).
pub fn check_against_oracle(
    spec: &QuerySpec,
    result: &QueryResult,
    bytes: &[u8],
    format: Format,
) -> Result<(), String> {
    let query = match *spec {
        QuerySpec::Containment(r) => BaselineQuery::containment(r),
        QuerySpec::Aggregation { region, .. } => BaselineQuery::aggregation(region),
        QuerySpec::Join(t) => BaselineQuery::Join(t),
        QuerySpec::Combined { .. } => return Err("no oracle for combined queries".into()),
    };
    let want = sequential::execute(bytes, format, &query).map_err(|e| format!("oracle: {e}"))?;
    match (want, result) {
        (BaselineAnswer::Matches(want), QueryResult::Matches(got)) => {
            let mut ids: Vec<u64> = got.iter().map(|m| m.id).collect();
            ids.sort_unstable();
            if ids == want {
                Ok(())
            } else {
                Err(format!(
                    "containment: {} ids, oracle has {}",
                    ids.len(),
                    want.len()
                ))
            }
        }
        (BaselineAnswer::Aggregate(count, area, perimeter), QueryResult::Aggregate(got)) => {
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            if got.count == count
                && close(got.total_area, area)
                && close(got.total_perimeter, perimeter)
            {
                Ok(())
            } else {
                Err(format!(
                    "aggregation: {got:?} vs oracle ({count}, {area}, {perimeter})"
                ))
            }
        }
        (BaselineAnswer::Pairs(want), QueryResult::Joined(got)) => {
            let mut pairs: Vec<(u64, u64)> = got.iter().map(|p| (p.left_id, p.right_id)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            if pairs == want {
                Ok(())
            } else {
                Err(format!(
                    "join: {} pairs, oracle has {}",
                    pairs.len(),
                    want.len()
                ))
            }
        }
        (want, got) => Err(format!("answer shape mismatch: {got:?} vs {want:?}")),
    }
}

/// `VmHWM` of this process in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// In a traced run the tracer flips on and off ten times over the
/// window, so both arms see the same machine state and their
/// throughputs compare.
fn trace_arm(budget: &Budget, started: Instant) -> bool {
    budget.trace && (started.elapsed().as_secs_f64() / (budget.seconds / 10.0)) as u64 % 2 == 1
}

fn window_open(budget: &Budget, started: Instant, ops: u64) -> bool {
    started.elapsed().as_secs_f64() < budget.seconds || (ops as usize) < budget.min_ops
}

/// Runs a serial workload: `setups` fresh set-ups (the last one
/// serves the window), the timed loop, then verification.
pub fn run_serial(
    kind: Kind,
    plan: &Plan,
    budget: &Budget,
    tracer: &mut Tracer,
) -> Result<Observed, String> {
    // The window runs on the first set-up, as a user's process would;
    // the repeats that make `setup_s` a median come after the window
    // and the RSS reading, so they pollute neither.
    let mut setup_s = Vec::new();
    let mut timed_setup = |nth: usize, tracer: &mut Tracer| {
        let started = Instant::now();
        let span = tracer.enter("setup", SETUP_OP);
        let fresh = SerialRun::setup(kind, plan, nth, tracer);
        tracer.exit(span);
        setup_s.push(started.elapsed().as_secs_f64());
        fresh
    };
    tracer.set_enabled(budget.trace);
    let mut run = timed_setup(0, tracer)?;
    let specs = queries_of(kind, &plan.input);

    let mut samples: Vec<Sample> = Vec::new();
    let mut first: Option<Vec<QueryResult>> = None;
    let started = Instant::now();
    let mut op = 0u64;
    while window_open(budget, started, op) {
        let traced = trace_arm(budget, started);
        tracer.set_enabled(traced);
        let span = tracer.enter("op", op);
        let t = Instant::now();
        let answer = run.op(op, tracer);
        let latency = t.elapsed();
        tracer.exit(span);
        let answer = answer.map(|results| {
            let d = digest(&results);
            if first.is_none() {
                first = Some(results);
            }
            d
        });
        samples.push(Sample {
            latency_ms: latency.as_secs_f64() * 1e3,
            spec: None,
            answer,
            traced,
        });
        op += 1;
    }
    let window_s = started.elapsed().as_secs_f64();
    tracer.set_enabled(false);
    // The high-water mark is read before verification, whose oracle
    // parses the whole dataset into memory.
    let peak_rss_mb = peak_rss_mb();
    let dataset_bytes = run.dataset_bytes();
    drop(run);
    for nth in 1..budget.setups {
        drop(timed_setup(nth, tracer)?);
    }

    // Every op asked the same questions, so all answers must be
    // bit-identical to the first, and the first must match the oracle.
    let mut failures = Vec::new();
    let bytes = std::fs::read(&plan.input.path).map_err(|e| e.to_string())?;
    let reference = match &first {
        None => None,
        Some(results) => {
            let bad: Vec<String> = specs
                .iter()
                .zip(results)
                .filter_map(|(s, r)| check_against_oracle(s, r, &bytes, plan.input.format).err())
                .collect();
            if bad.is_empty() && results.len() == specs.len() {
                Some(digest(results))
            } else {
                failures.extend(bad);
                None
            }
        }
    };
    let verdicts = samples
        .iter()
        .map(|s| judge(&s.answer, reference))
        .collect();
    Ok(conclude(
        setup_s,
        window_s,
        dataset_bytes,
        peak_rss_mb,
        &samples,
        verdicts,
        failures,
        None,
    ))
}

/// An op is verified when it answered and its digest equals its
/// reference's; a reference that itself failed the oracle (`None`)
/// fails every op that relied on it.
fn judge(answer: &Result<u64, String>, want: Option<u64>) -> Result<(), String> {
    match (answer, want) {
        (Ok(got), Some(want)) if *got == want => Ok(()),
        (Ok(_), Some(_)) => Err("answer is not bit-identical to its reference".to_string()),
        (Ok(_), None) => Err("the reference answer failed the sequential oracle".to_string()),
        (Err(e), _) => Err(e.clone()),
    }
}

/// Folds samples and their verdicts into the observation both
/// drivers report.
#[allow(clippy::too_many_arguments)]
fn conclude(
    setup_s: Vec<f64>,
    window_s: f64,
    dataset_bytes: u64,
    peak_rss_mb: f64,
    samples: &[Sample],
    verdicts: Vec<Result<(), String>>,
    mut failures: Vec<String>,
    server_stats: Option<atgis_server::StatsReport>,
) -> Observed {
    let attempted = samples.len() as u64;
    let mut latencies_ms = Vec::with_capacity(samples.len());
    // Per arm (untraced, traced): verified ops and their summed latency.
    let mut arms = [(0u64, 0.0f64); 2];
    let mut failed = 0u64;
    for (s, verdict) in samples.iter().zip(verdicts) {
        match verdict {
            Ok(()) => {
                latencies_ms.push(s.latency_ms);
                let arm = &mut arms[usize::from(s.traced)];
                arm.0 += 1;
                arm.1 += s.latency_ms;
            }
            Err(e) => {
                failed += 1;
                if failures.len() < 8 {
                    failures.push(e);
                }
            }
        }
    }
    let rate = |(ops, ms): (u64, f64)| if ms > 0.0 { ops as f64 / ms } else { 0.0 };
    let trace_overhead_share =
        (arms[0].0 > 0 && arms[1].0 > 0).then(|| 1.0 - rate(arms[1]) / rate(arms[0]));
    Observed {
        setup_s,
        window_s,
        dataset_bytes,
        attempted,
        failed,
        latencies_ms,
        peak_rss_mb,
        trace_overhead_share,
        failures,
        server_stats,
    }
}

/// The serving stack of `serve_closed`, warmed so the window sees the
/// steady state: hot tiles cached, partition index built.
pub struct Serving {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
}

impl Serving {
    /// Serves the plan's dataset and asks every hot tile and join once,
    /// so the caches and the partition index are filled.
    pub fn setup(plan: &Plan, tracer: &mut Tracer) -> Result<Self, String> {
        let io = |e: std::io::Error| e.to_string();
        let engine = build_engine(Mode::Pat, tracer, SETUP_OP, None);
        let span = tracer.enter("core.dataset.from_file", SETUP_OP);
        let dataset = Dataset::from_file(&plan.input.path, plan.input.format).map_err(io)?;
        tracer.exit(span);
        let span = tracer.enter("server.serve", SETUP_OP);
        let server = Server::new(QueryScheduler::new(engine));
        server.register(0, dataset);
        let handle = server
            .serve("127.0.0.1:0".parse().expect("literal address"))
            .map_err(io)?;
        tracer.exit(span);
        let span = tracer.enter("server.client.connect", SETUP_OP);
        let mut clients = Vec::new();
        for _ in 0..spec::SERVE_CONNECTIONS {
            clients.push(Client::connect(handle.addr()).map_err(io)?);
        }
        tracer.exit(span);
        let span = tracer.enter("warmup", SETUP_OP);
        for r in Mix::new(plan, 0).fixed_requests() {
            clients[0]
                .query(0, &r.spec, r.priority, NO_TIMEOUT)
                .map_err(io)?
                .map_err(|e| format!("warm-up refused: {e}"))?;
        }
        tracer.exit(span);
        Ok(Serving { handle, clients })
    }
}

/// Runs `serve_closed`: two closed-loop connections, each waiting for
/// its reply before sending the next request of its seeded mix.
pub fn run_serve(plan: &Plan, budget: &Budget, tracer: &mut Tracer) -> Result<Observed, String> {
    let mut setup_s = Vec::new();
    let mut timed_setup = |tracer: &mut Tracer| {
        let started = Instant::now();
        let span = tracer.enter("setup", SETUP_OP);
        let fresh = Serving::setup(plan, tracer);
        tracer.exit(span);
        setup_s.push(started.elapsed().as_secs_f64());
        fresh
    };
    tracer.set_enabled(budget.trace);
    let Serving { handle, clients } = timed_setup(tracer)?;
    tracer.set_enabled(false);

    let total_ops = AtomicU64::new(0);
    let started = Instant::now();
    let per_thread: Vec<(Vec<Sample>, Tracer, Client)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                let total_ops = &total_ops;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(false, started, (conn as u32 + 1) << 24);
                    let mut samples = Vec::new();
                    let mut mix = Mix::new(plan, conn);
                    while window_open(budget, started, total_ops.load(Ordering::Relaxed)) {
                        let Request { spec, priority, .. } = mix.next().expect("mix is endless");
                        let op = ((conn as u64) << 32) | samples.len() as u64;
                        let traced = trace_arm(budget, started);
                        tracer.set_enabled(traced);
                        let span = tracer.enter("op", op);
                        let t = Instant::now();
                        let sub = tracer.enter("server.client.submit", op);
                        let sent = client.submit(0, &spec, priority, NO_TIMEOUT);
                        tracer.exit(sub);
                        let reply = sent.and_then(|id| {
                            let wait = tracer.enter("server.client.wait", op);
                            let r = client.wait(id);
                            tracer.exit(wait);
                            r
                        });
                        let latency = t.elapsed();
                        tracer.exit(span);
                        tracer.count("ops", 1);
                        let answer = match reply {
                            Ok(Ok(result)) => Ok(digest(std::slice::from_ref(&result))),
                            Ok(Err(refused)) => Err(format!("refused: {refused}")),
                            Err(e) => Err(format!("io: {e}")),
                        };
                        samples.push(Sample {
                            latency_ms: latency.as_secs_f64() * 1e3,
                            spec: Some(spec),
                            answer,
                            traced,
                        });
                        total_ops.fetch_add(1, Ordering::Relaxed);
                    }
                    (samples, tracer, client)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    let mut samples = Vec::new();
    let mut clients = Vec::new();
    for (s, t, c) in per_thread {
        samples.extend(s);
        tracer.absorb(t);
        clients.push(c);
    }
    let server_stats = clients[0].stats().ok();
    drop(clients);
    handle.shutdown();
    // Set-up repeats after the window and the RSS reading (see `run_serial`).
    for _ in 1..budget.setups {
        let Serving { handle, clients } = timed_setup(tracer)?;
        drop(clients);
        handle.shutdown();
    }

    // Reference answers: every distinct spec through the library path
    // on one thread, in one shared-scan batch; the fixed (hot, join)
    // specs additionally against the sequential oracle.
    let mut failures = Vec::new();
    let fixed: Vec<QuerySpec> = Mix::new(plan, 0)
        .fixed_requests()
        .into_iter()
        .map(|r| r.spec)
        .collect();
    let mut specs = fixed.clone();
    let index_of: Vec<usize> = samples
        .iter()
        .map(|s| {
            let spec = s.spec.expect("serve samples carry their spec");
            fixed.iter().position(|f| *f == spec).unwrap_or_else(|| {
                specs.push(spec);
                specs.len() - 1
            })
        })
        .collect();
    let dataset =
        Dataset::from_file(&plan.input.path, Format::GeoJson).map_err(|e| e.to_string())?;
    let library = Engine::builder().threads(1).build();
    let queries: Vec<atgis::Query> = specs.iter().map(QuerySpec::to_query).collect();
    let reference = library
        .run(&queries, &dataset, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .map_err(|e| format!("library-path reference: {e}"))?;
    let mut want: Vec<Option<u64>> = reference
        .iter()
        .map(|r| Some(digest(std::slice::from_ref(r))))
        .collect();
    for (i, spec) in fixed.iter().enumerate() {
        if let Err(e) = check_against_oracle(spec, &reference[i], dataset.bytes(), Format::GeoJson)
        {
            failures.push(e);
            want[i] = None;
        }
    }
    let verdicts = samples
        .iter()
        .zip(&index_of)
        .map(|(s, &i)| judge(&s.answer, want[i]))
        .collect();
    Ok(conclude(
        setup_s,
        window_s,
        dataset.len() as u64,
        peak_rss_mb,
        &samples,
        verdicts,
        failures,
        server_stats,
    ))
}
