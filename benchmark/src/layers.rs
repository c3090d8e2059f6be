//! Per-layer numbers of the traced run: each layer's public functions
//! timed from outside (best of a few passes) plus the public stats
//! structs `ExecOptions::timed()` and `Client::stats()` return.
//!
//! Every pass runs over the workload's own bytes, except the few whose
//! function reads one format only (the GeoJSON lexer DFA and parsers,
//! the streamed FAT scan, the WKT and OSM-XML parsers): the driver
//! wants every per-layer metric from every traced run, so on a
//! workload of another format those run over a small dataset of the
//! same seed in theirs (`Data::of`), generated here in memory once the
//! window has closed and the RSS reading is taken.

use crate::inputs::{self, Mix, Plan};
use crate::spec;
use crate::trace::{Tracer, SETUP_OP};
use crate::workloads::{build_engine, digest, scan_specs, Observed, Serving};
use atgis::pipeline::{ContainmentAgg, MetricsAgg, QueryAggregate};
use atgis::{
    Dataset, Engine, ExecOptions, FilterStrategy, Metric, PersistStore, Query, QueryResult,
    QueryScheduler, QuerySession, SliceChunkSource,
};
use atgis_formats::geojson::{self, lexer};
use atgis_formats::{
    marker_blocks, osmxml, parse_all, wkt, Format, MetadataFilter, Mode, RawFeature,
};
use atgis_geometry::relate::intersects;
use atgis_geometry::{measures, DistanceModel, Geometry, Mbr, Polygon};
use atgis_rtree::RTree;
use atgis_server::protocol::{encode_result, encode_submit, parse_request, parse_response};
use atgis_server::{MetricMask, Priority, QuerySpec, NO_TIMEOUT};
use atgis_transducer::merge::Sum;
use atgis_transducer::{scan, DfaFragment};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Metrics = Vec<(&'static str, f64)>;

const MB: f64 = 1024.0 * 1024.0;

/// Minimum wall time of `passes` invocations, seconds, with the last
/// result (kept alive through `black_box` so the work is not elided).
fn best_of<T>(passes: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..passes.max(1) {
        let t = Instant::now();
        let out = black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (last.expect("at least one pass"), best.max(1e-9))
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / MB / secs
}

/// One dataset, loaded for the layer passes.
struct Data {
    dataset: Dataset,
    objects: usize,
    /// The scan queries' region (see `inputs::Input::region`).
    region: Mbr,
}

impl Data {
    fn own(plan: &Plan) -> Result<Data, String> {
        let input = &plan.input;
        Ok(Data {
            dataset: Dataset::from_file(&input.path, input.format).map_err(|e| e.to_string())?,
            objects: input.objects,
            region: input.region,
        })
    }

    /// Bytes for a pass that reads `format` only: the workload's own
    /// when that is its format, else a small dataset of the same seed.
    fn of(format: Format, own: &Data, seed: u64, smoke: bool) -> Data {
        if own.dataset.format() == format {
            return Data {
                dataset: own.dataset(),
                ..*own
            };
        }
        // Big enough that a best-of-3 pass takes milliseconds.
        let objects = match (format, smoke) {
            (_, true) => 150,
            (Format::OsmXml, false) => 800,
            (_, false) => 3_000,
        };
        let rendered = inputs::render(seed, objects, format);
        Data {
            dataset: Dataset::from_bytes(rendered.bytes, format),
            objects,
            region: rendered.region,
        }
    }

    fn bytes(&self) -> &[u8] {
        self.dataset.bytes()
    }

    /// A handle on the same bytes (datasets share their buffer).
    fn dataset(&self) -> Dataset {
        self.dataset.clone()
    }

    fn scan_queries(&self) -> Vec<Query> {
        scan_specs(self.region)
            .iter()
            .map(QuerySpec::to_query)
            .collect()
    }

    fn join_query(&self) -> Vec<Query> {
        vec![Query::join(self.objects as u64 / 2)]
    }

    fn polygon(&self) -> Arc<Polygon> {
        Arc::new(Polygon::from_mbr(&self.region))
    }
}

struct Ctx<'a> {
    plan: &'a Plan,
    passes: usize,
    smoke: bool,
    tracer: &'a mut Tracer,
    out: Metrics,
}

impl Ctx<'_> {
    /// Times `f` best-of-`passes` inside a span named after the pass.
    fn timed<T>(&mut self, span: &'static str, f: impl FnMut() -> T) -> (T, f64) {
        let open = self.tracer.enter(span, SETUP_OP);
        let r = best_of(self.passes, f);
        self.tracer.exit(open);
        r
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    fn engine(&mut self, mode: Mode, persist: Option<&std::path::Path>) -> Engine {
        build_engine(mode, self.tracer, SETUP_OP, persist)
    }
}

/// Every per-layer metric, for any workload.
pub fn measure(
    plan: &Plan,
    observed: &Observed,
    smoke: bool,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let own = Data::own(plan)?;
    let [g, w, x] =
        [Format::GeoJson, Format::Wkt, Format::OsmXml].map(|f| Data::of(f, &own, plan.seed, smoke));
    let mut cx = Ctx {
        plan,
        passes: if smoke { 1 } else { 3 },
        smoke,
        tracer,
        out: Vec::new(),
    };
    cx.put("bench.datagen_s", plan.datagen_s);
    cx.put("bench.input_mb", own.bytes().len() as f64 / MB);
    cx.put(
        "bench.trace_overhead_share",
        observed.trace_overhead_share.unwrap_or(0.0),
    );

    let (_, secs) = cx.timed("transducer.scan.memchr", || scan::memchr(0, own.bytes(), 0));
    cx.put("transducer.memchr_mbps", mbps(own.bytes().len(), secs));
    let (_, secs) = cx.timed("core.engine.build", || {
        Engine::builder().threads(spec::ENGINE_THREADS).build()
    });
    cx.put("core.engine.build_ms", secs * 1e3);

    let features = parse_all(
        own.bytes(),
        own.dataset.format(),
        Mode::Pat,
        &MetadataFilter::All,
    )
    .map_err(|e| format!("parse for layer metrics: {e}"))?;
    cx.put(
        "formats.features_per_mb",
        features.len() as f64 / (own.bytes().len() as f64 / MB),
    );

    transducer(&mut cx, &g);
    formats(&mut cx, &g, &w, &x);
    geometry(&mut cx, &own, &features);
    rtree(&mut cx, &features);
    engine_runs(&mut cx, &own)?;
    sharded(&mut cx, &own)?;
    ladder(&mut cx, &own)?;
    join(&mut cx, &own)?;
    stream(&mut cx, &g)?;
    persist(&mut cx, &own)?;
    scheduler(&mut cx, &own)?;
    server(&mut cx, &own, observed)?;
    Ok(cx.out)
}

/// The transducer layer over GeoJSON bytes: the structural DFA run,
/// the speculative all-start-states block run, and fragment merge.
fn transducer(cx: &mut Ctx, g: &Data) {
    let bytes = g.bytes();
    let dfa = lexer::lexer();
    let (_, secs) = cx.timed("transducer.dfa.run", || {
        let mut actions = 0u64;
        dfa.run(dfa.start_state(), bytes, 0, |_, _| actions += 1);
        actions
    });
    cx.put("transducer.dfa_run_mbps", mbps(bytes.len(), secs));

    let starts: Vec<u8> = (0..dfa.num_states() as u8).collect();
    let (_, secs) = cx.timed("transducer.dfa.run_block", || {
        bytes
            .chunks(spec::STREAM_CHUNK)
            .map(|c| {
                DfaFragment::<Sum>::run_block(dfa, &starts, c, 0, |t, _, _, _| t.0 += 1)
                    .distinct_finishing_states()
            })
            .sum::<usize>()
    });
    cx.put("transducer.dfa_run_block_mbps", mbps(bytes.len(), secs));

    // Merge cost with real token tapes: fragments are built outside
    // the timed fold, which pays only `try_merge_with`.
    let mut best = f64::INFINITY;
    let mut merges = 1usize;
    for _ in 0..cx.passes {
        let frags: Vec<_> = bytes
            .chunks(spec::STREAM_CHUNK)
            .enumerate()
            .map(|(i, c)| lexer::lex_block(c, (i * spec::STREAM_CHUNK) as u64))
            .collect();
        merges = frags.len().saturating_sub(1).max(1);
        let open = cx.tracer.enter("transducer.dfa.try_merge_with", SETUP_OP);
        let t = Instant::now();
        let folded = frags
            .into_iter()
            .reduce(|acc, f| acc.try_merge_with(f).expect("all start states speculated"));
        best = best.min(t.elapsed().as_secs_f64());
        cx.tracer.exit(open);
        black_box(folded);
    }
    cx.put("transducer.fragment_merge_us", best * 1e6 / merges as f64);
}

/// The three format parsers through their public entry points.
fn formats(cx: &mut Ctx, g: &Data, w: &Data, x: &Data) {
    let all = MetadataFilter::All;
    let (_, secs) = cx.timed("formats.split.marker_blocks", || {
        marker_blocks(g.bytes(), geojson::FEATURE_MARKER, 8)
    });
    cx.put(
        "formats.split.marker_blocks_mbps",
        mbps(g.bytes().len(), secs),
    );
    let (_, secs) = cx.timed("formats.geojson.parse_pat", || {
        geojson::parse_pat(g.bytes(), &all)
    });
    cx.put(
        "formats.geojson.parse_pat_mbps",
        mbps(g.bytes().len(), secs),
    );
    let (_, secs) = cx.timed("formats.geojson.lex_block", || {
        g.bytes()
            .chunks(spec::STREAM_CHUNK)
            .map(|c| lexer::lex_block(c, 0).distinct_finishing_states())
            .sum::<usize>()
    });
    cx.put(
        "formats.geojson.lex_block_mbps",
        mbps(g.bytes().len(), secs),
    );
    let (_, secs) = cx.timed("formats.geojson.parse_fat", || {
        geojson::parse_fat(g.bytes(), &all, 8)
    });
    cx.put(
        "formats.geojson.parse_fat_mbps",
        mbps(g.bytes().len(), secs),
    );

    let (_, secs) = cx.timed("formats.wkt.parse_pat", || wkt::parse_pat(w.bytes(), &all));
    cx.put("formats.wkt.parse_pat_mbps", mbps(w.bytes().len(), secs));

    let (_, secs) = cx.timed("formats.osmxml.collect_nodes", || {
        osmxml::collect_nodes(x.bytes(), 0, x.bytes().len())
    });
    cx.put(
        "formats.osmxml.collect_nodes_mbps",
        mbps(x.bytes().len(), secs),
    );
    let (_, secs) = cx.timed("formats.osmxml.parse", || osmxml::parse(x.bytes(), &all));
    cx.put("formats.osmxml.parse_mbps", mbps(x.bytes().len(), secs));
}

/// Geometry predicates, measures and sink absorb over parsed features.
fn geometry(cx: &mut Ctx, d: &Data, features: &[RawFeature]) {
    let region = d.polygon();
    let region_mbr = region.mbr();
    let (_, secs) = cx.timed("geometry.mbr.intersects", || {
        features
            .iter()
            .filter(|f| f.geometry.mbr().intersects(&region_mbr))
            .count()
    });
    cx.put(
        "geometry.mbr_filter_mfeat_s",
        features.len() as f64 / secs / 1e6,
    );

    // The stripe region holds 30 % of the centroids, so candidates exist.
    let candidates: Vec<&RawFeature> = features
        .iter()
        .filter(|f| f.geometry.mbr().intersects(&region_mbr))
        .collect();
    cx.tracer
        .count("geometry.mbr_hits", candidates.len() as u64);
    let reference = Geometry::Polygon((*region).clone());
    let (_, secs) = cx.timed("geometry.relate.intersects", || {
        candidates
            .iter()
            .filter(|f| intersects(&f.geometry, &reference))
            .count()
    });
    cx.put(
        "geometry.relate_intersects_kops_s",
        candidates.len() as f64 / secs / 1e3,
    );
    let (_, secs) = cx.timed("geometry.measures", || {
        candidates
            .iter()
            .map(|f| {
                measures::area(&f.geometry, DistanceModel::Spherical)
                    + measures::perimeter(&f.geometry, DistanceModel::Spherical)
            })
            .sum::<f64>()
    });
    cx.put(
        "geometry.measures_kops_s",
        candidates.len() as f64 / secs / 1e3,
    );

    let (_, secs) = cx.timed("core.pipeline.absorb", || absorb_all(features, &region));
    cx.put(
        "core.pipeline.absorb_mfeat_s",
        features.len() as f64 / secs / 1e6,
    );
}

/// Feeds every feature to the two sinks the scan queries compile to.
fn absorb_all(features: &[RawFeature], region: &Arc<Polygon>) -> (usize, u64) {
    let mut containment = ContainmentAgg::new(region.clone());
    let mut metrics = MetricsAgg::new(
        region.clone(),
        &[Metric::Area, Metric::Perimeter, Metric::Count],
        DistanceModel::Spherical,
        FilterStrategy::Auto,
    );
    for f in features {
        containment.absorb(f);
        metrics.absorb(f);
    }
    (containment.matches.len(), metrics.values().count)
}

fn rtree(cx: &mut Ctx, features: &[RawFeature]) {
    let items: Vec<(Mbr, u64)> = features.iter().map(|f| (f.geometry.mbr(), f.id)).collect();
    let (tree, secs) = cx.timed("rtree.bulk_load", || RTree::bulk_load(items.clone()));
    cx.put("rtree.bulk_load_kobj_s", items.len() as f64 / secs / 1e3);
    let mut hits = Vec::new();
    let (_, secs) = cx.timed("rtree.query", || {
        let mut total = 0usize;
        for (mbr, _) in &items {
            hits.clear();
            tree.query_into(mbr, &mut hits);
            total += hits.len();
        }
        total
    });
    cx.put("rtree.query_kops_s", items.len() as f64 / secs / 1e3);
}

/// `Engine::run` on one and two threads, and the phase timings of the
/// timed two-thread run.
fn engine_runs(cx: &mut Ctx, d: &Data) -> Result<(), String> {
    let (queries, ds) = (d.scan_queries(), d.dataset());
    let mut rates = [0.0f64; 2];
    let mut answers = [0u64; 2];
    for (i, (threads, span)) in [(1usize, "core.engine.run_1t"), (2, "core.engine.run_2t")]
        .into_iter()
        .enumerate()
    {
        let engine = Engine::builder().threads(threads).build();
        let (out, secs) = cx.timed(span, || {
            engine.run(&queries, &ds, &ExecOptions::new().timed())
        });
        let out = out.map_err(|e| e.to_string())?;
        rates[i] = mbps(ds.len(), secs);
        if let (2, Some(b)) = (threads, &out.batch) {
            cx.put(
                "core.timings.split_ms",
                b.shared_scan.split.as_secs_f64() * 1e3,
            );
            cx.put(
                "core.timings.process_ms",
                b.shared_scan.process.as_secs_f64() * 1e3,
            );
            cx.put(
                "core.timings.merge_ms",
                b.shared_scan.merge.as_secs_f64() * 1e3,
            );
        }
        answers[i] = digest(&out.collapse().map_err(|e| e.to_string())?);
    }
    // No end-to-end workload runs two engine threads (README
    // "Calibration"), so the parallel path's answer is checked here.
    if answers[0] != answers[1] {
        return Err("Engine::run on two threads answers differently from one thread".into());
    }
    cx.put("core.engine.run_1t_mbps", rates[0]);
    cx.put("core.engine.run_2t_mbps", rates[1]);
    cx.put("core.engine.speedup_2t", rates[1] / rates[0]);
    Ok(())
}

/// Diagnostic only — no end-to-end workload shards.
fn sharded(cx: &mut Ctx, d: &Data) -> Result<(), String> {
    let (queries, ds) = (d.scan_queries(), d.dataset());
    let engine = Engine::builder().threads(2).build();
    let (out, secs) = cx.timed("core.shard.run_sharded4", || {
        engine.run(&queries, &ds, &ExecOptions::new().sharded(4).timed())
    });
    let out = out.map_err(|e| e.to_string())?;
    cx.put("core.shard.run_sharded4_mbps", mbps(ds.len(), secs));
    let pruned = out.shard_stats().map_or(0.0, |s| {
        s.pruned as f64 / (s.scattered + s.pruned).max(1) as f64
    });
    cx.put("core.shard.pruned_share", pruned);
    Ok(())
}

/// Counts every occurrence of `needle`: the structural floor of the
/// formats that have no transducer DFA of their own.
fn count_byte(needle: u8, bytes: &[u8]) -> u64 {
    let (mut at, mut n) = (0usize, 0u64);
    while let Some(p) = scan::memchr(needle, bytes, at) {
        n += 1;
        at = p + 1;
    }
    n
}

/// The outside-in ladder: cumulative single-thread rungs over the
/// workload's bytes, memchr → structural scan → parse → + geometry
/// predicate → + sink absorb → `Engine::run`. A rung's self time is
/// its time minus the previous rung's; shares are of the one-thread
/// run and telescope to 1. `engine_rest_share` is negative when the
/// engine's fused scan beats materialise-then-absorb.
fn ladder(cx: &mut Ctx, d: &Data) -> Result<(), String> {
    let bytes = d.bytes();
    let format = d.dataset.format();
    let region = d.polygon();
    let reference = Geometry::Polygon((*region).clone());
    let region_mbr = region.mbr();
    let parse =
        || parse_all(bytes, format, Mode::Pat, &MetadataFilter::All).expect("parsed before");

    cx.timed("ladder.memchr", || scan::memchr(0, bytes, 0));
    let (_, structural) = cx.timed("ladder.scan", || match format {
        Format::GeoJson => {
            let dfa = lexer::lexer();
            let mut actions = 0u64;
            dfa.run(dfa.start_state(), bytes, 0, |_, _| actions += 1);
            actions
        }
        // Every element start / every row end.
        Format::OsmXml => count_byte(b'<', bytes),
        Format::Wkt => count_byte(b'\n', bytes),
    });
    let (_, parsed) = cx.timed("ladder.parse", || parse().len());
    let (_, predicate) = cx.timed("ladder.parse_geometry", || {
        parse()
            .iter()
            .filter(|f| {
                f.geometry.mbr().intersects(&region_mbr) && intersects(&f.geometry, &reference)
            })
            .count()
    });
    let (_, absorbed) = cx.timed("ladder.parse_geometry_sink", || {
        absorb_all(&parse(), &region)
    });

    let (queries, ds) = (d.scan_queries(), d.dataset());
    let engine = Engine::builder().threads(1).build();
    let (out, run) = cx.timed("ladder.engine_run_1t", || {
        engine.run(&queries, &ds, &ExecOptions::new())
    });
    out.map_err(|e| e.to_string())?;

    cx.put("ladder.scan_share", structural / run);
    cx.put("ladder.parse_share", (parsed - structural) / run);
    cx.put("ladder.geometry_share", (predicate - parsed) / run);
    cx.put("ladder.sink_share", (absorbed - predicate) / run);
    cx.put("ladder.engine_rest_share", (run - absorbed) / run);
    Ok(())
}

/// Join breakdown from the public `JoinTimings` of a timed cold join.
fn join(cx: &mut Ctx, d: &Data) -> Result<(), String> {
    let (queries, ds) = (d.join_query(), d.dataset());
    let engine = cx.engine(Mode::Pat, None);
    let (out, _) = cx.timed("core.session.run", || {
        QuerySession::new(engine.clone(), ds.clone()).run(&queries, &ExecOptions::new().timed())
    });
    let out = out.map_err(|e| e.to_string())?;
    let timings = out
        .batch
        .as_ref()
        .and_then(|b| b.per_query.first())
        .and_then(|q| q.join)
        .ok_or("timed join without JoinTimings")?;
    cx.put(
        "core.join.partition_ms",
        timings.partition.total().as_secs_f64() * 1e3,
    );
    cx.put("core.join.refine_ms", timings.refine.as_secs_f64() * 1e3);
    cx.put(
        "core.join.join_ms",
        timings.join.total().as_secs_f64() * 1e3,
    );
    cx.put("core.join.dedup_ms", timings.dedup.as_secs_f64() * 1e3);
    let pairs = match out.outcomes.first() {
        Some(Ok(QueryResult::Joined(pairs))) => pairs.len(),
        other => return Err(format!("join answered {other:?}")),
    };
    cx.put("core.join.pairs", pairs as f64);
    Ok(())
}

fn stream(cx: &mut Ctx, g: &Data) -> Result<(), String> {
    let queries = g.scan_queries();
    let engine = cx.engine(Mode::Fat, None);
    let (out, secs) = cx.timed("core.engine.run_streaming", || {
        let mut source = SliceChunkSource::new(g.bytes(), spec::STREAM_CHUNK);
        engine.run_streaming(
            &queries,
            &mut source,
            Format::GeoJson,
            &ExecOptions::new().timed(),
        )
    });
    let out = out.map_err(|e| e.to_string())?;
    cx.put(
        "core.stream.run_streaming_mbps",
        mbps(g.bytes().len(), secs),
    );
    let s = out
        .stream
        .clone()
        .ok_or("timed streaming run without StreamStats")?;
    // No end-to-end workload drives the pipelined streamer (README
    // "Calibration"), so its answer is checked here, against the
    // buffered scan of the same bytes.
    let buffered = engine
        .run(&queries, &g.dataset(), &ExecOptions::new())
        .and_then(|o| o.collapse())
        .map_err(|e| e.to_string())?;
    if digest(&out.collapse().map_err(|e| e.to_string())?) != digest(&buffered) {
        return Err("Engine::run_streaming answers differently from the buffered scan".into());
    }
    cx.put("core.stream.regions", s.regions as f64);
    cx.put("core.stream.merges", s.merges as f64);
    cx.put("core.stream.peak_fragments", s.peak_fragments as f64);
    cx.put(
        "core.stream.ingest_wait_ms",
        s.ingest_wait.as_secs_f64() * 1e3,
    );
    Ok(())
}

/// Snapshot save, load and decode through `PersistStore`'s public API.
fn persist(cx: &mut Ctx, d: &Data) -> Result<(), String> {
    let (bytes, format) = (d.bytes(), d.dataset.format());
    let root = cx.plan.scratch.join("layers-store");
    let copy = cx.plan.scratch.join("layers-store-copy");
    for dir in [&root, &copy] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let engine = cx.engine(Mode::Pat, Some(&root));
    QuerySession::new(engine, d.dataset())
        .run(&d.join_query(), &ExecOptions::new())
        .map_err(|e| e.to_string())?;

    let open = |dir: &std::path::Path| PersistStore::open(dir).map_err(|e| e.to_string());
    let snapshot_path = open(&root)?.snapshot_path(bytes, format);
    let encoded = std::fs::read(&snapshot_path).map_err(|e| e.to_string())?;
    cx.put(
        "core.persist.snapshot_bytes_per_input_byte",
        encoded.len() as f64 / bytes.len() as f64,
    );
    // A fresh store per pass: no resident copy, so load = read + decode.
    let (loaded, secs) = cx.timed("core.persist.load", || {
        PersistStore::open(&root).and_then(|s| s.load(bytes, format))
    });
    let snapshot = loaded
        .map_err(|e| e.to_string())?
        .ok_or("snapshot missing after the cold join")?;
    cx.put("core.persist.load_ms", secs * 1e3);
    let (decoded, secs) = cx.timed("core.persist.snapshot.decode", || {
        atgis::persist::snapshot::decode(&encoded).map(|s| s.index_count())
    });
    decoded.map_err(|e| e.to_string())?;
    cx.put("core.persist.decode_mbps", mbps(encoded.len(), secs));
    let target = open(&copy)?;
    let (saved, secs) = cx.timed("core.persist.save", || target.save(&snapshot));
    saved.map_err(|e| e.to_string())?;
    cx.put("core.persist.save_ms", secs * 1e3);
    Ok(())
}

/// Requests of the serve mix replayed for the exact scheduler counts
/// and, off `serve_closed`, for the server statistics.
const REPLAY: usize = 160;

/// The serve mix replayed single-threaded through
/// `QueryScheduler::run`, four requests per batch: cache hits, dedup
/// hits and scan passes repeat exactly for a seed.
fn scheduler(cx: &mut Ctx, d: &Data) -> Result<(), String> {
    let engine = cx.engine(Mode::Pat, None);
    let scheduler = QueryScheduler::new(engine);
    let id = scheduler.register(d.dataset());
    let requests: Vec<Query> = Mix::new(cx.plan, 0)
        .take(if cx.smoke { 16 } else { REPLAY })
        .map(|r| r.spec.to_query())
        .collect();
    let (mut served, mut cache_hits, mut dedup_hits, mut scan_passes) = (0u64, 0u64, 0u64, 0u64);
    let open = cx.tracer.enter("core.scheduler.run", SETUP_OP);
    for batch in requests.chunks(4) {
        let out = scheduler
            .run(id, batch, &ExecOptions::new().timed())
            .map_err(|e| e.to_string())?;
        let s = out.scheduler.ok_or("timed scheduler run without stats")?;
        served += s.queries;
        cache_hits += s.cache_hits;
        dedup_hits += s.dedup_hits;
        scan_passes += s.scan_passes;
    }
    cx.tracer.exit(open);
    cx.put(
        "core.scheduler.cache_hit_share",
        cache_hits as f64 / served.max(1) as f64,
    );
    cx.put("core.scheduler.dedup_hits", dedup_hits as f64);
    cx.put("core.scheduler.scan_passes", scan_passes as f64);
    Ok(())
}

fn server(cx: &mut Ctx, d: &Data, observed: &Observed) -> Result<(), String> {
    let tile = QuerySpec::Aggregation {
        region: d.region,
        metrics: MetricMask::ALL,
    };
    const CALLS: u64 = 20_000;
    let (_, secs) = cx.timed("server.protocol.encode_submit", || {
        (0..CALLS)
            .map(|i| encode_submit(i, 0, Priority::Interactive, NO_TIMEOUT, black_box(&tile)).len())
            .sum::<usize>()
    });
    cx.put(
        "server.protocol.encode_submit_ns",
        secs * 1e9 / CALLS as f64,
    );
    let frame = encode_submit(1, 0, Priority::Interactive, NO_TIMEOUT, &tile);
    let (_, secs) = cx.timed("server.protocol.parse_request", || {
        (0..CALLS)
            .filter(|_| parse_request(black_box(&frame)).is_ok())
            .count()
    });
    cx.put(
        "server.protocol.parse_request_ns",
        secs * 1e9 / CALLS as f64,
    );

    // A realistic large reply: every match of the 30 % stripe.
    let engine = cx.engine(Mode::Pat, None);
    let result = engine
        .run(
            &[Query::containment(d.region)],
            &d.dataset(),
            &ExecOptions::new(),
        )
        .and_then(|o| o.into_single())
        .map_err(|e| e.to_string())?;
    let (encoded, secs) = cx.timed("server.protocol.encode_result", || {
        encode_result(1, &result)
    });
    cx.put(
        "server.protocol.encode_result_mbps",
        mbps(encoded.len(), secs),
    );
    let (parsed, secs) = cx.timed("server.protocol.parse_response", || {
        parse_response(&encoded).is_ok()
    });
    if !parsed {
        return Err("encode_result output did not parse".into());
    }
    cx.put(
        "server.protocol.parse_response_mbps",
        mbps(encoded.len(), secs),
    );

    // Socket + dispatch floor: a cached hot tile on an idle server.
    let Serving {
        handle,
        mut clients,
    } = Serving::setup(cx.plan, cx.tracer)?;
    let mix = Mix::new(cx.plan, 0);
    let hot = mix.fixed_requests()[1].clone();
    let mut round_trips = Vec::new();
    let open = cx.tracer.enter("server.roundtrip_hit", SETUP_OP);
    for _ in 0..if cx.smoke { 20 } else { 300 } {
        let t = Instant::now();
        clients[0]
            .query(0, &hot.spec, hot.priority, NO_TIMEOUT)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        round_trips.push(t.elapsed().as_secs_f64() * 1e6);
    }
    cx.tracer.exit(open);
    cx.put(
        "server.roundtrip_hit_us",
        crate::stats::median(&round_trips),
    );

    // `serve_closed` reports its own window (two connections); the
    // other workloads replay the mix over one connection here.
    let stats = match observed.server_stats {
        Some(stats) => stats,
        None => {
            let open = cx.tracer.enter("server.replay", SETUP_OP);
            for r in mix.take(if cx.smoke { 16 } else { REPLAY }) {
                clients[0]
                    .query(0, &r.spec, r.priority, NO_TIMEOUT)
                    .map_err(|e| e.to_string())?
                    .map_err(|e| e.to_string())?;
            }
            cx.tracer.exit(open);
            clients[0].stats().map_err(|e| e.to_string())?
        }
    };
    drop(clients);
    handle.shutdown();
    cx.put("server.stats.cache_hits", stats.cache_hits as f64);
    cx.put("server.stats.dedup_hits", stats.dedup_hits as f64);
    cx.put("server.stats.scan_passes", stats.scan_passes as f64);
    cx.put("server.stats.overloaded", stats.overloaded as f64);
    cx.put(
        "server.class.interactive_p95_ms",
        stats.interactive.p95_us as f64 / 1e3,
    );
    cx.put("server.class.batch_p95_ms", stats.batch.p95_us as f64 / 1e3);
    Ok(())
}
