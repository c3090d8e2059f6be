//! The frozen benchmark definition: workloads, sizes, op-count floors
//! and every metric's name, unit, direction and bound. `BENCHMARK.json`
//! at the repo root must say the same; a unit test holds them
//! together.

use atgis_formats::Format;

/// Default seed (the paper's year); `--seed` overrides.
pub const DEFAULT_SEED: u64 = 2016;
/// Timed window per run, seconds — `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;
/// Engine threads of every end-to-end workload — fixed, never
/// `nproc`-derived. One, not the issue's two: on the two-vCPU sandbox
/// a two-thread op finishes when the *slower* vCPU does, so anything
/// the host does to either vCPU lands in the latency, and same-seed
/// runs of `geojson_pat` spread 10 % (inter-quartile over median)
/// against 2 % single-threaded (README "Calibration"). A metric that
/// noisy cannot gate anything. The two-thread path is still measured,
/// unbounded, by `core.engine.run_2t_mbps` / `core.engine.speedup_2t`
/// in the traced run.
pub const ENGINE_THREADS: usize = 1;
/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Ops run (and discarded) at the end of each set-up so caches fill
/// and lazy initialisation finishes before the timed window.
pub const WARMUP_OPS: usize = 5;
/// Fixed-offset blocks a FAT scan cuts its input into (the engine's
/// `block_multiplier`, at one thread): 64 KiB blocks on `stream_fat`'s
/// 2 MB, the chunk length. With the default 4 the cost of a scan
/// depends on where those few cuts happen to fall in the bytes — over
/// ten seeds the median op ran 22–32 ms — while 32 cuts average that
/// luck out (24–26 ms) and speculate and merge at every one of them,
/// which is what the workload is for.
pub const FAT_BLOCKS: usize = 32;
/// Chunk length of the streamed workload's source.
pub const STREAM_CHUNK: usize = 64 * 1024;
/// Closed-loop client connections of the serving workload.
pub const SERVE_CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GeojsonPat,
    XmlScan,
    JoinWkt,
    StreamFat,
    RestartWarm,
    ServeClosed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line: why the workload exists (mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub format: Format,
    /// Generated objects at full size / under `--smoke`.
    pub objects: usize,
    pub smoke_objects: usize,
    /// Floor on timed ops: the window runs for `--seconds` *and* at
    /// least this many ops, so `op_p95_ms` has ≥ 12 samples beyond it
    /// and `op_tail_ms` ≥ 12 blocks.
    pub min_ops: usize,
}

pub const SMOKE_MIN_OPS: usize = 12;
pub const SMOKE_SECONDS: f64 = 0.25;

/// Sizes were calibrated once (README "Calibration") so a median op
/// takes 25–35 ms and the 15 s window holds 400–550 ops (≈ 1 900 for
/// `serve_closed`); they are frozen here.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::GeojsonPat,
        name: "geojson_pat",
        why: "headline PAT path over raw GeoJSON: fast parser, geometry predicates and sinks do the work; join, stream, persist and server do none",
        format: Format::GeoJson,
        objects: 9_000,
        smoke_objects: 400,
        min_ops: 240,
    },
    Workload {
        kind: Kind::XmlScan,
        name: "xml_scan",
        why: "same two queries over OSM-XML: the two-pass node table dominates, so GeoJSON parser changes must not move it and XML changes must not move geojson_pat",
        format: Format::OsmXml,
        objects: 2_000,
        smoke_objects: 150,
        min_ops: 240,
    },
    Workload {
        kind: Kind::JoinWkt,
        name: "join_wkt",
        why: "cold self-join over WKT, the cheapest parse: partition, PBSM join, R-tree and relate carry the time; scan-layer gains should barely register",
        format: Format::Wkt,
        objects: 7_500,
        smoke_objects: 400,
        min_ops: 240,
    },
    Workload {
        kind: Kind::StreamFat,
        name: "stream_fat",
        why: "chunk-fed ingest into a StreamBuffer, then a FAT scan: speculative DFA blocks, token lexer and fragment merge instead of the PAT fast parser; PAT-only changes predict no movement",
        format: Format::GeoJson,
        objects: 5_000,
        smoke_objects: 400,
        min_ops: 240,
    },
    Workload {
        kind: Kind::RestartWarm,
        name: "restart_warm",
        why: "time to first join after a restart: fresh engine and store per op, snapshot load and decode only, zero scan passes asserted; page-cache reads, sandbox latency",
        format: Format::GeoJson,
        objects: 8_000,
        smoke_objects: 400,
        min_ops: 240,
    },
    Workload {
        kind: Kind::ServeClosed,
        name: "serve_closed",
        why: "closed loop, 2 connections over loopback: hot tiles hit the aggregate cache, random tiles share scans, batch joins use the warm index; protocol, dispatcher and scheduler decide it",
        format: Format::GeoJson,
        objects: 6_000,
        smoke_objects: 400,
        min_ops: 1_500,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// The largest bound the benchmark contract allows.
pub const MAX_BOUND: f64 = 0.25;

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. Every workload reports all five from the untraced
/// run. The bounds sit at the contract's ceiling because the sandbox
/// does not resolve less: identical code on identical inputs drifts
/// 10–25 % over minutes, `stream_fat`'s peak RSS differs by up to a
/// quarter from seed to seed (README "Calibration"), and a bound
/// tighter than the benchmark's own spread would reject the benchmark
/// itself.
pub const END_TO_END: [(Metric, f64); 5] = [
    (m("setup_s", "s", "lower"), 0.25),
    (m("throughput_mbps", "MB/s", "higher"), 0.25),
    (m("op_p50_ms", "ms", "lower"), 0.25),
    (m("op_tail_ms", "ms", "lower"), 0.25),
    (m("peak_rss_mb", "MB", "lower"), 0.25),
];

/// Reported by `run` and `aa` beside the end-to-end metrics, never
/// gated: the pooled nearest-rank p95 of the window's op latencies.
/// On the sandbox 2–10 % of a window's ops fall into interference
/// bursts, so the pooled p95 sits on the edge between disturbed and
/// undisturbed ops and its run-to-run spread passes every bound the
/// contract allows (README "Calibration") — a metric wider than its
/// bound is unresolved, not unchanged, so it carries no bound;
/// `op_tail_ms` is the tail that gates.
pub const UNGATED: [Metric; 1] = [m("op_p95_ms", "ms", "lower")];

/// Per-layer metrics from the traced run, layer = module name. Every
/// traced run measures all of them (`layers::measure`) on the
/// workload's own bytes, bar the passes that read one format only.
pub const PER_LAYER: [Metric; 63] = [
    m("transducer.memchr_mbps", "MB/s", "higher"),
    m("transducer.dfa_run_mbps", "MB/s", "higher"),
    m("transducer.dfa_run_block_mbps", "MB/s", "higher"),
    m("transducer.fragment_merge_us", "us", "lower"),
    m("formats.split.marker_blocks_mbps", "MB/s", "higher"),
    m("formats.geojson.parse_pat_mbps", "MB/s", "higher"),
    m("formats.geojson.lex_block_mbps", "MB/s", "higher"),
    m("formats.geojson.parse_fat_mbps", "MB/s", "higher"),
    m("formats.wkt.parse_pat_mbps", "MB/s", "higher"),
    m("formats.osmxml.collect_nodes_mbps", "MB/s", "higher"),
    m("formats.osmxml.parse_mbps", "MB/s", "higher"),
    m("formats.features_per_mb", "1/MB", "higher"),
    m("geometry.mbr_filter_mfeat_s", "Mfeat/s", "higher"),
    m("geometry.relate_intersects_kops_s", "kops/s", "higher"),
    m("geometry.measures_kops_s", "kops/s", "higher"),
    m("rtree.bulk_load_kobj_s", "kobj/s", "higher"),
    m("rtree.query_kops_s", "kops/s", "higher"),
    m("core.pipeline.absorb_mfeat_s", "Mfeat/s", "higher"),
    m("core.engine.build_ms", "ms", "lower"),
    m("core.engine.run_1t_mbps", "MB/s", "higher"),
    m("core.engine.run_2t_mbps", "MB/s", "higher"),
    m("core.engine.speedup_2t", "ratio", "higher"),
    m("core.timings.split_ms", "ms", "lower"),
    m("core.timings.process_ms", "ms", "lower"),
    m("core.timings.merge_ms", "ms", "lower"),
    m("core.join.partition_ms", "ms", "lower"),
    m("core.join.refine_ms", "ms", "lower"),
    m("core.join.join_ms", "ms", "lower"),
    m("core.join.dedup_ms", "ms", "lower"),
    m("core.join.pairs", "count", "higher"),
    m("core.stream.run_streaming_mbps", "MB/s", "higher"),
    m("core.stream.regions", "count", "lower"),
    m("core.stream.merges", "count", "lower"),
    m("core.stream.peak_fragments", "count", "lower"),
    m("core.stream.ingest_wait_ms", "ms", "lower"),
    m("core.persist.save_ms", "ms", "lower"),
    m("core.persist.load_ms", "ms", "lower"),
    m("core.persist.decode_mbps", "MB/s", "higher"),
    m("core.persist.snapshot_bytes_per_input_byte", "B/B", "lower"),
    m("core.scheduler.cache_hit_share", "share", "higher"),
    m("core.scheduler.dedup_hits", "count", "higher"),
    m("core.scheduler.scan_passes", "count", "lower"),
    m("core.shard.run_sharded4_mbps", "MB/s", "higher"),
    m("core.shard.pruned_share", "share", "higher"),
    m("server.protocol.encode_submit_ns", "ns", "lower"),
    m("server.protocol.parse_request_ns", "ns", "lower"),
    m("server.protocol.encode_result_mbps", "MB/s", "higher"),
    m("server.protocol.parse_response_mbps", "MB/s", "higher"),
    m("server.roundtrip_hit_us", "us", "lower"),
    m("server.stats.cache_hits", "count", "higher"),
    m("server.stats.dedup_hits", "count", "higher"),
    m("server.stats.scan_passes", "count", "lower"),
    m("server.stats.overloaded", "count", "lower"),
    m("server.class.interactive_p95_ms", "ms", "lower"),
    m("server.class.batch_p95_ms", "ms", "lower"),
    m("ladder.scan_share", "share", "lower"),
    m("ladder.parse_share", "share", "lower"),
    m("ladder.geometry_share", "share", "lower"),
    m("ladder.sink_share", "share", "lower"),
    m("ladder.engine_rest_share", "share", "lower"),
    m("bench.datagen_s", "s", "lower"),
    m("bench.input_mb", "MB", "lower"),
    m("bench.trace_overhead_share", "share", "lower"),
];

/// Per-layer metrics that are exact counts: same seed ⇒ same value,
/// run after run. `aa` checks that they repeat.
pub const EXACT_COUNTS: [&str; 5] = [
    "core.join.pairs",
    "formats.features_per_mb",
    "core.scheduler.cache_hit_share",
    "core.scheduler.dedup_hits",
    "core.scheduler.scan_passes",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(&UNGATED)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string field {key} in {v:?}"))
    }

    /// BENCHMARK.json ↔ code: same workloads (with reasons), same
    /// metrics, units, directions and bounds, and every name within
    /// the contract's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64().unwrap(),
            RUN_SECONDS
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (m, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better);
            assert_eq!(j.get("bound").unwrap().as_f64().unwrap(), *bound);
            assert!(*bound > 0.0 && *bound <= MAX_BOUND);
        }
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .unwrap();
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better);
        }

        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(UNGATED.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        for n in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == n), "{n}");
        }
    }
}
