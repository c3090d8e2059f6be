//! Loopback integration suite: a real server on an ephemeral
//! loopback port, exercised by real TCP clients.
//!
//! Covers the serving-layer contract: results over the wire are
//! bit-identical to the library path, malformed and truncated frames
//! produce structured errors (never a panic or a hang), a client
//! disconnecting mid-query increments the cumulative `cancelled`
//! counter without affecting other tenants, and deadline / overload
//! failures map to distinct wire error codes.

use atgis::{Dataset, Engine, ExecOptions, Priority, QueryResult, QueryScheduler};
use atgis_datagen::{write_geojson, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;
use atgis_server::protocol::{self, Request, StatsReport};
use atgis_server::{
    Client, ErrorCode, MetricMask, QuerySpec, Response, Server, ServerConfig, ServerHandle,
    NO_TIMEOUT,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn engine() -> Engine {
    Engine::builder()
        .threads(2)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0)
        .build()
}

fn dataset(seed: u64, objects: usize) -> Dataset {
    Dataset::from_bytes(
        write_geojson(&OsmGenerator::new(seed).generate(objects)),
        Format::GeoJson,
    )
}

/// A served scheduler over one registered dataset (wire id 0).
fn serve(seed: u64, objects: usize, config: ServerConfig) -> ServerHandle {
    let server = Server::with_config(QueryScheduler::new(engine()), config);
    server.register(0, dataset(seed, objects));
    server
        .serve("127.0.0.1:0".parse().unwrap())
        .expect("bind loopback")
}

fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let specs = [
        QuerySpec::Containment(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
        QuerySpec::Aggregation {
            region: Mbr::new(-2.0, 48.0, 2.0, 52.0),
            metrics: MetricMask::ALL,
        },
        QuerySpec::Containment(Mbr::new(0.0, 50.0, 4.0, 54.0)),
        QuerySpec::Join(600),
    ];
    // The library path: same engine configuration, same constructors.
    let ds = dataset(71, 2_400);
    let lib = engine();
    let want: Vec<_> = specs
        .iter()
        .map(|s| {
            lib.run(&[s.to_query()], &ds, &ExecOptions::new())
                .and_then(|o| o.into_single())
                .unwrap()
        })
        .collect();

    let handle = serve(71, 2_400, ServerConfig::default());
    let addr = handle.addr();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Each worker walks the specs in a different order, at
                // mixed priorities, twice.
                for round in 0..2 {
                    for k in 0..specs.len() {
                        let i = (k + w + round) % specs.len();
                        let class = if (w + k) % 2 == 0 {
                            Priority::Interactive
                        } else {
                            Priority::Batch
                        };
                        let got = client
                            .query(0, &specs[i], class, NO_TIMEOUT)
                            .expect("io")
                            .expect("server result");
                        assert_eq!(got, want[i], "worker {w} spec {i} diverged");
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client worker");
    }

    let stats = handle.stats();
    assert_eq!(stats.served, 4 * 2 * 4, "every submission accounted for");
    assert_eq!(stats.cancelled, 0);
    assert!(stats.interactive.completed > 0 && stats.batch.completed > 0);
    handle.shutdown();
}

/// Reads and parses one response frame off a raw socket (5 s cap so
/// a silent server fails the test instead of hanging it).
fn read_raw_response(stream: &mut TcpStream) -> Option<atgis_server::Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).ok()?;
    atgis_server::protocol::parse_response(&payload).ok()
}

#[test]
fn malformed_frames_get_structured_errors_never_hangs() {
    let handle = serve(72, 400, ServerConfig::default());
    let addr = handle.addr();
    let expect_malformed = |mut raw: TcpStream, what: &str| {
        match read_raw_response(&mut raw) {
            Some(atgis_server::Response::Error { req_id, code, .. }) => {
                assert_eq!(req_id, 0, "{what}: unattributable request id");
                assert_eq!(code, ErrorCode::Malformed, "{what}");
            }
            other => panic!("{what}: expected a Malformed error, got {other:?}"),
        }
        // The connection is closed after a desync: next read is EOF.
        let mut probe = [0u8; 1];
        assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "{what}: not closed");
    };

    // An absurd length prefix: structured Malformed, then close.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    expect_malformed(raw, "oversized length prefix");

    // A zero-length frame is equally malformed.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&0u32.to_be_bytes()).unwrap();
    expect_malformed(raw, "zero-length frame");

    // A well-framed payload with an unknown opcode.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&1u32.to_be_bytes()).unwrap();
    raw.write_all(&[0xEE]).unwrap();
    expect_malformed(raw, "unknown opcode");

    // A well-formed submit whose query region has a NaN bound.
    let nan_region = QuerySpec::Containment(Mbr::new(f64::NAN, 48.0, 2.0, 52.0));
    let frame = protocol::encode_submit(9, 0, Priority::Interactive, NO_TIMEOUT, &nan_region);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(&frame).unwrap();
    expect_malformed(raw, "NaN query region");

    // A submit frame cut off mid-payload, then a hard close: the
    // server must neither panic nor hang on the half-frame.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&64u32.to_be_bytes()).unwrap();
    raw.write_all(&[1, 2, 3]).unwrap();
    drop(raw);

    // And after all of that abuse a fresh client is served normally.
    let mut client = Client::connect(addr).unwrap();
    let spec = QuerySpec::Containment(Mbr::new(-2.0, 48.0, 2.0, 52.0));
    assert!(client
        .query(0, &spec, Priority::Interactive, NO_TIMEOUT)
        .unwrap()
        .is_ok());
    handle.shutdown();
}

#[test]
fn mid_query_disconnect_increments_cancelled_without_hurting_others() {
    // Large enough that the doomed join is still running when the
    // disconnect lands — the join pipeline is fast enough now that a
    // small dataset would finish inside the dispatch window.
    let objects = 60_000;
    let handle = serve(73, objects, ServerConfig::default());
    let addr = handle.addr();

    // Tenant A submits an expensive solo join and vanishes.
    let mut doomed = Client::connect(addr).unwrap();
    doomed
        .submit(
            0,
            &QuerySpec::Join((objects / 2) as u64),
            Priority::Batch,
            NO_TIMEOUT,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it dispatch
    drop(doomed); // disconnect trips the request's CancelToken

    wait_until("the disconnected join to count as cancelled", || {
        handle.scheduler_stats().cancelled >= 1
    });

    // Tenant B is unaffected: same server, correct result.
    let spec = QuerySpec::Aggregation {
        region: Mbr::new(-2.0, 48.0, 2.0, 52.0),
        metrics: MetricMask::ALL,
    };
    let ds = dataset(73, objects);
    let want = engine()
        .run(&[spec.to_query()], &ds, &ExecOptions::new())
        .and_then(|o| o.into_single())
        .unwrap();
    let mut survivor = Client::connect(addr).unwrap();
    let got = survivor
        .query(0, &spec, Priority::Interactive, NO_TIMEOUT)
        .unwrap()
        .expect("survivor result");
    assert_eq!(got, want);
    handle.shutdown();
}

#[test]
fn deadline_and_overload_are_distinct_wire_errors() {
    // A zero budget: every batch submission is shed.
    let handle = serve(
        74,
        800,
        ServerConfig {
            queue_budget: 0.0,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr()).unwrap();
    let tile = QuerySpec::Containment(Mbr::new(-2.0, 48.0, 2.0, 52.0));

    let shed = client
        .query(0, &tile, Priority::Batch, NO_TIMEOUT)
        .unwrap()
        .expect_err("batch work must be shed at budget 0");
    assert_eq!(shed.code, ErrorCode::Overloaded);

    // Interactive ignores the budget but honours its deadline: a
    // zero-millisecond budget has elapsed before dispatch.
    let expired = client
        .query(0, &tile, Priority::Interactive, 0)
        .unwrap()
        .expect_err("a zero deadline must expire");
    assert_eq!(expired.code, ErrorCode::DeadlineExceeded);
    assert_ne!(shed.code, expired.code);

    // And an interactive query with room to breathe still succeeds.
    assert!(client
        .query(0, &tile, Priority::Interactive, NO_TIMEOUT)
        .unwrap()
        .is_ok());

    let stats = handle.stats();
    assert_eq!(stats.overloaded, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    handle.shutdown();
}

#[test]
fn cancel_frame_aborts_an_inflight_query() {
    let handle = serve(75, 6_000, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let req = client
        .submit(0, &QuerySpec::Join(3_000), Priority::Batch, NO_TIMEOUT)
        .unwrap();
    client.cancel(req).unwrap();
    let err = client.wait(req).unwrap().expect_err("cancelled join");
    assert_eq!(err.code, ErrorCode::Cancelled);
    assert!(handle.stats().cancelled >= 1);

    // The connection survives a cancel and serves the next query.
    let spec = QuerySpec::Containment(Mbr::new(-2.0, 48.0, 2.0, 52.0));
    assert!(client
        .query(0, &spec, Priority::Interactive, NO_TIMEOUT)
        .unwrap()
        .is_ok());
    handle.shutdown();
}

/// A scripted server that answers every pair of submits in *reverse*
/// order (a dummy `Combined` result echoing the request id) and every
/// stats request with `served = 42` — the advertised out-of-order
/// case, made deterministic.
fn spawn_reversing_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let write_frame = |stream: &mut TcpStream, payload: Vec<u8>| {
            stream
                .write_all(&(payload.len() as u32).to_be_bytes())
                .unwrap();
            stream.write_all(&payload).unwrap();
        };
        let mut batch = Vec::new();
        loop {
            let mut len = [0u8; 4];
            if stream.read_exact(&mut len).is_err() {
                break; // client gone — done
            }
            let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
            stream.read_exact(&mut payload).unwrap();
            match protocol::parse_request(&payload).unwrap() {
                Request::Submit { req_id, .. } => {
                    batch.push(req_id);
                    if batch.len() == 2 {
                        for id in batch.drain(..).rev() {
                            let result = QueryResult::Combined {
                                pairs: id,
                                total_union_area: 0.0,
                            };
                            write_frame(&mut stream, protocol::encode_result(id, &result));
                        }
                    }
                }
                Request::Stats => {
                    let report = StatsReport {
                        served: 42,
                        ..StatsReport::default()
                    };
                    write_frame(&mut stream, protocol::encode_stats_report(&report));
                }
                Request::Cancel { .. } => {}
            }
        }
    });
    (addr, handle)
}

#[test]
fn waits_keep_reading_the_socket_past_buffered_responses() {
    // Regression: wait() and stats() used to re-pop the pending
    // buffer they had already scanned, so once any unrelated response
    // was buffered they spun forever rotating it instead of reading
    // the stream. Run the client on its own thread so a regression
    // fails the test instead of hanging it.
    let (addr, server) = spawn_reversing_server();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client_thread = std::thread::spawn(move || {
        let echo = |id| QueryResult::Combined {
            pairs: id,
            total_union_area: 0.0,
        };
        let spec = QuerySpec::Join(1);
        let mut client = Client::connect(addr).unwrap();
        let a = client
            .submit(0, &spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap();
        let b = client
            .submit(0, &spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap();
        // The server answers b first: waiting on a must buffer b's
        // response and keep reading.
        assert_eq!(client.wait(a).unwrap().unwrap(), echo(a));
        assert_eq!(client.wait(b).unwrap().unwrap(), echo(b));

        // Same out-of-order dance, but leave d's response buffered
        // when asking for stats.
        let c = client
            .submit(0, &spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap();
        let d = client
            .submit(0, &spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap();
        assert_eq!(client.wait(c).unwrap().unwrap(), echo(c));
        assert_eq!(client.stats().unwrap().served, 42);
        // The buffered response survived the stats call intact.
        assert_eq!(client.wait(d).unwrap().unwrap(), echo(d));
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("client livelocked on a buffered out-of-order response");
    client_thread.join().expect("client thread");
    server.join().expect("scripted server");
}

#[test]
fn duplicate_inflight_req_id_is_rejected() {
    let handle = serve(78, 2_000, ServerConfig::default());
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    // Two submits reusing id 7, sent back to back so the second is
    // parsed while the first (a join pass over the whole dataset) is
    // still in flight: the second must be refused — admitting it
    // would orphan one of the two tokens in the live map.
    let frame = protocol::encode_submit(7, 0, Priority::Batch, NO_TIMEOUT, &QuerySpec::Join(1_000));
    for _ in 0..2 {
        raw.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
        raw.write_all(&frame).unwrap();
    }
    match read_raw_response(&mut raw) {
        Some(Response::Error { req_id, code, .. }) => {
            assert_eq!(req_id, 7);
            assert_eq!(code, ErrorCode::Internal);
        }
        other => panic!("expected a duplicate-id rejection, got {other:?}"),
    }
    // The original request is unaffected: its result still arrives on
    // the same connection.
    match read_raw_response(&mut raw) {
        Some(Response::Result { req_id, .. }) => assert_eq!(req_id, 7),
        other => panic!("expected the original request's result, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn unknown_dataset_is_a_structured_error() {
    let handle = serve(76, 300, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client
        .query(99, &QuerySpec::Join(1), Priority::Interactive, NO_TIMEOUT)
        .unwrap()
        .expect_err("dataset 99 is not registered");
    assert_eq!(err.code, ErrorCode::UnknownDataset);
    handle.shutdown();
}

#[test]
fn stats_travel_the_wire_faithfully() {
    let handle = serve(77, 600, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let tile = QuerySpec::Aggregation {
        region: Mbr::new(-6.0, 44.0, 4.0, 56.0),
        metrics: MetricMask::ALL,
    };
    for _ in 0..3 {
        client
            .query(0, &tile, Priority::Interactive, NO_TIMEOUT)
            .unwrap()
            .expect("result");
    }
    let wire = client.stats().unwrap();
    let local = handle.stats();
    assert_eq!(wire, local, "the STATS frame answers the same snapshot");
    assert_eq!(wire.served, 3);
    // Identical aggregation predicates: the second and third are
    // answered by dedup or the cross-batch aggregate cache.
    assert!(wire.cache_hits + wire.dedup_hits >= 1);
    assert!(wire.interactive.completed == 3 && wire.batch.completed == 0);
    handle.shutdown();
}

#[test]
fn server_warm_starts_from_the_persist_store() {
    // Two incarnations of the server over the same persist root: the
    // first parses cold and spills through the store, the second
    // restores at registration and must serve bit-identical results
    // without a single parse pass — the serving layer's warm-start
    // contract end to end over real TCP.
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("server-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store_engine = || {
        Engine::builder()
            .threads(2)
            .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
            .cell_size(1.0)
            .persist_path(&root)
            .build()
    };
    let specs = [
        QuerySpec::Join(600),
        QuerySpec::Aggregation {
            region: Mbr::new(-2.0, 48.0, 2.0, 52.0),
            metrics: MetricMask::ALL,
        },
        QuerySpec::Containment(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
    ];
    let ds = dataset(81, 1_200);
    let lib = engine();
    let want: Vec<_> = specs
        .iter()
        .map(|s| {
            lib.run(&[s.to_query()], &ds, &ExecOptions::new())
                .and_then(|o| o.into_single())
                .unwrap()
        })
        .collect();

    // First incarnation: cold, every answer spilled through the store.
    let server = Server::with_config(QueryScheduler::new(store_engine()), ServerConfig::default());
    server.register(0, dataset(81, 1_200));
    let handle = server.serve("127.0.0.1:0".parse().unwrap()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (i, spec) in specs.iter().enumerate() {
        let got = client
            .query(0, spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap()
            .expect("cold result");
        assert_eq!(got, want[i], "cold incarnation diverged at spec {i}");
    }
    drop(client);
    handle.shutdown();

    // Simulated restart: fresh engine, scheduler and server over the
    // same root. Registration restores the snapshot.
    let server = Server::with_config(QueryScheduler::new(store_engine()), ServerConfig::default());
    server.register(0, dataset(81, 1_200));
    let handle = server.serve("127.0.0.1:0".parse().unwrap()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (i, spec) in specs.iter().enumerate() {
        let got = client
            .query(0, spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap()
            .expect("warm result");
        assert_eq!(got, want[i], "warm incarnation diverged at spec {i}");
    }
    let sched = handle.scheduler_stats();
    assert_eq!(
        sched.scan_passes, 0,
        "a warm-started server must answer without one parse pass"
    );
    assert!(
        sched.cache_hits >= 2,
        "restored aggregates serve the single-pass queries"
    );
    handle.shutdown();
}

#[test]
fn metric_selection_travels_the_wire() {
    // Each mask must come back bit-identical to the library query it
    // denotes: unselected metrics report zero, selected ones the full
    // value — and a count-only aggregate skips the measure math.
    let ds = dataset(79, 1_800);
    let lib = engine();
    let region = Mbr::new(-4.0, 46.0, 4.0, 54.0);
    let handle = serve(79, 1_800, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for mask in [
        MetricMask::ALL,
        MetricMask(MetricMask::COUNT),
        MetricMask(MetricMask::AREA),
        MetricMask(MetricMask::COUNT | MetricMask::PERIMETER),
    ] {
        let spec = QuerySpec::Aggregation {
            region,
            metrics: mask,
        };
        let want = lib
            .run(&[spec.to_query()], &ds, &ExecOptions::new())
            .and_then(|o| o.into_single())
            .unwrap();
        let got = client
            .query(0, &spec, Priority::Interactive, NO_TIMEOUT)
            .unwrap()
            .unwrap_or_else(|e| panic!("mask {:#x}: {e:?}", mask.0));
        assert_eq!(got, want, "mask {:#x}", mask.0);
        if mask.0 == MetricMask::COUNT {
            let QueryResult::Aggregate(a) = &got else {
                panic!("aggregation must yield an aggregate");
            };
            assert!(a.count > 0, "workload region holds features");
            assert_eq!(a.total_area, 0.0, "unselected metric stays zero");
            assert_eq!(a.total_perimeter, 0.0, "unselected metric stays zero");
        }
    }
    handle.shutdown();
}
