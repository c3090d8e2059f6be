//! # AT-GIS serving front end
//!
//! A std-only TCP server that turns the in-process
//! [`QueryScheduler`](atgis::QueryScheduler) into a network service —
//! the multi-user in-situ scenario the paper motivates: many tenants
//! issuing interactive queries over raw files, no load step, no
//! external dependencies.
//!
//! The pieces:
//!
//! - [`protocol`] — the length-prefixed wire format: submit / cancel
//!   / stats requests, result / error / stats-report responses, all
//!   decoded defensively (malformed input is a structured
//!   [`ErrorCode::Malformed`], never a panic).
//! - [`Server`] — thread-per-connection serving. Every request owns a
//!   [`atgis::CancelToken`]: a wire cancel frame, a client disconnect,
//!   or a per-request deadline trips it. A single dispatcher drains
//!   the submission queue into
//!   [`run_multi`](atgis::QueryScheduler::run_multi)
//!   calls, so co-arriving requests share scans and interactive-class
//!   work is admitted ahead of batch outliers.
//! - [`Client`] — a small blocking client used by the examples, the
//!   integration tests, and any external driver.
//!
//! Backpressure reuses the scheduler's admission cost model: each
//! submission is priced in scan-equivalents, and batch-class work is
//! shed with [`ErrorCode::Overloaded`] once the outstanding cost
//! exceeds [`ServerConfig::queue_budget`] — interactive tenants keep
//! their latency; batch tenants get an immediate, retryable signal
//! instead of an unbounded queue.
//!
//! ```no_run
//! use atgis::{Engine, QueryScheduler};
//! use atgis_server::{MetricMask, Server, Client, Priority, QuerySpec, NO_TIMEOUT};
//! use atgis_formats::Format;
//! use atgis_geometry::Mbr;
//!
//! let scheduler = QueryScheduler::new(Engine::builder().build());
//! let server = Server::new(scheduler);
//! server.register(0, atgis::Dataset::from_bytes(geojson_bytes(), Format::GeoJson));
//! let handle = server.serve("127.0.0.1:0".parse().unwrap()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let tile = QuerySpec::Aggregation {
//!     region: Mbr::new(-2.0, 48.0, 2.0, 52.0),
//!     metrics: MetricMask::ALL,
//! };
//! let reply = client.query(0, &tile, Priority::Interactive, NO_TIMEOUT).unwrap();
//! println!("{:?}", reply);
//! # fn geojson_bytes() -> Vec<u8> { Vec::new() }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod protocol;
mod server;

pub use client::{Client, ServerError};
pub use protocol::{
    ClassReport, ErrorCode, MetricMask, QuerySpec, Request, Response, StatsReport, NO_TIMEOUT,
};
pub use server::{Server, ServerConfig, ServerHandle};

// Re-exported so client code can name priorities and queries without
// depending on the core crate directly.
pub use atgis::{Priority, QueryResult};
