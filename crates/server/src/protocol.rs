//! The length-prefixed wire protocol between clients and the server.
//!
//! Every frame is `u32` big-endian *payload length*, then the payload:
//! one opcode byte followed by an opcode-specific body. Integers are
//! big-endian; `f64` travels as the big-endian bytes of
//! [`f64::to_bits`], so values (including NaN payloads and signed
//! zeros) round-trip bit-identically.
//!
//! Requests: [`SUBMIT`] (request id, dataset id, priority, timeout,
//! query), [`CANCEL`] (request id), [`STATS`] (empty). Responses:
//! [`RESULT`] (request id, encoded [`QueryResult`]), [`ERROR`]
//! (request id, [`ErrorCode`], message), [`STATS_REPORT`]
//! (a [`StatsReport`]).
//!
//! Decoding is defensive end to end: lengths are capped
//! ([`MAX_REQUEST_FRAME`] inbound, [`MAX_RESPONSE_FRAME`] outbound),
//! element counts are validated against the bytes actually present
//! before any allocation, and every malformed input surfaces a
//! [`WireError`] — never a panic, never an unbounded allocation.

use atgis::{FilterStrategy, Metric, Priority, Query, QueryResult};
use atgis_geometry::DistanceModel;
use atgis_geometry::Mbr;
use std::time::Duration;

/// Submit a query (client → server).
pub const SUBMIT: u8 = 1;
/// Cancel an in-flight request by id (client → server).
pub const CANCEL: u8 = 2;
/// Ask for the server's cumulative statistics (client → server).
pub const STATS: u8 = 3;
/// A successful query result (server → client).
pub const RESULT: u8 = 16;
/// A structured failure for one request (server → client).
pub const ERROR: u8 = 17;
/// The statistics snapshot answering a [`STATS`] frame.
pub const STATS_REPORT: u8 = 18;

/// Largest accepted client → server payload. Requests are tiny
/// (a query spec is a few dozen bytes), so anything bigger is a
/// corrupt or hostile length prefix.
pub const MAX_REQUEST_FRAME: u32 = 1 << 16;
/// Largest server → client payload (a containment result can carry
/// hundreds of thousands of match records).
pub const MAX_RESPONSE_FRAME: u32 = 1 << 28;
/// `timeout_ms` sentinel meaning "no deadline".
pub const NO_TIMEOUT: u64 = u64::MAX;

/// Why the server failed a request, as a stable wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The frame or its payload did not parse; the connection is
    /// closed after this error because the stream may be desynced.
    Malformed,
    /// The submitted dataset id is not registered on this server.
    UnknownDataset,
    /// Admission control shed this low-priority submission: the
    /// queued scan-equivalent cost already exceeds the server budget.
    Overloaded,
    /// The request's [`atgis::CancelToken`] was cancelled (a `CANCEL`
    /// frame or the client disconnecting mid-query).
    Cancelled,
    /// The request's deadline elapsed before it completed.
    DeadlineExceeded,
    /// The query's worker task panicked; the failure was confined to
    /// this request.
    Panicked,
    /// Any other failure: engine errors (parse failure, unsupported
    /// query), protocol misuse (a request id already in flight), or a
    /// result too large to frame; the message carries the detail.
    Internal,
}

impl ErrorCode {
    /// The stable wire byte for this code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownDataset => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::Cancelled => 4,
            ErrorCode::DeadlineExceeded => 5,
            ErrorCode::Panicked => 6,
            ErrorCode::Internal => 7,
        }
    }

    /// Decodes a wire byte; `None` for unknown codes.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownDataset,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::Cancelled,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::Panicked,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::UnknownDataset => "unknown dataset",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::Panicked => "query panicked",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(s)
    }
}

/// Which aggregate metrics an aggregation request computes, as one
/// wire byte: bit 1 = count, bit 2 = area, bit 4 = perimeter. The
/// server rejects a zero or unknown-bit mask at parse time, so a
/// decoded mask is always valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricMask(pub u8);

impl MetricMask {
    /// Bit selecting [`Metric::Count`].
    pub const COUNT: u8 = 1;
    /// Bit selecting [`Metric::Area`].
    pub const AREA: u8 = 2;
    /// Bit selecting [`Metric::Perimeter`].
    pub const PERIMETER: u8 = 4;
    /// Every metric — what [`Query::aggregation`] computes.
    pub const ALL: MetricMask = MetricMask(Self::COUNT | Self::AREA | Self::PERIMETER);

    /// Whether the mask selects at least one metric and no unknown
    /// bits.
    pub fn is_valid(self) -> bool {
        self.0 != 0 && self.0 & !Self::ALL.0 == 0
    }

    /// The selected metrics, in the same order as the
    /// [`Query::aggregation`] default so `MetricMask::ALL` denotes the
    /// *identical* engine query (and deduplicates against library
    /// submissions of it).
    pub fn to_metrics(self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        if self.0 & Self::AREA != 0 {
            metrics.push(Metric::Area);
        }
        if self.0 & Self::PERIMETER != 0 {
            metrics.push(Metric::Perimeter);
        }
        if self.0 & Self::COUNT != 0 {
            metrics.push(Metric::Count);
        }
        metrics
    }
}

/// A query as it travels on the wire: the closed, fixed-size subset
/// of [`Query`] the protocol speaks (rectangular regions and a metric
/// bitmask; the full polygon surface stays a library concern). Build
/// the engine query with [`QuerySpec::to_query`] — tests use the same
/// call for the library-path comparison, which is what makes
/// "bit-identical over the wire" checkable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// Geometries intersecting the region ([`Query::containment`]).
    Containment(Mbr),
    /// Aggregate the selected metrics over the region
    /// ([`Query::aggregation_with`]; `MetricMask::ALL` is exactly
    /// [`Query::aggregation`]).
    Aggregation {
        /// The query region.
        region: Mbr,
        /// Which metrics to compute.
        metrics: MetricMask,
    },
    /// Self-join with the id-threshold split ([`Query::join`]).
    Join(u64),
    /// Join + perimeter filters + union-area aggregate
    /// ([`Query::combined`]).
    Combined {
        /// Id threshold splitting the two join sides.
        id_threshold: u64,
        /// Minimum left-side perimeter filter.
        min_left: f64,
        /// Maximum right-side perimeter filter.
        max_right: f64,
    },
}

impl QuerySpec {
    /// The engine [`Query`] this spec denotes — exactly what the
    /// corresponding library constructor builds.
    pub fn to_query(&self) -> Query {
        match *self {
            QuerySpec::Containment(mbr) => Query::containment(mbr),
            QuerySpec::Aggregation { region, metrics } => Query::aggregation_with(
                region,
                metrics.to_metrics(),
                DistanceModel::Spherical,
                FilterStrategy::Auto,
            ),
            QuerySpec::Join(t) => Query::join(t),
            QuerySpec::Combined {
                id_threshold,
                min_left,
                max_right,
            } => Query::combined(id_threshold, min_left, max_right),
        }
    }
}

/// A parsed client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one query for execution.
    Submit {
        /// Client-chosen id echoed in the response.
        req_id: u64,
        /// Server-registered dataset id.
        dataset: u64,
        /// SLO class the scheduler admits the query under.
        priority: Priority,
        /// Per-request deadline in milliseconds; [`NO_TIMEOUT`] for
        /// none.
        timeout_ms: u64,
        /// The query itself.
        query: QuerySpec,
    },
    /// Cancel the in-flight request with this id (advisory: unknown
    /// or already-completed ids are ignored).
    Cancel {
        /// The id from the original submit.
        req_id: u64,
    },
    /// Request a [`StatsReport`].
    Stats,
}

/// A parsed server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request completed; here is its result.
    Result {
        /// Echo of the submit's request id.
        req_id: u64,
        /// The query's result, bit-identical to the library path.
        result: QueryResult,
    },
    /// The request failed in a structured way.
    Error {
        /// Echo of the offending request id (0 when the failure was
        /// not attributable to a request, e.g. an unparseable frame).
        req_id: u64,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The statistics snapshot.
    Stats(StatsReport),
}

/// Completion-latency percentiles for one SLO class, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Queries completed under this class.
    pub completed: u64,
    /// Nearest-rank p50 completion latency, µs.
    pub p50_us: u64,
    /// Nearest-rank p95 completion latency, µs.
    pub p95_us: u64,
    /// Nearest-rank p99 completion latency, µs.
    pub p99_us: u64,
}

/// The server's cumulative serving statistics, as answered to a
/// [`STATS`] frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Queries served (every submit that reached the scheduler).
    pub served: u64,
    /// Queries actually executed after dedup and cache hits.
    pub unique: u64,
    /// Queries answered by sharing another submission's execution.
    pub dedup_hits: u64,
    /// Queries answered from the cross-batch aggregate cache.
    pub cache_hits: u64,
    /// Structural parse passes across all dispatched waves.
    pub scan_passes: u64,
    /// Requests that ended [`ErrorCode::Cancelled`].
    pub cancelled: u64,
    /// Requests that ended [`ErrorCode::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests that ended [`ErrorCode::Panicked`].
    pub task_panics: u64,
    /// Low-priority submissions shed with [`ErrorCode::Overloaded`]
    /// before ever queueing.
    pub overloaded: u64,
    /// Interactive-class completion latencies.
    pub interactive: ClassReport,
    /// Batch-class completion latencies.
    pub batch: ClassReport,
}

/// A defensive decoding failure: the frame did not say what its
/// opcode promised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type WireResult<T> = std::result::Result<T, WireError>;

fn err<T>(what: &str) -> WireResult<T> {
    Err(WireError(what.to_string()))
}

// ---------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_mbr(buf: &mut Vec<u8>, m: &Mbr) {
    put_f64(buf, m.min_x);
    put_f64(buf, m.min_y);
    put_f64(buf, m.max_x);
    put_f64(buf, m.max_y);
}

/// Bounds-checked cursor over a frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return err("truncated payload");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn mbr(&mut self) -> WireResult<Mbr> {
        Ok(Mbr::new(self.f64()?, self.f64()?, self.f64()?, self.f64()?))
    }

    /// A query region: an MBR whose four bounds are finite. A NaN or
    /// infinite bound has no well-defined edge or interior, so the
    /// request is malformed rather than a query that matches nothing.
    fn region(&mut self) -> WireResult<Mbr> {
        let m = self.mbr()?;
        if [m.min_x, m.min_y, m.max_x, m.max_y]
            .iter()
            .all(|v| v.is_finite())
        {
            Ok(m)
        } else {
            err("non-finite query region")
        }
    }

    /// A `u32` element count for fixed-`size` records, validated
    /// against the bytes actually present *before* any allocation.
    fn count(&mut self, size: usize) -> WireResult<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(size)
            .is_none_or(|total| total > self.remaining())
        {
            return err("element count exceeds payload");
        }
        Ok(n)
    }

    fn finish(self) -> WireResult<()> {
        if self.remaining() != 0 {
            return err("trailing bytes after payload");
        }
        Ok(())
    }
}

fn priority_to_u8(p: Priority) -> u8 {
    match p {
        Priority::Interactive => 0,
        Priority::Batch => 1,
    }
}

fn priority_from_u8(b: u8) -> WireResult<Priority> {
    match b {
        0 => Ok(Priority::Interactive),
        1 => Ok(Priority::Batch),
        _ => err("unknown priority class"),
    }
}

// ---------------------------------------------------------------
// Frame payload encoding (opcode byte + body; the u32 length prefix
// is written by the framing layer)
// ---------------------------------------------------------------

/// Encodes a [`Request::Submit`] payload.
pub fn encode_submit(
    req_id: u64,
    dataset: u64,
    priority: Priority,
    timeout_ms: u64,
    query: &QuerySpec,
) -> Vec<u8> {
    let mut buf = vec![SUBMIT];
    put_u64(&mut buf, req_id);
    put_u64(&mut buf, dataset);
    put_u8(&mut buf, priority_to_u8(priority));
    put_u64(&mut buf, timeout_ms);
    match *query {
        QuerySpec::Containment(mbr) => {
            put_u8(&mut buf, 1);
            put_mbr(&mut buf, &mbr);
        }
        QuerySpec::Aggregation { region, metrics } => {
            put_u8(&mut buf, 2);
            put_mbr(&mut buf, &region);
            put_u8(&mut buf, metrics.0);
        }
        QuerySpec::Join(t) => {
            put_u8(&mut buf, 3);
            put_u64(&mut buf, t);
        }
        QuerySpec::Combined {
            id_threshold,
            min_left,
            max_right,
        } => {
            put_u8(&mut buf, 4);
            put_u64(&mut buf, id_threshold);
            put_f64(&mut buf, min_left);
            put_f64(&mut buf, max_right);
        }
    }
    buf
}

/// Encodes a [`Request::Cancel`] payload.
pub fn encode_cancel(req_id: u64) -> Vec<u8> {
    let mut buf = vec![CANCEL];
    put_u64(&mut buf, req_id);
    buf
}

/// Encodes a [`Request::Stats`] payload.
pub fn encode_stats_request() -> Vec<u8> {
    vec![STATS]
}

/// Encodes a [`Response::Result`] payload.
pub fn encode_result(req_id: u64, result: &QueryResult) -> Vec<u8> {
    let mut buf = vec![RESULT];
    put_u64(&mut buf, req_id);
    match result {
        QueryResult::Matches(records) => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, records.len() as u32);
            for r in records {
                put_u64(&mut buf, r.id);
                put_u64(&mut buf, r.offset);
                put_u32(&mut buf, r.len);
                put_mbr(&mut buf, &r.mbr);
            }
        }
        QueryResult::Aggregate(a) => {
            put_u8(&mut buf, 2);
            put_u64(&mut buf, a.count);
            put_f64(&mut buf, a.total_area);
            put_f64(&mut buf, a.total_perimeter);
        }
        QueryResult::Joined(pairs) => {
            put_u8(&mut buf, 3);
            put_u32(&mut buf, pairs.len() as u32);
            for p in pairs {
                put_u64(&mut buf, p.left_id);
                put_u64(&mut buf, p.right_id);
                put_u64(&mut buf, p.left_offset);
                put_u64(&mut buf, p.right_offset);
            }
        }
        QueryResult::Combined {
            pairs,
            total_union_area,
        } => {
            put_u8(&mut buf, 4);
            put_u64(&mut buf, *pairs);
            put_f64(&mut buf, *total_union_area);
        }
    }
    buf
}

/// Encodes a [`Response::Error`] payload.
pub fn encode_error(req_id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut buf = vec![ERROR];
    put_u64(&mut buf, req_id);
    put_u8(&mut buf, code.as_u8());
    let msg = message.as_bytes();
    let len = msg.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_be_bytes());
    buf.extend_from_slice(&msg[..len]);
    buf
}

/// Encodes a [`Response::Stats`] payload.
pub fn encode_stats_report(report: &StatsReport) -> Vec<u8> {
    let mut buf = vec![STATS_REPORT];
    for v in [
        report.served,
        report.unique,
        report.dedup_hits,
        report.cache_hits,
        report.scan_passes,
        report.cancelled,
        report.deadline_exceeded,
        report.task_panics,
        report.overloaded,
    ] {
        put_u64(&mut buf, v);
    }
    for class in [&report.interactive, &report.batch] {
        put_u64(&mut buf, class.completed);
        put_u64(&mut buf, class.p50_us);
        put_u64(&mut buf, class.p95_us);
        put_u64(&mut buf, class.p99_us);
    }
    buf
}

/// Microsecond wire form of a latency (saturating: a ~584-millennium
/// latency reports `u64::MAX`).
pub fn duration_to_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------
// Frame payload decoding
// ---------------------------------------------------------------

/// Parses a client → server payload (opcode byte included).
pub fn parse_request(payload: &[u8]) -> WireResult<Request> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        SUBMIT => {
            let req_id = r.u64()?;
            let dataset = r.u64()?;
            let priority = priority_from_u8(r.u8()?)?;
            let timeout_ms = r.u64()?;
            let query = match r.u8()? {
                1 => QuerySpec::Containment(r.region()?),
                2 => {
                    let region = r.region()?;
                    let metrics = MetricMask(r.u8()?);
                    if !metrics.is_valid() {
                        return err("bad metric mask");
                    }
                    QuerySpec::Aggregation { region, metrics }
                }
                3 => QuerySpec::Join(r.u64()?),
                4 => QuerySpec::Combined {
                    id_threshold: r.u64()?,
                    min_left: r.f64()?,
                    max_right: r.f64()?,
                },
                _ => return err("unknown query tag"),
            };
            Request::Submit {
                req_id,
                dataset,
                priority,
                timeout_ms,
                query,
            }
        }
        CANCEL => Request::Cancel { req_id: r.u64()? },
        STATS => Request::Stats,
        _ => return err("unknown request opcode"),
    };
    r.finish()?;
    Ok(req)
}

/// Parses a server → client payload (opcode byte included).
pub fn parse_response(payload: &[u8]) -> WireResult<Response> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        RESULT => {
            let req_id = r.u64()?;
            let result = match r.u8()? {
                1 => {
                    let n = r.count(52)?; // 8 + 8 + 4 + 32 bytes per record
                    let mut records = Vec::with_capacity(n);
                    for _ in 0..n {
                        records.push(atgis::MatchRecord {
                            id: r.u64()?,
                            offset: r.u64()?,
                            len: r.u32()?,
                            mbr: r.mbr()?,
                        });
                    }
                    QueryResult::Matches(records)
                }
                2 => QueryResult::Aggregate(atgis::AggregateValues {
                    count: r.u64()?,
                    total_area: r.f64()?,
                    total_perimeter: r.f64()?,
                }),
                3 => {
                    let n = r.count(32)?; // 4 × u64 per pair
                    let mut pairs = Vec::with_capacity(n);
                    for _ in 0..n {
                        pairs.push(atgis::JoinPair {
                            left_id: r.u64()?,
                            right_id: r.u64()?,
                            left_offset: r.u64()?,
                            right_offset: r.u64()?,
                        });
                    }
                    QueryResult::Joined(pairs)
                }
                4 => QueryResult::Combined {
                    pairs: r.u64()?,
                    total_union_area: r.f64()?,
                },
                _ => return err("unknown result tag"),
            };
            Response::Result { req_id, result }
        }
        ERROR => {
            let req_id = r.u64()?;
            let code = ErrorCode::from_u8(r.u8()?).ok_or(WireError("unknown error code".into()))?;
            let len = u16::from_be_bytes(r.bytes(2)?.try_into().unwrap()) as usize;
            let message = String::from_utf8_lossy(r.bytes(len)?).into_owned();
            Response::Error {
                req_id,
                code,
                message,
            }
        }
        STATS_REPORT => {
            let mut next = || r.u64();
            let report = StatsReport {
                served: next()?,
                unique: next()?,
                dedup_hits: next()?,
                cache_hits: next()?,
                scan_passes: next()?,
                cancelled: next()?,
                deadline_exceeded: next()?,
                task_panics: next()?,
                overloaded: next()?,
                interactive: ClassReport {
                    completed: next()?,
                    p50_us: next()?,
                    p95_us: next()?,
                    p99_us: next()?,
                },
                batch: ClassReport {
                    completed: next()?,
                    p50_us: next()?,
                    p95_us: next()?,
                    p99_us: next()?,
                },
            };
            Response::Stats(report)
        }
        _ => return err("unknown response opcode"),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis::{AggregateValues, JoinPair, MatchRecord};

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            (
                encode_submit(
                    7,
                    3,
                    Priority::Batch,
                    NO_TIMEOUT,
                    &QuerySpec::Containment(Mbr::new(-1.5, 2.0, 3.25, 4.0)),
                ),
                Request::Submit {
                    req_id: 7,
                    dataset: 3,
                    priority: Priority::Batch,
                    timeout_ms: NO_TIMEOUT,
                    query: QuerySpec::Containment(Mbr::new(-1.5, 2.0, 3.25, 4.0)),
                },
            ),
            (
                encode_submit(
                    8,
                    0,
                    Priority::Interactive,
                    250,
                    &QuerySpec::Combined {
                        id_threshold: 99,
                        min_left: 0.5,
                        max_right: f64::INFINITY,
                    },
                ),
                Request::Submit {
                    req_id: 8,
                    dataset: 0,
                    priority: Priority::Interactive,
                    timeout_ms: 250,
                    query: QuerySpec::Combined {
                        id_threshold: 99,
                        min_left: 0.5,
                        max_right: f64::INFINITY,
                    },
                },
            ),
            (
                encode_submit(
                    9,
                    1,
                    Priority::Interactive,
                    NO_TIMEOUT,
                    &QuerySpec::Aggregation {
                        region: Mbr::new(0.0, 0.0, 2.0, 2.0),
                        metrics: MetricMask(MetricMask::COUNT | MetricMask::AREA),
                    },
                ),
                Request::Submit {
                    req_id: 9,
                    dataset: 1,
                    priority: Priority::Interactive,
                    timeout_ms: NO_TIMEOUT,
                    query: QuerySpec::Aggregation {
                        region: Mbr::new(0.0, 0.0, 2.0, 2.0),
                        metrics: MetricMask(MetricMask::COUNT | MetricMask::AREA),
                    },
                },
            ),
            (encode_cancel(42), Request::Cancel { req_id: 42 }),
            (encode_stats_request(), Request::Stats),
        ];
        for (bytes, want) in cases {
            assert_eq!(parse_request(&bytes).unwrap(), want);
        }
    }

    #[test]
    fn responses_round_trip() {
        let results = vec![
            QueryResult::Matches(vec![MatchRecord {
                id: 5,
                offset: 100,
                len: 33,
                mbr: Mbr::new(0.0, -0.0, 1.0, 2.0),
            }]),
            QueryResult::Matches(vec![]),
            QueryResult::Aggregate(AggregateValues {
                count: 9,
                total_area: 1.25e6,
                total_perimeter: 7.5,
            }),
            QueryResult::Joined(vec![JoinPair {
                left_id: 1,
                right_id: 2,
                left_offset: 10,
                right_offset: 20,
            }]),
            QueryResult::Combined {
                pairs: 3,
                total_union_area: 0.125,
            },
        ];
        for res in results {
            let bytes = encode_result(11, &res);
            match parse_response(&bytes).unwrap() {
                Response::Result { req_id, result } => {
                    assert_eq!(req_id, 11);
                    assert_eq!(result, res);
                }
                other => panic!("expected result, got {other:?}"),
            }
        }
        let bytes = encode_error(4, ErrorCode::Overloaded, "shed");
        assert_eq!(
            parse_response(&bytes).unwrap(),
            Response::Error {
                req_id: 4,
                code: ErrorCode::Overloaded,
                message: "shed".into(),
            }
        );
        let report = StatsReport {
            served: 10,
            unique: 8,
            dedup_hits: 2,
            cache_hits: 1,
            scan_passes: 4,
            cancelled: 1,
            deadline_exceeded: 1,
            task_panics: 0,
            overloaded: 3,
            interactive: ClassReport {
                completed: 6,
                p50_us: 100,
                p95_us: 200,
                p99_us: 300,
            },
            batch: ClassReport {
                completed: 4,
                p50_us: 1000,
                p95_us: 2000,
                p99_us: 3000,
            },
        };
        assert_eq!(
            parse_response(&encode_stats_report(&report)).unwrap(),
            Response::Stats(report)
        );
    }

    #[test]
    fn metric_mask_all_is_the_library_default_aggregation() {
        // `MetricMask::ALL` must denote the *identical* engine query
        // (same metric order), so wire submissions deduplicate against
        // library submissions of `Query::aggregation`.
        let region = Mbr::new(-2.0, 48.0, 2.0, 52.0);
        let spec = QuerySpec::Aggregation {
            region,
            metrics: MetricMask::ALL,
        };
        // `Query` has no `PartialEq`; its Debug form is total, so
        // comparing it pins the metric order too.
        assert_eq!(
            format!("{:?}", spec.to_query()),
            format!("{:?}", Query::aggregation(region))
        );
        assert_eq!(
            MetricMask(MetricMask::COUNT).to_metrics(),
            vec![Metric::Count]
        );
    }

    #[test]
    fn signed_zero_survives_the_wire() {
        // `f64` travels as raw bits: -0.0 must come back as -0.0, not
        // +0.0 (PartialEq can't see the difference; the bits can).
        let bytes = encode_submit(
            1,
            0,
            Priority::Interactive,
            NO_TIMEOUT,
            &QuerySpec::Containment(Mbr::new(-0.0, 0.0, 1.0, 1.0)),
        );
        match parse_request(&bytes).unwrap() {
            Request::Submit {
                query: QuerySpec::Containment(mbr),
                ..
            } => assert_eq!(mbr.min_x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_finite_query_regions_are_malformed() {
        let submit =
            |spec: &QuerySpec| parse_request(&encode_submit(1, 2, Priority::Interactive, 5, spec));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for k in 0..4 {
                let mut b = [0.0, 0.0, 1.0, 1.0];
                b[k] = bad;
                let region = Mbr::new(b[0], b[1], b[2], b[3]);
                let what = format!("bound {k} = {bad}");
                assert!(submit(&QuerySpec::Containment(region)).is_err(), "{what}");
                let metrics = MetricMask::ALL;
                let agg = QuerySpec::Aggregation { region, metrics };
                assert!(submit(&agg).is_err(), "{what}");
            }
        }
        // Only request regions are checked: the unbounded perimeter
        // filter of a combined query still parses, and so does a
        // response record whose MBR is empty (infinite bounds).
        let combined = QuerySpec::Combined {
            id_threshold: 1,
            min_left: 0.0,
            max_right: f64::INFINITY,
        };
        assert!(submit(&combined).is_ok());
        let record = MatchRecord {
            id: 1,
            offset: 0,
            len: 1,
            mbr: Mbr::EMPTY,
        };
        let frame = encode_result(3, &QueryResult::Matches(vec![record]));
        match parse_response(&frame) {
            Ok(Response::Result {
                result: QueryResult::Matches(records),
                ..
            }) => assert_eq!(records[0].mbr, Mbr::EMPTY),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        // Empty, unknown opcode, truncated submit, bad priority, bad
        // query tag, trailing junk.
        assert!(parse_request(&[]).is_err());
        assert!(parse_request(&[99]).is_err());
        assert!(parse_request(
            &encode_submit(1, 2, Priority::Interactive, 5, &QuerySpec::Join(1))[..12]
        )
        .is_err());
        let mut bad_prio = encode_submit(1, 2, Priority::Interactive, 5, &QuerySpec::Join(1));
        bad_prio[17] = 9; // priority byte
        assert!(parse_request(&bad_prio).is_err());
        let mut bad_tag = encode_submit(1, 2, Priority::Interactive, 5, &QuerySpec::Join(1));
        bad_tag[26] = 200; // query tag byte
        assert!(parse_request(&bad_tag).is_err());
        // Aggregation metric masks: empty and unknown bits are both
        // rejected at parse time (the mask is the payload's last byte).
        for bad_mask in [0u8, 0x80, MetricMask::ALL.0 | 0x08] {
            let mut frame = encode_submit(
                1,
                2,
                Priority::Interactive,
                5,
                &QuerySpec::Aggregation {
                    region: Mbr::new(0.0, 0.0, 1.0, 1.0),
                    metrics: MetricMask(bad_mask),
                },
            );
            assert_eq!(frame.last(), Some(&bad_mask));
            assert!(parse_request(&frame).is_err(), "mask {bad_mask:#x}");
            // …while a valid mask in the same frame parses.
            *frame.last_mut().unwrap() = MetricMask::PERIMETER;
            assert!(parse_request(&frame).is_ok());
        }
        let mut trailing = encode_cancel(1);
        trailing.push(0);
        assert!(parse_request(&trailing).is_err());
        // Responses: a match count promising more records than the
        // payload holds must be rejected before allocating.
        let mut huge = vec![RESULT];
        huge.extend_from_slice(&1u64.to_be_bytes());
        huge.push(1); // Matches tag
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(parse_response(&huge).is_err());
        assert!(parse_response(&[]).is_err());
        assert!(parse_response(&[99]).is_err());
    }
}
