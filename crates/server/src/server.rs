//! The serving loop: connections, the dispatch queue, and
//! backpressure.
//!
//! One reader thread per connection parses frames and enqueues
//! submissions; one writer thread per connection drains a channel of
//! encoded response frames (so the dispatcher never blocks on a slow
//! client socket); a single **dispatcher** thread drains the shared
//! queue into [`QueryScheduler::run_multi`] calls —
//! requests that arrive together share scans, and the scheduler's
//! class-ordered admission keeps interactive work ahead of batch
//! outliers.
//!
//! Every request owns a [`CancelToken`]: a wire `CANCEL` frame or the
//! client disconnecting trips it, and a per-request deadline arms it.
//! Backpressure reuses the admission cost model — each submission is
//! costed in scan-equivalents ([`QueryScheduler::estimate_query_cost`])
//! and batch-class submissions are shed with
//! [`ErrorCode::Overloaded`] once the queued + in-flight cost exceeds
//! [`ServerConfig::queue_budget`]. Interactive submissions are always
//! admitted: shedding is what protects them.

use crate::protocol::{
    self, duration_to_us, encode_error, encode_result, encode_stats_report, ClassReport, ErrorCode,
    Request, StatsReport, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
};
use atgis::cancel::Interrupt;
use atgis::{
    CancelToken, Dataset, DatasetId, ExecOptions, Priority, Query, QueryError, QueryResult,
    QueryScheduler, ScheduledQuery, SchedulerStats,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Serving-policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queued + in-flight scan-equivalent cost beyond which
    /// batch-class submissions are shed with
    /// [`ErrorCode::Overloaded`]. Interactive submissions ignore the
    /// budget.
    pub queue_budget: f64,
    /// How long the dispatcher sleeps waiting for work before
    /// rechecking shutdown, and how long blocked connection reads
    /// wait between shutdown checks.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // ~16 full scans of queued work: past that, batch tenants
            // are better served by an immediate structured rejection
            // than an unbounded queue.
            queue_budget: 16.0,
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// One submission waiting for (or in) dispatch.
struct PendingRequest {
    req_id: u64,
    dataset: DatasetId,
    query: Query,
    class: Priority,
    cost: f64,
    token: CancelToken,
    enqueued: Instant,
    reply: mpsc::Sender<Vec<u8>>,
    /// The owning connection's live-request map, so completion
    /// removes the token a later `CANCEL` frame would look up.
    live: Arc<Mutex<HashMap<u64, CancelToken>>>,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<PendingRequest>,
    /// Scan-equivalent cost of everything admitted but not yet
    /// completed — the backpressure currency.
    outstanding_cost: f64,
}

/// Cumulative serving statistics (the wire [`StatsReport`] is a
/// snapshot of this).
struct ServeStats {
    sched: SchedulerStats,
    overloaded: u64,
}

struct Shared {
    scheduler: QueryScheduler,
    config: ServerConfig,
    datasets: Mutex<HashMap<u64, DatasetId>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    stats: Mutex<ServeStats>,
    shutdown: AtomicBool,
}

impl Shared {
    fn snapshot(&self) -> StatsReport {
        let stats = self.stats.lock().unwrap();
        let class_report = |class: Priority| {
            let ps = stats
                .sched
                .class_latency_percentiles(class, &[50.0, 95.0, 99.0]);
            ClassReport {
                completed: stats.sched.class_latencies(class).len() as u64,
                p50_us: duration_to_us(ps[0]),
                p95_us: duration_to_us(ps[1]),
                p99_us: duration_to_us(ps[2]),
            }
        };
        StatsReport {
            served: stats.sched.queries,
            unique: stats.sched.unique_queries,
            dedup_hits: stats.sched.dedup_hits,
            cache_hits: stats.sched.cache_hits,
            scan_passes: stats.sched.scan_passes,
            cancelled: stats.sched.cancelled,
            deadline_exceeded: stats.sched.deadline_exceeded,
            task_panics: stats.sched.task_panics,
            overloaded: stats.overloaded,
            interactive: class_report(Priority::Interactive),
            batch: class_report(Priority::Batch),
        }
    }

    /// The server-side cumulative [`SchedulerStats`] (per-request
    /// completions folded via [`SchedulerStats::record`]).
    fn scheduler_stats(&self) -> SchedulerStats {
        self.stats.lock().unwrap().sched.clone()
    }
}

/// A TCP front end wrapping one [`QueryScheduler`]. Register datasets
/// under small integer wire ids, then [`Server::serve`].
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// A server over `scheduler` with the default [`ServerConfig`].
    pub fn new(scheduler: QueryScheduler) -> Self {
        Server::with_config(scheduler, ServerConfig::default())
    }

    /// A server with explicit serving-policy knobs.
    pub fn with_config(scheduler: QueryScheduler, config: ServerConfig) -> Self {
        Server {
            shared: Arc::new(Shared {
                scheduler,
                config,
                datasets: Mutex::new(HashMap::new()),
                queue: Mutex::new(QueueState::default()),
                queue_cv: Condvar::new(),
                stats: Mutex::new(ServeStats {
                    sched: SchedulerStats::new(0),
                    overloaded: 0,
                }),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Registers `dataset` for serving under the client-visible
    /// `wire_id` (re-registering a wire id repoints it).
    pub fn register(&self, wire_id: u64, dataset: Dataset) {
        let id = self.shared.scheduler.register(dataset);
        self.shared.datasets.lock().unwrap().insert(wire_id, id);
    }

    /// Binds `addr` and starts serving: an accept thread, a
    /// dispatcher thread, and two threads per accepted connection.
    /// Returns immediately with a handle for the bound address,
    /// statistics, and shutdown. Bind to port 0 for an ephemeral
    /// loopback port in tests.
    pub fn serve(self, addr: SocketAddr) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = self.shared;

        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || dispatch_loop(&shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServerHandle {
            shared,
            local,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }
}

/// A running server: its address, its statistics, and its off switch.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
    dispatcher: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// A snapshot of the cumulative serving statistics (the same
    /// report a `STATS` frame answers).
    pub fn stats(&self) -> StatsReport {
        self.shared.snapshot()
    }

    /// The cumulative per-request [`SchedulerStats`]: one
    /// latency/class entry per served query, counters folded across
    /// every dispatched wave.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.shared.scheduler_stats()
    }

    /// Stops accepting, drains the dispatcher, and joins both server
    /// threads. Connection threads notice the flag within one poll
    /// interval and exit on their own.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                thread::spawn(move || handle_connection(stream, &shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads exactly `buf.len()` bytes, riding out read timeouts (which
/// exist only so shutdown is noticed). `Ok(false)` means clean EOF
/// *before the first byte*; EOF mid-buffer is an error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &Shared) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Err(std::io::Error::other("server shutdown"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a
/// frame boundary, `Err` on anything else (including an oversized or
/// truncated frame).
fn read_frame(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_full(stream, &mut len, shared)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len);
    if len == 0 || len > MAX_REQUEST_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {MAX_REQUEST_FRAME}]"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(stream, &mut payload, shared)? {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(payload))
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };

    // The writer owns the socket's send side; everyone else sends
    // encoded frames through the channel, so a slow client can never
    // block the dispatcher.
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer = thread::spawn(move || write_loop(write_half, &reply_rx));

    let live: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::default();
    loop {
        match read_frame(&mut stream, shared) {
            Ok(None) => break, // clean disconnect
            Err(e) => {
                // A malformed length prefix or mid-frame EOF desyncs
                // the stream: answer with a structured error (best
                // effort) and close.
                if e.kind() == ErrorKind::InvalidData {
                    let _ = reply_tx.send(encode_error(0, ErrorCode::Malformed, &e.to_string()));
                }
                break;
            }
            Ok(Some(payload)) => match protocol::parse_request(&payload) {
                Err(we) => {
                    let _ = reply_tx.send(encode_error(0, ErrorCode::Malformed, &we.to_string()));
                    break;
                }
                Ok(Request::Stats) => {
                    let _ = reply_tx.send(encode_stats_report(&shared.snapshot()));
                }
                Ok(Request::Cancel { req_id }) => {
                    // Advisory: completed or never-seen ids are a
                    // benign race, not an error.
                    if let Some(token) = live.lock().unwrap().get(&req_id) {
                        token.cancel();
                    }
                }
                Ok(Request::Submit {
                    req_id,
                    dataset,
                    priority,
                    timeout_ms,
                    query,
                }) => submit(
                    shared, &live, &reply_tx, req_id, dataset, priority, timeout_ms, &query,
                ),
            },
        }
    }

    // Disconnect (or desync): every in-flight request this client
    // still owns is cancelled, exactly as if it had sent CANCEL.
    for token in live.lock().unwrap().values() {
        token.cancel();
    }
    // Let the writer drain any queued reply (e.g. the Malformed error
    // for the frame that desynced us) before tearing the socket down:
    // shutdown(Both) would cut the send half out from under it.
    drop(reply_tx);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

fn write_loop(mut stream: TcpStream, replies: &mpsc::Receiver<Vec<u8>>) {
    while let Ok(payload) = replies.recv() {
        let len = (payload.len() as u32).to_be_bytes();
        if stream.write_all(&len).is_err() || stream.write_all(&payload).is_err() {
            break;
        }
        let _ = stream.flush();
    }
}

#[allow(clippy::too_many_arguments)]
fn submit(
    shared: &Arc<Shared>,
    live: &Arc<Mutex<HashMap<u64, CancelToken>>>,
    reply: &mpsc::Sender<Vec<u8>>,
    req_id: u64,
    dataset: u64,
    priority: Priority,
    timeout_ms: u64,
    query: &protocol::QuerySpec,
) {
    // A second submit reusing a live id would overwrite its token in
    // the live map; the first completion would then release the map
    // entry and a later CANCEL (or disconnect cleanup) would miss the
    // still-running second request. Reject it up front.
    if live.lock().unwrap().contains_key(&req_id) {
        let _ = reply.send(encode_error(
            req_id,
            ErrorCode::Internal,
            &format!("request id {req_id} is already in flight on this connection"),
        ));
        return;
    }
    let Some(id) = shared.datasets.lock().unwrap().get(&dataset).copied() else {
        let _ = reply.send(encode_error(
            req_id,
            ErrorCode::UnknownDataset,
            &format!("dataset {dataset} is not registered"),
        ));
        return;
    };
    let query = query.to_query();
    let cost = match shared.scheduler.estimate_query_cost(id, &query) {
        Ok(c) => c,
        Err(e) => {
            let _ = reply.send(encode_error(req_id, ErrorCode::Internal, &format!("{e:?}")));
            return;
        }
    };
    let token = if timeout_ms == protocol::NO_TIMEOUT {
        CancelToken::new()
    } else {
        CancelToken::with_deadline(Duration::from_millis(timeout_ms))
    };

    let mut queue = shared.queue.lock().unwrap();
    // Backpressure in the admission controller's own currency:
    // batch-class work is shed once outstanding scan-equivalents
    // exceed the budget. Interactive work always queues — shedding
    // batch is what keeps its latency flat.
    if priority == Priority::Batch && queue.outstanding_cost + cost > shared.config.queue_budget {
        drop(queue);
        shared.stats.lock().unwrap().overloaded += 1;
        let _ = reply.send(encode_error(
            req_id,
            ErrorCode::Overloaded,
            "queued cost over budget; retry later",
        ));
        return;
    }
    queue.outstanding_cost += cost;
    live.lock().unwrap().insert(req_id, token.clone());
    queue.pending.push(PendingRequest {
        req_id,
        dataset: id,
        query,
        class: priority,
        cost,
        token,
        enqueued: Instant::now(),
        reply: reply.clone(),
        live: Arc::clone(live),
    });
    drop(queue);
    shared.queue_cv.notify_all();
}

fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap();
            while queue.pending.is_empty() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, shared.config.poll_interval)
                    .unwrap();
                queue = q;
            }
            std::mem::take(&mut queue.pending)
        };

        // Weed requests whose token already tripped (client gone,
        // deadline elapsed while queued): they cost nothing to fail
        // now and nothing downstream.
        let mut runnable = Vec::with_capacity(batch.len());
        for req in batch {
            match req.token.interrupted() {
                Some(interrupt) => finish_interrupted(shared, &req, interrupt),
                None => runnable.push(req),
            }
        }

        // Group by dataset, preserving arrival order; the scheduler
        // handles class ordering *within* each call.
        let mut groups: Vec<(DatasetId, Vec<PendingRequest>)> = Vec::new();
        for req in runnable {
            match groups.iter_mut().find(|(id, _)| *id == req.dataset) {
                Some((_, members)) => members.push(req),
                None => groups.push((req.dataset, vec![req])),
            }
        }

        for (dataset, group) in groups {
            run_group(shared, dataset, group);
        }
    }
}

fn finish_interrupted(shared: &Arc<Shared>, req: &PendingRequest, interrupt: Interrupt) {
    let (code, qe) = match interrupt {
        Interrupt::Cancelled => (ErrorCode::Cancelled, QueryError::Cancelled),
        Interrupt::DeadlineExceeded => (ErrorCode::DeadlineExceeded, QueryError::DeadlineExceeded),
    };
    respond_error(req, code, &qe.to_string());
    {
        let mut stats = shared.stats.lock().unwrap();
        match interrupt {
            Interrupt::Cancelled => stats.sched.cancelled += 1,
            Interrupt::DeadlineExceeded => stats.sched.deadline_exceeded += 1,
        }
        stats.sched.record(req.class, req.enqueued.elapsed());
    }
    release(shared, req);
}

fn respond_error(req: &PendingRequest, code: ErrorCode, msg: &str) {
    let _ = req.reply.send(encode_error(req.req_id, code, msg));
}

/// Encodes a successful result, or reports its encoded size when it
/// exceeds `cap` — sending an over-cap frame anyway would make the
/// client reject the length prefix as a desynced stream and kill the
/// connection, so the caller turns `Err` into a structured error.
fn result_payload(req_id: u64, result: &QueryResult, cap: usize) -> Result<Vec<u8>, usize> {
    let payload = encode_result(req_id, result);
    if payload.len() > cap {
        Err(payload.len())
    } else {
        Ok(payload)
    }
}

fn respond_result(req: &PendingRequest, result: &QueryResult) {
    match result_payload(req.req_id, result, MAX_RESPONSE_FRAME as usize) {
        Ok(payload) => {
            let _ = req.reply.send(payload);
        }
        Err(size) => respond_error(
            req,
            ErrorCode::Internal,
            &format!(
                "result frame of {size} bytes exceeds the {MAX_RESPONSE_FRAME}-byte response cap"
            ),
        ),
    }
}

/// Re-checks a grouped member's token after the shared dispatch.
/// Grouped requests share scans and cannot abort each other mid-wave,
/// so a member whose token tripped (cancel *or* deadline) while the
/// group executed has its otherwise-successful result discarded here,
/// matching the solo path and the pre-dispatch weeding.
fn post_dispatch_outcome(
    result: Result<QueryResult, QueryError>,
    token: &CancelToken,
) -> Result<QueryResult, QueryError> {
    match result {
        Ok(r) => match token.interrupted() {
            None => Ok(r),
            Some(Interrupt::Cancelled) => Err(QueryError::Cancelled),
            Some(Interrupt::DeadlineExceeded) => Err(QueryError::DeadlineExceeded),
        },
        other => other,
    }
}

/// Returns the request's cost to the backpressure pool and drops its
/// live-map entry.
fn release(shared: &Arc<Shared>, req: &PendingRequest) {
    let mut queue = shared.queue.lock().unwrap();
    queue.outstanding_cost = (queue.outstanding_cost - req.cost).max(0.0);
    drop(queue);
    req.live.lock().unwrap().remove(&req.req_id);
}

fn run_group(shared: &Arc<Shared>, dataset: DatasetId, group: Vec<PendingRequest>) {
    let batch: Vec<ScheduledQuery> = group
        .iter()
        .map(|r| ScheduledQuery::with_priority(dataset, r.query.clone(), r.class))
        .collect();
    // A solo request runs under its own token, so a mid-scan CANCEL
    // or disconnect aborts the work itself. Grouped requests share
    // scans and cannot abort each other; their tokens are re-checked
    // after the group completes and stale members' results discarded.
    let solo_token = (group.len() == 1).then(|| group[0].token.clone());
    let dispatched = Instant::now();
    let outcome = shared.scheduler.run_multi(
        &batch,
        &ExecOptions::new()
            .isolated()
            .timed()
            .cancellable_opt(solo_token.as_ref()),
    );

    match outcome {
        Ok(out) => {
            let sstats = out.scheduler.expect("timed run reports scheduler stats");
            let results = out.outcomes;
            {
                let mut stats = shared.stats.lock().unwrap();
                stats.sched.unique_queries += sstats.unique_queries;
                stats.sched.dedup_hits += sstats.dedup_hits;
                stats.sched.cache_hits += sstats.cache_hits;
                stats.sched.scan_passes += sstats.scan_passes;
            }
            for (i, (req, result)) in group.iter().zip(results).enumerate() {
                // Latency the client observed: time queued + the
                // completion time of the wave that resolved it.
                let latency = dispatched.duration_since(req.enqueued) + sstats.latencies[i];
                let outcome = post_dispatch_outcome(result, &req.token);
                let mut stats = shared.stats.lock().unwrap();
                stats.sched.record(req.class, latency);
                match &outcome {
                    Ok(result) => {
                        drop(stats);
                        respond_result(req, result);
                    }
                    Err(qe) => {
                        let code = match qe {
                            QueryError::Cancelled => {
                                stats.sched.cancelled += 1;
                                ErrorCode::Cancelled
                            }
                            QueryError::DeadlineExceeded => {
                                stats.sched.deadline_exceeded += 1;
                                ErrorCode::DeadlineExceeded
                            }
                            QueryError::Panicked(_) => {
                                stats.sched.task_panics += 1;
                                ErrorCode::Panicked
                            }
                        };
                        drop(stats);
                        respond_error(req, code, &qe.to_string());
                    }
                }
                release(shared, req);
            }
        }
        Err(e) => {
            // A whole-group failure (e.g. the dataset failed to
            // parse) fails every member with the same structured
            // error.
            for req in &group {
                let mut stats = shared.stats.lock().unwrap();
                stats.sched.record(req.class, req.enqueued.elapsed());
                drop(stats);
                respond_error(req, ErrorCode::Internal, &format!("{e:?}"));
                release(shared, req);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis::MatchRecord;
    use atgis_geometry::Mbr;

    #[test]
    fn post_dispatch_outcome_discards_stale_grouped_results() {
        let ok = || Ok(QueryResult::Matches(Vec::new()));

        let fresh = CancelToken::new();
        assert!(post_dispatch_outcome(ok(), &fresh).is_ok());

        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(matches!(
            post_dispatch_outcome(ok(), &cancelled),
            Err(QueryError::Cancelled)
        ));

        // A deadline that elapsed while the group executed maps to
        // DeadlineExceeded, exactly like the solo path.
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(matches!(
            post_dispatch_outcome(ok(), &expired),
            Err(QueryError::DeadlineExceeded)
        ));

        // Errors pass through untouched.
        assert!(matches!(
            post_dispatch_outcome(Err(QueryError::Cancelled), &expired),
            Err(QueryError::Cancelled)
        ));
    }

    #[test]
    fn over_cap_results_become_errors_not_oversized_frames() {
        let records = vec![
            MatchRecord {
                id: 1,
                offset: 0,
                len: 10,
                mbr: Mbr::new(0.0, 0.0, 1.0, 1.0),
            };
            4
        ];
        let result = QueryResult::Matches(records);
        let encoded = result_payload(9, &result, usize::MAX).unwrap();
        // One byte under the encoded size must be rejected with the
        // true size, one byte over must pass.
        assert_eq!(
            result_payload(9, &result, encoded.len() - 1),
            Err(encoded.len())
        );
        assert!(result_payload(9, &result, encoded.len()).is_ok());
    }
}
