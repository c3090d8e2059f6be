//! Streaming ingestion: chunk-fed execution over partial datasets.
//!
//! The paper's core property — transducer fragments that start from
//! *any* byte offset and merge associatively later (§3) — makes a
//! stream a buffered scan whose bytes arrive in several regions. A
//! [`ChunkSource`] feeds fixed-size chunks into a [`StreamBuffer`]
//! (append-only, stable addresses), and a `StreamingScan` runs each
//! newly safe region *as the bytes arrive* through the region kernel
//! every buffered scan runs (`engine::RegionScan`), folding the
//! region's fragment into one accumulator. Dispatch is synchronous, so
//! regions fold in order, and live fragment memory stays `O(workers)`
//! (one region's blocks plus the accumulator), never `O(chunks)`.
//!
//! Region safety per split:
//!
//! * **FAT GeoJSON** — blocks may start anywhere (that is the whole
//!   point of full associativity), so every appended byte is
//!   dispatched immediately. Each region runs phase 1 (the blocks'
//!   lexer state maps) on the pool and chains it from the state the
//!   previous region ended in, so every block is parsed once from its
//!   exact state; a feature that runs past the published bytes is
//!   re-parsed by a later merge or at seal. Bytes are held only until
//!   the first feature start is published, which fixes the feature
//!   depth.
//! * **Marker split** (PAT GeoJSON, and WKT always) — blocks must
//!   start at record markers, and a record starting before a marker
//!   ends before the next marker. The scan therefore dispatches only
//!   up to the **last marker seen** and holds the tail until more
//!   bytes (or EOF) arrive — a chunk boundary can fall anywhere,
//!   including inside a marker, a UTF-8 escape or a number, without a
//!   fragment ever reading past the published prefix.
//! * **OSM XML** — relations resolve against a *global* node table,
//!   so the scan only buffers during ingest and at seal runs one
//!   region over the whole document, cut as the buffered scan cuts it.
//!
//! A streaming session answers mid-ingest queries over the queryable
//! prefix, which ends where the last published record starts: the last
//! marker for the marker split; for FAT the last feature start at the
//! feature depth, found lazily when a session asks, so a
//! Feature-shaped object inside `properties` never ends it; nothing
//! for XML until seal.
//!
//! Results are **bit-identical** to buffered execution for every
//! format × split × chunk size: parse fragments merge associatively,
//! match/pair lists are canonically ordered, and numeric aggregates
//! accumulate in [`crate::exact::ExactSum`]s whose correctly-rounded
//! totals are independent of chunking, blocking and thread count.

use crate::batch::{self, IndexCache, Source};
use crate::cancel::CancelToken;
use crate::dataset::{Dataset, StreamBuffer};
use crate::engine::{Engine, RegionScan, Split};
use crate::exec::{self, ExecOptions, RunOutcome};
use crate::pipeline::QueryAggregate;
use crate::stats::{StreamStats, Timings};
use crate::{Error, Result};
use atgis_formats::feature::MetadataFilter;
use atgis_formats::geojson::fat::{self, Entry, Lexed};
use atgis_formats::split::find_marker;
use atgis_formats::{Format, ParseError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default virtual reservation for streams of unknown size (64-bit
/// hosts); untouched pages are never committed, and the ladder backs
/// off on strict-commit hosts.
#[cfg(target_pointer_width = "64")]
const DEFAULT_CAPACITY: usize = 1 << 35; // 32 GiB
#[cfg(not(target_pointer_width = "64"))]
const DEFAULT_CAPACITY: usize = 1 << 28; // 256 MiB
/// Smallest reservation the capacity ladder accepts before giving up.
const MIN_CAPACITY: usize = 1 << 24; // 16 MiB
/// Slack added to exact size hints (a file may grow between `stat`
/// and the final `read`).
const HINT_SLACK: usize = 1 << 16;
/// Target bytes per dispatched scan region (larger regions split so
/// the pool can parallelise inside one chunk).
const DISPATCH_TARGET: usize = 1 << 20;
/// Chunks the pipelined driver reads ahead of the scan.
const READAHEAD_CHUNKS: usize = 4;
/// Transient chunk-read errors (`Interrupted`, `WouldBlock`,
/// `TimedOut`) are retried this many times with doubling backoff
/// before the error surfaces; each retry is tallied into
/// [`StreamStats::retries`].
const MAX_READ_RETRIES: u32 = 4;
/// First-retry backoff; doubles per attempt (100 µs, 200 µs, …).
const RETRY_BACKOFF_BASE: Duration = Duration::from_micros(100);
/// Default chunk length for file/reader sources.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 20;

/// A source of input chunks for streaming ingestion. Implementations
/// exist for files ([`FileChunkSource`]), arbitrary readers
/// ([`ReaderChunkSource`]), in-memory slices ([`SliceChunkSource`])
/// and a bounded in-memory channel fed by another thread
/// ([`chunk_channel`] — the network-style feed).
pub trait ChunkSource: Send {
    /// The next chunk, `None` at end of stream. Empty chunks are
    /// valid (they ingest zero bytes); chunk boundaries may fall
    /// anywhere, including mid-token.
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>>;

    /// Total stream size when known up front (files, slices); sizes
    /// the buffer reservation exactly. Sources of unknown size get
    /// one up-front virtual reservation (`DEFAULT_CAPACITY`, with a
    /// back-off ladder on strict-commit hosts); a stream that
    /// outgrows it errors cleanly mid-ingest rather than silently
    /// relocating published bytes — growable chained buffers are a
    /// known follow-on (the engine retains every byte regardless, so
    /// the practical ceiling is resident memory, not the
    /// reservation).
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Reads one chunk from `reader` without zero-filling scratch memory
/// (the ingest hot path): `take` + `read_to_end` fills a
/// fresh-capacity buffer directly.
fn read_chunk(
    reader: &mut impl std::io::Read,
    chunk_len: usize,
) -> std::io::Result<Option<Vec<u8>>> {
    use std::io::Read as _;
    let mut buf = Vec::with_capacity(chunk_len);
    reader
        .by_ref()
        .take(chunk_len as u64)
        .read_to_end(&mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    Ok(Some(buf))
}

/// Reads a file in fixed-size chunks straight off the file descriptor
/// — the bytes land in the stream buffer and nowhere else, unlike
/// `Dataset::from_file` + re-feeding, which would hold the input
/// twice.
pub struct FileChunkSource {
    file: std::fs::File,
    chunk_len: usize,
    size: usize,
}

impl FileChunkSource {
    /// Opens `path` with the default chunk length.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        FileChunkSource::open_with_chunk_len(path, DEFAULT_CHUNK_LEN)
    }

    /// Opens `path` reading `chunk_len`-byte chunks.
    pub fn open_with_chunk_len(
        path: impl AsRef<std::path::Path>,
        chunk_len: usize,
    ) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let size = file.metadata()?.len() as usize;
        Ok(FileChunkSource {
            file,
            chunk_len: chunk_len.max(1),
            size,
        })
    }
}

impl ChunkSource for FileChunkSource {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        read_chunk(&mut self.file, self.chunk_len)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.size)
    }
}

/// Chunks an arbitrary `Read` (a socket, a decompressor, …). No size
/// hint: the buffer reservation uses the capacity ladder.
pub struct ReaderChunkSource<R> {
    reader: R,
    chunk_len: usize,
}

impl<R: std::io::Read + Send> ReaderChunkSource<R> {
    /// Wraps `reader` with the default chunk length.
    pub fn new(reader: R) -> Self {
        ReaderChunkSource {
            reader,
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }

    /// Wraps `reader` reading `chunk_len`-byte chunks.
    pub fn with_chunk_len(reader: R, chunk_len: usize) -> Self {
        ReaderChunkSource {
            reader,
            chunk_len: chunk_len.max(1),
        }
    }
}

impl<R: std::io::Read + Send> ChunkSource for ReaderChunkSource<R> {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        read_chunk(&mut self.reader, self.chunk_len)
    }
}

/// Chunks an in-memory slice — the differential-testing source, where
/// the chunk length *is* the experiment.
pub struct SliceChunkSource<'a> {
    data: &'a [u8],
    chunk_len: usize,
    pos: usize,
}

impl<'a> SliceChunkSource<'a> {
    /// Streams `data` in `chunk_len`-byte chunks.
    pub fn new(data: &'a [u8], chunk_len: usize) -> Self {
        SliceChunkSource {
            data,
            chunk_len: chunk_len.max(1),
            pos: 0,
        }
    }
}

impl ChunkSource for SliceChunkSource<'_> {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        let end = (self.pos + self.chunk_len).min(self.data.len());
        let chunk = self.data[self.pos..end].to_vec();
        self.pos = end;
        Ok(Some(chunk))
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.data.len())
    }
}

/// The sending half of [`chunk_channel`]: a network-style feed pushes
/// chunks from any thread; dropping it ends the stream.
pub struct ChunkSender(mpsc::SyncSender<Vec<u8>>);

impl ChunkSender {
    /// Sends one chunk, blocking while the channel is at capacity.
    /// Errors when the consuming scan has gone away.
    pub fn send(&self, chunk: Vec<u8>) -> std::io::Result<()> {
        self.0.send(chunk).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "stream consumer dropped")
        })
    }
}

/// The receiving half of [`chunk_channel`].
pub struct ChannelChunkSource(mpsc::Receiver<Vec<u8>>);

impl ChunkSource for ChannelChunkSource {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        // A closed channel is a clean end of stream.
        Ok(self.0.recv().ok())
    }
}

/// A bounded in-memory chunk channel: the producer blocks once
/// `capacity` chunks are in flight, which is the back-pressure a
/// network ingest loop wants.
pub fn chunk_channel(capacity: usize) -> (ChunkSender, ChannelChunkSource) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (ChunkSender(tx), ChannelChunkSource(rx))
}

/// Reserves a stream buffer for a stream of `size_hint` bytes: exact
/// (plus [`HINT_SLACK`]) when the size is known, the generous
/// virtual-reservation ladder otherwise. The single reservation
/// policy for every ingestion path.
pub(crate) fn reserve(size_hint: Option<usize>) -> Result<StreamBuffer> {
    match size_hint {
        Some(n) => StreamBuffer::with_capacity(n.saturating_add(HINT_SLACK)).map_err(Error::Io),
        None => {
            StreamBuffer::with_capacity_ladder(DEFAULT_CAPACITY, MIN_CAPACITY).map_err(Error::Io)
        }
    }
}

/// An incremental scan over a growing stream: append chunks, run the
/// newly-safe regions through the engine's region kernel
/// ([`RegionScan`]), seal into the final aggregate plus the
/// (zero-copy) sealed [`Dataset`].
///
/// Used directly by `QuerySession::ingest_chunk` (synchronous,
/// pool released between calls so prefix queries can interleave) and
/// through [`drive`] by `Engine::run_streaming` (pipelined:
/// a pump thread reads ahead while regions scan and merge).
pub(crate) struct StreamingScan<A: QueryAggregate + 'static> {
    buf: Arc<StreamBuffer>,
    scan: RegionScan<A>,
    /// Bytes already covered by dispatched regions.
    dispatched: usize,
    /// Next byte to inspect in the marker scan.
    marker_scan: usize,
    /// End of the queryable prefix: the start of the last record seen.
    boundary: usize,
    /// FAT: where the search for the next feature start resumes.
    prefix: (usize, Entry),
    /// The first malformed record: ingest goes on buffering, and the
    /// seal fails with it.
    failed: Option<ParseError>,
    pub(crate) stats: StreamStats,
}

impl<A: QueryAggregate + 'static> StreamingScan<A> {
    /// Opens a scan for `format` with `proto` as the aggregate
    /// prototype. The buffer reservation is exact when the stream
    /// size is known (`size_hint`), otherwise a generous virtual
    /// reservation with a back-off ladder.
    pub fn new(
        engine: &Engine,
        format: Format,
        proto: A,
        size_hint: Option<usize>,
    ) -> Result<Self> {
        let buf = reserve(size_hint)?;
        Ok(StreamingScan {
            buf: Arc::new(buf),
            scan: RegionScan::new(engine, format, MetadataFilter::All, proto, 0),
            dispatched: 0,
            marker_scan: 0,
            boundary: 0,
            prefix: (0, Entry::START),
            failed: None,
            stats: StreamStats::default(),
        })
    }

    /// The shared stream buffer (prefix views hang off it).
    pub fn buffer(&self) -> &Arc<StreamBuffer> {
        &self.buf
    }

    /// Bytes ingested so far.
    pub fn ingested_len(&self) -> usize {
        self.buf.len()
    }

    /// The longest prefix that is safe to query mid-ingest: it ends
    /// where the last published record starts, so every record in it
    /// is complete. The marker split tracks that cut as it dispatches;
    /// FAT finds it here, lexing only real feature starts at the
    /// feature depth, so a Feature-shaped object inside `properties`
    /// never ends the prefix. XML streams report 0 until sealed —
    /// relations resolve against a global node table, so no prefix
    /// answer would be sound.
    pub fn queryable_len(&mut self) -> usize {
        match self.scan.split {
            Split::Xml => 0,
            Split::Marker => self.boundary,
            Split::Fat => {
                let len = self.buf.len();
                let input = self.buf.slice_to(len);
                let Some(depth) = self.scan.feature_depth(input, len, false) else {
                    return 0;
                };
                loop {
                    let (at, entry) = self.prefix;
                    match fat::find_sync(input, at, entry, len, Some(depth), false) {
                        Lexed::Sync { at, depth } => {
                            self.boundary = at;
                            let inside = Entry {
                                depth: depth + 1,
                                ..Entry::START
                            };
                            self.prefix = (at + 1, inside);
                        }
                        Lexed::Stopped { at, entry } => {
                            self.prefix = (at, entry);
                            return self.boundary;
                        }
                    }
                }
            }
        }
    }

    /// Appends one chunk without dispatching (the pipelined driver
    /// batches several appends per dispatch).
    pub fn append_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.buf.append(chunk).map_err(Error::Io)?;
        self.stats.chunks += 1;
        self.stats.bytes += chunk.len() as u64;
        Ok(())
    }

    /// Appends one chunk and dispatches the newly-safe regions.
    pub fn ingest(&mut self, engine: &Engine, chunk: &[u8]) -> Result<()> {
        self.append_chunk(chunk)?;
        self.dispatch(engine, false, None)
    }

    /// Advances the marker scan over newly published bytes, updating
    /// the safe boundary: the start of the last record seen. O(total
    /// bytes) across the whole stream.
    fn advance_boundary(&mut self) {
        let marker = self.scan.format.record_marker();
        let len = self.buf.len();
        let input = self.buf.slice_to(len);
        let mut from = self.marker_scan;
        while let Some(at) = find_marker(input, marker.bytes, from) {
            let cut = at + marker.skip;
            if cut > self.boundary && cut <= len {
                self.boundary = cut;
            }
            from = at + 1;
        }
        // A marker may straddle the append point: resume the scan
        // marker-length-minus-one bytes before the end.
        self.marker_scan = len
            .saturating_sub(marker.bytes.len().saturating_sub(1))
            .max(self.marker_scan);
    }

    /// Runs the newly-safe region through the region kernel. The
    /// marker split holds the tail past the last marker seen until
    /// more bytes (or EOF) arrive; FAT takes every published byte once
    /// the first feature start is known; XML waits for EOF. The
    /// `token` (when present) is polled by every pool claimant before
    /// each block, so a cancelled or past-deadline scan stops within
    /// one in-flight block per worker and returns
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`].
    pub fn dispatch(
        &mut self,
        engine: &Engine,
        at_eof: bool,
        token: Option<&CancelToken>,
    ) -> Result<()> {
        if self.failed.is_some() {
            return Ok(());
        }
        let len = self.buf.len();
        let end = match self.scan.split {
            Split::Xml if !at_eof => return Ok(()),
            Split::Marker if !at_eof => {
                let started = Instant::now();
                self.advance_boundary();
                self.scan.timings.split += started.elapsed();
                self.boundary
            }
            _ => len,
        };
        if end <= self.dispatched {
            return Ok(());
        }
        // Cut the region for pool parallelism. XML's one region is the
        // whole document, cut like the buffered scan: on malformed
        // input its collection pass is not split-invariant.
        let region_len = end - self.dispatched;
        let pieces = if self.scan.split == Split::Xml {
            engine.block_count()
        } else {
            region_len
                .div_ceil(DISPATCH_TARGET)
                .max(if region_len >= 4 * 1024 {
                    engine.threads().min(region_len / 1024).max(1)
                } else {
                    1
                })
        };
        let input = self.buf.slice_to(len);
        match self
            .scan
            .region(engine, input, self.dispatched..end, pieces, at_eof, token)
        {
            Ok(true) => self.dispatched = end,
            Ok(false) => {}
            // A malformed record fails the seal, as it fails a buffered
            // scan of the whole stream.
            Err(Error::Parse(e)) => self.failed = Some(e),
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Seals the stream: dispatches the tail, finalises the fold and
    /// returns the aggregate plus the sealed zero-copy dataset,
    /// timings and stream statistics.
    pub fn seal(self, engine: &Engine) -> Result<(A, Dataset, Timings, StreamStats)> {
        self.seal_cancellable(engine, None)
    }

    /// [`StreamingScan::seal`] under an optional [`CancelToken`]: the
    /// tail dispatch observes the token at block granularity.
    pub fn seal_cancellable(
        mut self,
        engine: &Engine,
        token: Option<&CancelToken>,
    ) -> Result<(A, Dataset, Timings, StreamStats)> {
        self.dispatch(engine, true, token)?;
        if let Some(e) = self.failed {
            return Err(Error::Parse(e));
        }
        let len = self.buf.len();
        let dataset = Dataset::from_stream_buffer(self.buf.clone(), len, self.scan.format);
        let stats = StreamStats {
            regions: self.scan.blocks,
            merges: self.scan.merges,
            peak_fragments: self.scan.peak_fragments,
            ..self.stats
        };
        let (agg, timings) = self.scan.finish(dataset.bytes())?;
        Ok((agg, dataset, timings, stats))
    }
}

impl Engine {
    /// The streaming entry point: executes `queries` over a dataset
    /// that **arrives while the queries run** — chunks from `source`
    /// feed one shared scan as they appear, each newly safe region
    /// runs through the region kernel of the buffered scan and folds
    /// into the regions before it, and join-class queries run against
    /// the index sealed at end of stream. OSM XML scans once, at end
    /// of stream. Cancellation and deadline are observed per chunk and
    /// per block; fault isolation and timing come from the
    /// [`ExecOptions`]. One-shot streams never shard
    /// ([`ExecOptions::shards`] is ignored: the byte length needed to
    /// split the input only exists once the scan is over); use
    /// [`crate::QuerySession::run`] after sealing a streaming session
    /// for sharded re-execution. Results are bit-identical to
    /// buffering the whole stream and calling [`Engine::run`] — for
    /// every format, execution mode and chunk size.
    ///
    /// ```
    /// use atgis::{Engine, ExecOptions, Query, SliceChunkSource};
    /// use atgis_formats::Format;
    /// use atgis_geometry::Mbr;
    ///
    /// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(5).generate(80));
    /// let engine = Engine::builder().threads(2).build();
    /// let queries = vec![Query::aggregation(Mbr::new(-10.0, 40.0, 10.0, 60.0))];
    ///
    /// let mut source = SliceChunkSource::new(&bytes, 1024);
    /// let streamed = engine
    ///     .run_streaming(&queries, &mut source, Format::GeoJson, &ExecOptions::new())
    ///     .unwrap()
    ///     .into_single()
    ///     .unwrap();
    ///
    /// let buffered = engine
    ///     .run(&queries, &atgis::Dataset::from_bytes(bytes, Format::GeoJson), &ExecOptions::new())
    ///     .unwrap()
    ///     .into_single()
    ///     .unwrap();
    /// assert_eq!(streamed, buffered);
    /// ```
    pub fn run_streaming(
        &self,
        queries: &[crate::query::Query],
        source: &mut dyn ChunkSource,
        format: Format,
        opts: &ExecOptions,
    ) -> Result<RunOutcome> {
        let token = opts.effective_token();
        let (outcomes, batch_stats, stream_stats) = batch::execute(
            self,
            queries,
            Source::Stream(source, format),
            &IndexCache::new(),
            token.as_ref(),
        )?;
        exec::finish_run(outcomes, Some(batch_stats), None, stream_stats, opts)
    }
}

/// `true` for I/O errors the streaming pump treats as transient and
/// retries with backoff rather than failing the whole stream.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// `source.next_chunk()` with bounded retry-with-backoff for
/// transient errors: up to [`MAX_READ_RETRIES`] attempts, sleeping
/// [`RETRY_BACKOFF_BASE`]·2ⁿ between them, every retry tallied into
/// `retries`. Non-transient errors (and transient ones past the
/// bound) surface unchanged as [`Error::Io`].
///
/// The `token` is polled **before every attempt and between retry
/// sleeps**: a cancelled or past-deadline stream (e.g. a disconnected
/// client) returns [`Error::Cancelled`] / [`Error::DeadlineExceeded`]
/// immediately instead of burning the whole backoff ladder against a
/// flaky source nobody is waiting on.
fn next_chunk_with_retry(
    source: &mut (dyn ChunkSource + '_),
    retries: &AtomicU64,
    token: Option<&CancelToken>,
) -> Result<Option<Vec<u8>>> {
    let mut attempt = 0u32;
    loop {
        if let Some(t) = token {
            t.check()?;
        }
        match source.next_chunk() {
            Err(e) if attempt < MAX_READ_RETRIES && is_transient(&e) => {
                attempt += 1;
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(RETRY_BACKOFF_BASE * (1 << (attempt - 1)));
            }
            other => return other.map_err(Error::Io),
        }
    }
}

/// Drives `scan` from `source` with read-ahead: a pump thread blocks
/// on the source while the calling thread appends and dispatches, so
/// ingest I/O overlaps scanning and merging. Several already-arrived
/// chunks are appended per dispatch to amortise pool submissions.
///
/// Robustness: transient chunk-read errors retry with bounded
/// backoff ([`StreamStats::retries`] counts them), and the `token`
/// is observed once per chunk batch — cancelling mid-stream stops
/// the ingest loop within one chunk and drops the read-ahead
/// channel, which unblocks and retires the pump thread.
pub(crate) fn drive<A: QueryAggregate + 'static>(
    scan: &mut StreamingScan<A>,
    engine: &Engine,
    source: &mut (dyn ChunkSource + '_),
    token: Option<&CancelToken>,
) -> Result<()> {
    let retries = AtomicU64::new(0);
    let result = std::thread::scope(|s| -> Result<()> {
        let (tx, rx) = mpsc::sync_channel::<Result<Vec<u8>>>(READAHEAD_CHUNKS);
        let retry_counter = &retries;
        // The pump observes the same token as the consumer loop, so a
        // cancellation that lands mid-backoff (a disconnected client
        // on a flaky source) stops the retry ladder, not just the
        // dispatch loop.
        let pump_token = token.cloned();
        s.spawn(move || loop {
            match next_chunk_with_retry(source, retry_counter, pump_token.as_ref()) {
                Ok(Some(chunk)) => {
                    if tx.send(Ok(chunk)).is_err() {
                        return; // consumer bailed
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        });
        loop {
            if let Some(t) = token {
                t.check()?;
            }
            let waited = Instant::now();
            let msg = rx.recv();
            scan.stats.ingest_wait += waited.elapsed();
            let Ok(msg) = msg else {
                return Ok(()); // stream complete
            };
            scan.append_chunk(&msg?)?;
            // Batch everything already buffered into this dispatch.
            while let Ok(more) = rx.try_recv() {
                scan.append_chunk(&more?)?;
            }
            scan.dispatch(engine, false, token)?;
        }
    });
    scan.stats.retries += retries.load(Ordering::Relaxed);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ContainmentAgg;
    use crate::query::Query;
    use atgis_geometry::{Mbr, Polygon};

    fn world_agg() -> ContainmentAgg {
        ContainmentAgg::new(Arc::new(Polygon::from_mbr(&Mbr::new(
            -180.0, -90.0, 180.0, 90.0,
        ))))
    }

    fn tiny_geojson() -> Vec<u8> {
        concat!(
            r#"{"type":"FeatureCollection","features":["#,
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.25,50.5]},"id":1,"properties":{"name":"caf\u00e9"}},"#,
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[2.5,51.5]},"id":2,"properties":{}}"#,
            r#"]}"#
        )
        .as_bytes()
        .to_vec()
    }

    #[test]
    fn queryable_prefix_advances_only_at_markers() {
        let engine = Engine::builder().threads(2).build();
        let doc = tiny_geojson();
        let mut scan =
            StreamingScan::new(&engine, Format::GeoJson, world_agg(), Some(doc.len())).unwrap();
        // Feed one byte at a time: the queryable prefix must only ever
        // sit at 0 or at a feature-marker boundary, never mid-feature.
        let marker = Format::GeoJson.record_marker().bytes;
        let mut marker_positions: Vec<usize> = vec![0];
        let mut at = 0usize;
        while let Some(p) = find_marker(&doc, marker, at) {
            marker_positions.push(p);
            at = p + 1;
        }
        for b in doc.iter() {
            scan.ingest(&engine, std::slice::from_ref(b)).unwrap();
            let q = scan.queryable_len();
            assert!(
                marker_positions.contains(&q),
                "queryable prefix {q} is not a marker boundary"
            );
        }
        let (agg, dataset, _, stats) = scan.seal(&engine).unwrap();
        assert_eq!(agg.matches.len(), 2, "both features parsed once");
        assert_eq!(dataset.len(), doc.len());
        assert_eq!(stats.chunks, doc.len() as u64);
    }

    #[test]
    fn chunk_split_inside_utf8_escape_parses_clean() {
        // Split in the middle of the é escape: the held-back tail
        // must keep the feature intact.
        let engine = Engine::builder().build();
        let doc = tiny_geojson();
        let escape_at = doc
            .windows(6)
            .position(|w| w == br"\u00e9")
            .expect("escape present");
        for cut in escape_at..escape_at + 6 {
            let mut scan =
                StreamingScan::new(&engine, Format::GeoJson, world_agg(), Some(doc.len())).unwrap();
            scan.ingest(&engine, &doc[..cut]).unwrap();
            scan.ingest(&engine, &doc[cut..]).unwrap();
            let (agg, ..) = scan.seal(&engine).unwrap();
            assert_eq!(agg.matches.len(), 2, "cut={cut}");
        }
    }

    #[test]
    fn chunk_split_inside_wkt_number_parses_clean() {
        let engine = Engine::builder().build();
        let doc = b"1\tPOINT(1.2345678 50.8765432)\t\n2\tPOINT(2.5 51.5)\t\n".to_vec();
        let digit_at = 10usize; // inside "1.2345678"
        for cut in digit_at..digit_at + 8 {
            let mut scan =
                StreamingScan::new(&engine, Format::Wkt, world_agg(), Some(doc.len())).unwrap();
            scan.ingest(&engine, &doc[..cut]).unwrap();
            scan.ingest(&engine, &doc[cut..]).unwrap();
            let (agg, ..) = scan.seal(&engine).unwrap();
            assert_eq!(agg.matches.len(), 2, "cut={cut}");
        }
    }

    #[test]
    fn empty_final_chunk_at_eof_is_harmless() {
        let engine = Engine::builder().build();
        let doc = b"1\tPOINT(1.5 50.5)\t\n".to_vec();
        let mut scan =
            StreamingScan::new(&engine, Format::Wkt, world_agg(), Some(doc.len())).unwrap();
        scan.ingest(&engine, &doc).unwrap();
        scan.ingest(&engine, b"").unwrap();
        let (agg, dataset, _, stats) = scan.seal(&engine).unwrap();
        assert_eq!(agg.matches.len(), 1);
        assert_eq!(dataset.len(), doc.len());
        assert_eq!(stats.chunks, 2, "the empty chunk still counts");
    }

    /// A source that fails every read with a transient error — the
    /// worst case for the retry ladder — while counting attempts.
    struct AlwaysTransientSource {
        attempts: u64,
    }

    impl ChunkSource for AlwaysTransientSource {
        fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
            self.attempts += 1;
            Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transient",
            ))
        }
    }

    #[test]
    fn retry_ladder_observes_a_pre_cancelled_token() {
        // A disconnected client's cancelled stream must not burn the
        // whole backoff ladder before noticing: with the token already
        // tripped, not a single read attempt (or sleep) happens.
        let mut source = AlwaysTransientSource { attempts: 0 };
        let retries = AtomicU64::new(0);
        let token = CancelToken::new();
        token.cancel();
        let got = next_chunk_with_retry(&mut source, &retries, Some(&token));
        assert!(matches!(got, Err(Error::Cancelled)), "{got:?}");
        assert_eq!(source.attempts, 0, "no read happens after cancellation");
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn retry_ladder_observes_cancellation_between_attempts() {
        // Cancel from another thread while the ladder is mid-backoff:
        // the retry loop must notice between attempts instead of
        // exhausting all retries first.
        let mut source = AlwaysTransientSource { attempts: 0 };
        let retries = AtomicU64::new(0);
        let token = CancelToken::new();
        let canceller = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(50));
            canceller.cancel();
        });
        let got = next_chunk_with_retry(&mut source, &retries, Some(&token));
        handle.join().unwrap();
        assert!(matches!(got, Err(Error::Cancelled)), "{got:?}");
        assert!(
            source.attempts <= MAX_READ_RETRIES as u64,
            "cancellation must stop the ladder, saw {} attempts",
            source.attempts
        );
    }

    #[test]
    fn retry_ladder_observes_an_elapsed_deadline() {
        let mut source = AlwaysTransientSource { attempts: 0 };
        let retries = AtomicU64::new(0);
        let token = CancelToken::with_deadline(Duration::ZERO);
        let got = next_chunk_with_retry(&mut source, &retries, Some(&token));
        assert!(matches!(got, Err(Error::DeadlineExceeded)), "{got:?}");
        assert_eq!(source.attempts, 0);
    }

    #[test]
    fn untokened_retry_ladder_still_exhausts_and_surfaces() {
        // Without a token the pre-fix behavior is preserved: the
        // bounded ladder runs dry and the transient error surfaces.
        let mut source = AlwaysTransientSource { attempts: 0 };
        let retries = AtomicU64::new(0);
        let got = next_chunk_with_retry(&mut source, &retries, None);
        assert!(matches!(got, Err(Error::Io(_))), "{got:?}");
        assert_eq!(source.attempts, (MAX_READ_RETRIES + 1) as u64);
        assert_eq!(retries.load(Ordering::Relaxed), MAX_READ_RETRIES as u64);
    }

    #[test]
    fn chunk_sender_reports_dropped_consumer() {
        let (tx, rx) = chunk_channel(1);
        drop(rx);
        assert!(tx.send(vec![1, 2, 3]).is_err());
    }

    #[test]
    fn file_source_reads_exact_chunks_and_hints_size() {
        let path = std::env::temp_dir().join(format!("atgis_chunk_src_{}.bin", std::process::id()));
        std::fs::write(&path, b"abcdefghij").unwrap();
        let mut src = FileChunkSource::open_with_chunk_len(&path, 4).unwrap();
        assert_eq!(src.size_hint(), Some(10));
        let mut total = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            assert!(c.len() <= 4);
            total.extend(c);
        }
        assert_eq!(total, b"abcdefghij");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_engine_api_smoke() {
        // The one-query convenience API over a reader source.
        let engine = Engine::builder().threads(2).build();
        let doc = tiny_geojson();
        let mut source = ReaderChunkSource::with_chunk_len(&doc[..], 5);
        let r = engine
            .run_streaming(
                &[Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0))],
                &mut source,
                Format::GeoJson,
                &ExecOptions::new(),
            )
            .unwrap()
            .into_single()
            .unwrap();
        assert_eq!(r.matches().len(), 2);
    }
}
