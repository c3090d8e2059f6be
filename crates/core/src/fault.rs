//! Fault injection for robustness testing (the `fault-injection`
//! feature): deterministic, seeded fault sources that drive the
//! engine's failure domains — transient I/O errors through the
//! streaming retry path, task panics through the pool's isolation
//! machinery, slow regions through the cancellation latency bound,
//! and chunk-boundary cancellation through the cooperative token.
//!
//! Everything here is deterministic from a seed (an [`XorShift64`]
//! generator — no external RNG dependency), so a failing run's seed
//! reproduces it exactly. The harness has two halves:
//!
//! * [`FaultyChunkSource`] wraps any [`ChunkSource`] and injects
//!   transient I/O errors and slow chunks at configurable rates.
//!   Consecutive injected errors are capped **below** the streaming
//!   driver's retry bound, so an un-cancelled query over a faulty
//!   source always completes — bit-identically to the clean run —
//!   while the injected faults show up in
//!   [`crate::StreamStats::retries`].
//! * A process-wide **failpoint registry**: named hooks compiled into
//!   hot paths (e.g. the executor's per-block task) that do nothing
//!   until a test arms them with a [`FaultAction`] — panic every
//!   time, panic with a seeded probability, or sleep. The disarmed
//!   fast path is a single relaxed atomic load.
//!
//! Nothing in this module exists unless the crate is built with
//! `--features fault-injection`; production builds compile the hooks
//! out entirely.

use crate::cancel::CancelToken;
use crate::pool::recover;
use crate::stream::ChunkSource;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A tiny deterministic PRNG (xorshift64*): good enough mixing for
/// fault scheduling, zero dependencies, identical sequences on every
/// platform.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (a zero seed is remapped — xorshift has a
    /// zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// `true` with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u16) -> bool {
        (self.next_u64() % 1000) < per_mille as u64
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

// ---------------------------------------------------------------------
// Failpoint registry
// ---------------------------------------------------------------------

/// What an armed failpoint does when its hook fires.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with this message on every hit — drives the pool's
    /// panic-isolation path deterministically.
    Panic(String),
    /// Panic with probability `per_mille`/1000 per hit, from a seeded
    /// per-failpoint RNG — randomized parse-task panics.
    PanicWithChance {
        /// Probability per hit, in 1/1000ths.
        per_mille: u16,
        /// RNG seed; the hit sequence is deterministic given it.
        seed: u64,
        /// Panic payload when the roll hits.
        message: String,
    },
    /// Sleep this long on every hit — slow regions, for cancellation
    /// latency tests.
    Sleep(Duration),
}

struct ArmedPoint {
    action: FaultAction,
    rng: XorShift64,
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, ArmedPoint>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, ArmedPoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Armed-failpoint count: the disarmed fast path of [`fire`] is this
/// single relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Arms failpoint `name` with `action` (replacing any previous
/// arming).
pub fn arm(name: &str, action: FaultAction) {
    let seed = match &action {
        FaultAction::PanicWithChance { seed, .. } => *seed,
        _ => 1,
    };
    let mut reg = recover(registry().lock());
    if reg
        .insert(
            name.to_string(),
            ArmedPoint {
                action,
                rng: XorShift64::new(seed),
                hits: 0,
            },
        )
        .is_none()
    {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarms failpoint `name`; returns how many times it fired while
/// armed (attempted hits, including probabilistic misses).
pub fn disarm(name: &str) -> u64 {
    let mut reg = recover(registry().lock());
    match reg.remove(name) {
        Some(p) => {
            ARMED.fetch_sub(1, Ordering::Relaxed);
            p.hits
        }
        None => 0,
    }
}

/// Disarms every failpoint (test teardown).
pub fn disarm_all() {
    let mut reg = recover(registry().lock());
    let n = reg.len();
    reg.clear();
    ARMED.fetch_sub(n, Ordering::Relaxed);
}

/// The hook compiled into instrumented hot paths (via the
/// `fault_point!` macro): a no-op unless `name` is armed. Panics
/// raised here unwind into the surrounding task body, exactly like a
/// real bug in the task would.
pub fn fire(name: &str) {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    enum Fire {
        Panic(String),
        Sleep(Duration),
    }
    let decision = {
        let mut reg = recover(registry().lock());
        let Some(point) = reg.get_mut(name) else {
            return;
        };
        point.hits += 1;
        match &point.action {
            FaultAction::Panic(m) => Some(Fire::Panic(m.clone())),
            FaultAction::PanicWithChance {
                per_mille, message, ..
            } => {
                let p = *per_mille;
                let m = message.clone();
                if point.rng.chance(p) {
                    Some(Fire::Panic(m))
                } else {
                    None
                }
            }
            FaultAction::Sleep(d) => Some(Fire::Sleep(*d)),
        }
        // The registry lock drops here, before any panic: a firing
        // failpoint must not poison the registry other tests share.
    };
    match decision {
        Some(Fire::Panic(m)) => panic!("{m}"),
        Some(Fire::Sleep(d)) => std::thread::sleep(d),
        None => {}
    }
}

// ---------------------------------------------------------------------
// Chunk-source wrappers
// ---------------------------------------------------------------------

/// Upper bound on consecutive injected transient errors — strictly
/// below the streaming driver's retry bound, so injection alone can
/// never fail an un-cancelled stream.
const MAX_CONSECUTIVE_INJECTED: u32 = 2;

/// A [`ChunkSource`] wrapper that injects deterministic, seeded
/// transient I/O errors and slow chunks. The payload bytes are never
/// altered — an un-cancelled query over a faulty source completes
/// bit-identically to the clean run, with the injected faults visible
/// in [`crate::StreamStats::retries`].
pub struct FaultyChunkSource<S> {
    inner: S,
    rng: XorShift64,
    transient_per_mille: u16,
    slow_per_mille: u16,
    slow: Duration,
    consecutive_errors: u32,
    injected_errors: u64,
    injected_slow: u64,
}

impl<S: ChunkSource> FaultyChunkSource<S> {
    /// Wraps `inner` with the default fault rates: 20% transient
    /// errors, 5% slow chunks of 1 ms.
    pub fn new(inner: S, seed: u64) -> Self {
        FaultyChunkSource {
            inner,
            rng: XorShift64::new(seed),
            transient_per_mille: 200,
            slow_per_mille: 50,
            slow: Duration::from_millis(1),
            consecutive_errors: 0,
            injected_errors: 0,
            injected_slow: 0,
        }
    }

    /// Sets the transient-error injection rate (per 1000 reads).
    pub fn with_transient_errors(mut self, per_mille: u16) -> Self {
        self.transient_per_mille = per_mille;
        self
    }

    /// Sets the slow-chunk injection rate and stall duration.
    pub fn with_slow_chunks(mut self, per_mille: u16, stall: Duration) -> Self {
        self.slow_per_mille = per_mille;
        self.slow = stall;
        self
    }

    /// Transient errors injected so far (each one forced a retry).
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors
    }

    /// Slow chunks injected so far.
    pub fn injected_slow_chunks(&self) -> u64 {
        self.injected_slow
    }
}

impl<S: ChunkSource> ChunkSource for FaultyChunkSource<S> {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        if self.consecutive_errors < MAX_CONSECUTIVE_INJECTED
            && self.rng.chance(self.transient_per_mille)
        {
            self.consecutive_errors += 1;
            self.injected_errors += 1;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient fault",
            ));
        }
        self.consecutive_errors = 0;
        if self.rng.chance(self.slow_per_mille) {
            self.injected_slow += 1;
            std::thread::sleep(self.slow);
        }
        self.inner.next_chunk()
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// A [`ChunkSource`] wrapper that cancels a [`CancelToken`] at an
/// exact chunk boundary — the deterministic driver for
/// "cancellation at every chunk boundary never deadlocks or leaks"
/// sweeps.
pub struct CancelAfterChunks<S> {
    inner: S,
    token: CancelToken,
    after: u64,
    seen: u64,
}

impl<S: ChunkSource> CancelAfterChunks<S> {
    /// Cancels `token` immediately before reading chunk `after`
    /// (0-based): `after == 0` cancels before any byte arrives.
    pub fn new(inner: S, token: CancelToken, after: u64) -> Self {
        CancelAfterChunks {
            inner,
            token,
            after,
            seen: 0,
        }
    }
}

impl<S: ChunkSource> ChunkSource for CancelAfterChunks<S> {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        if self.seen == self.after {
            self.token.cancel();
        }
        self.seen += 1;
        self.inner.next_chunk()
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// The top-level harness: one seed, reproducible faults. Prints
/// nothing itself — tests print the seed so a CI failure names its
/// reproduction.
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// A harness deriving every fault schedule from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// The harness seed (print it in tests for reproduction).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Wraps `source` in a [`FaultyChunkSource`] seeded from the
    /// harness.
    pub fn faulty_source<S: ChunkSource>(&self, source: S) -> FaultyChunkSource<S> {
        FaultyChunkSource::new(source, self.seed ^ 0xA5A5_A5A5_A5A5_A5A5)
    }

    /// Arms `name` to panic with probability `per_mille`/1000 per
    /// hit, seeded from the harness.
    pub fn arm_random_panic(&self, name: &str, per_mille: u16) {
        arm(
            name,
            FaultAction::PanicWithChance {
                per_mille,
                seed: self.seed ^ 0x5A5A_5A5A_5A5A_5A5A,
                message: format!("injected panic at {name}"),
            },
        );
    }

    /// A seeded RNG derived from the harness, for test-local
    /// randomization (chunk sizes, cancellation points).
    pub fn rng(&self) -> XorShift64 {
        XorShift64::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SliceChunkSource;
    use crate::testutil::serialised;

    #[test]
    fn xorshift_is_deterministic_and_nonzero_safe() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed must be remapped");
        let mut c = XorShift64::new(7);
        assert!((0..100).all(|_| c.below(10) < 10));
    }

    #[test]
    fn faulty_source_preserves_payload_and_counts_injections() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut src = FaultyChunkSource::new(SliceChunkSource::new(&data, 64), 1234)
            .with_transient_errors(300)
            .with_slow_chunks(0, Duration::ZERO);
        assert_eq!(src.size_hint(), Some(data.len()));
        let mut out = Vec::new();
        let mut consecutive = 0u32;
        loop {
            match src.next_chunk() {
                Ok(Some(c)) => {
                    consecutive = 0;
                    out.extend(c);
                }
                Ok(None) => break,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
                    consecutive += 1;
                    assert!(
                        consecutive <= MAX_CONSECUTIVE_INJECTED,
                        "injection must stay below the retry bound"
                    );
                }
            }
        }
        assert_eq!(out, data, "payload bytes are never altered");
        assert!(src.injected_errors() > 0, "rate 300‰ over 64+ reads");
    }

    #[test]
    fn failpoints_fire_only_while_armed() {
        let _gate = serialised();
        // Unarmed: a no-op.
        fire("fault.test.unarmed");
        arm("fault.test.sleepy", FaultAction::Sleep(Duration::ZERO));
        fire("fault.test.sleepy");
        fire("fault.test.sleepy");
        assert_eq!(disarm("fault.test.sleepy"), 2);
        assert_eq!(disarm("fault.test.sleepy"), 0, "already disarmed");

        arm(
            "fault.test.bomb",
            FaultAction::Panic("fault.test.bomb fired".into()),
        );
        let p = std::panic::catch_unwind(|| fire("fault.test.bomb"));
        assert!(p.is_err(), "armed panic failpoint must panic");
        // The registry survives the panic (no poisoned lock).
        assert_eq!(disarm("fault.test.bomb"), 1);
    }

    #[test]
    fn probabilistic_failpoints_are_seeded() {
        let _gate = serialised();
        let count_hits = |seed: u64| {
            arm(
                "fault.test.random",
                FaultAction::PanicWithChance {
                    per_mille: 500,
                    seed,
                    message: "boom".into(),
                },
            );
            let mut panics = 0;
            for _ in 0..64 {
                if std::panic::catch_unwind(|| fire("fault.test.random")).is_err() {
                    panics += 1;
                }
            }
            disarm("fault.test.random");
            panics
        };
        let a = count_hits(99);
        let b = count_hits(99);
        assert_eq!(a, b, "same seed, same panic schedule");
        assert!(a > 0 && a < 64, "500‰ should hit sometimes, not always");
    }

    #[test]
    fn cancel_after_chunks_trips_at_the_exact_boundary() {
        let data = vec![7u8; 1000];
        let token = CancelToken::new();
        let mut src = CancelAfterChunks::new(SliceChunkSource::new(&data, 100), token.clone(), 3);
        for i in 0..3 {
            assert!(src.next_chunk().unwrap().is_some());
            assert!(token.interrupted().is_none(), "not yet at boundary {i}");
        }
        let _ = src.next_chunk();
        assert!(
            token.interrupted().is_some(),
            "cancelled exactly at chunk 3"
        );
    }
}
