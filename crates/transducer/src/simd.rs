//! Runtime-dispatched explicit SIMD kernels behind the scanning
//! primitives of [`crate::scan`] and the [`crate::dfa`] lane loop.
//!
//! The paper's premise is that in-situ query speed is bounded by how
//! fast the structural scanner moves over raw bytes. This module owns
//! the `core::arch` implementations of the hot inner loops:
//!
//! * **SSE2** (16-byte lanes) — guaranteed by the x86_64 baseline, so
//!   the functions are safe and always callable on that architecture;
//! * **AVX2** (32-byte lanes) — selected at runtime via
//!   `is_x86_feature_detected!`, reached only through `unsafe`
//!   wrappers marked `#[target_feature(enable = "avx2")]`;
//! * **SWAR** (8-byte lanes, plain `u64`) — the portable fallback,
//!   kept verbatim in [`crate::scan`]; every SIMD kernel is
//!   bit-identical to it by the differential tests below.
//!
//! Detection happens **once per process** ([`kernel`] caches the probe
//! in an atomic) and honours the `ATGIS_NO_SIMD` environment knob,
//! which forces the SWAR fallback for differential testing and for
//! ruling SIMD in/out when debugging. Everything above this module —
//! `scan`, `dfa`, the format parsers, stream region cutting — is
//! dispatch-agnostic: callers invoke [`crate::scan::memchr`] &c. and
//! get whatever kernel the probe selected.
//!
//! The **fallback contract**: every kernel family (`memchr`,
//! `memchr2`, [`HitMasker`], [`SpanClass`] spans) returns
//! results byte-for-byte identical to the SWAR implementation, which
//! is itself bit-identical to the scalar loop, at every alignment,
//! offset and length. Tails shorter than a lane fall back to the
//! scalar path; loads are always unaligned and never read past the
//! slice.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which scanning kernel the one-time probe selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// 32-byte `core::arch::x86_64` AVX2 lanes (runtime-detected).
    Avx2,
    /// 16-byte SSE2 lanes (baseline on x86_64).
    Sse2,
    /// Portable 8-byte SIMD-within-a-register fallback.
    Swar,
}

impl Kernel {
    /// Stable lowercase name (used by benches and the dispatcher
    /// test).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2",
            Kernel::Sse2 => "sse2",
            Kernel::Swar => "swar",
        }
    }
}

/// The selected kernel, probed once per process and cached.
///
/// `ATGIS_NO_SIMD` (set to anything but `0` or the empty string)
/// forces [`Kernel::Swar`]; otherwise x86_64 gets AVX2 when the CPU
/// reports it and SSE2 (the architectural baseline) when not. Every
/// other architecture scans with the portable SWAR kernels.
#[inline]
pub fn kernel() -> Kernel {
    static CACHE: AtomicU8 = AtomicU8::new(0);
    match CACHE.load(Ordering::Relaxed) {
        1 => Kernel::Avx2,
        2 => Kernel::Sse2,
        3 => Kernel::Swar,
        _ => {
            let k = probe();
            CACHE.store(
                match k {
                    Kernel::Avx2 => 1,
                    Kernel::Sse2 => 2,
                    Kernel::Swar => 3,
                },
                Ordering::Relaxed,
            );
            k
        }
    }
}

/// The uncached CPU/environment probe behind [`kernel`].
fn probe() -> Kernel {
    if no_simd_requested() {
        return Kernel::Swar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Sse2
    }
    #[cfg(not(target_arch = "x86_64"))]
    Kernel::Swar
}

/// True when the `ATGIS_NO_SIMD` knob asks for the SWAR fallback.
pub fn no_simd_requested() -> bool {
    std::env::var_os("ATGIS_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

/// A multi-needle hit-mask scanner over fixed-width lanes: `mask`
/// reports which of the `WIDTH` bytes at a pointer match any needle,
/// and the caller consumes hits via `index_of` + clear-lowest-bit.
/// This is the abstraction [`crate::dfa`] runs its lane loop
/// through: the generic scan loop is written once and monomorphised
/// per kernel (the AVX2 instantiation lives inside a
/// `#[target_feature]` wrapper so the whole loop body gets AVX2
/// codegen).
pub trait HitMasker: Copy {
    /// Lane width in bytes (8 / 16 / 32).
    const WIDTH: usize;

    /// Hit mask of the `WIDTH` bytes at `ptr`; zero means no needle
    /// occurs. Bits are consumed with `m & (m - 1)` and located with
    /// [`Self::index_of`].
    ///
    /// # Safety
    /// `ptr` must be valid for `WIDTH` readable bytes, and for the
    /// AVX2 masker the CPU must support AVX2.
    unsafe fn mask(&self, ptr: *const u8) -> u64;

    /// Byte offset (within the lane) of the lowest set hit in `m`.
    fn index_of(m: u64) -> usize;
}

/// Portable SWAR masker: one broadcast word per needle, hits reported
/// as `0x80`-per-lane bits.
#[derive(Clone, Copy)]
pub struct SwarMasker<const N: usize> {
    bc: [u64; N],
}

impl<const N: usize> SwarMasker<N> {
    /// Broadcasts the needle bytes (padding entries may repeat).
    #[inline(always)]
    pub fn new(needles: &[u8; N]) -> Self {
        let mut bc = [0u64; N];
        for (slot, &n) in bc.iter_mut().zip(needles) {
            *slot = crate::scan::SWAR_LO.wrapping_mul(n as u64);
        }
        SwarMasker { bc }
    }
}

impl<const N: usize> HitMasker for SwarMasker<N> {
    const WIDTH: usize = 8;

    /// # Safety
    /// `ptr` must be valid for 8 readable bytes.
    #[inline(always)]
    unsafe fn mask(&self, ptr: *const u8) -> u64 {
        // SAFETY: caller guarantees 8 readable bytes.
        let w = u64::from_le(unsafe { ptr.cast::<u64>().read_unaligned() });
        let mut m = 0u64;
        for &bc in &self.bc {
            m |= crate::scan::eq_mask(w, bc);
        }
        m
    }

    #[inline(always)]
    fn index_of(m: u64) -> usize {
        (m.trailing_zeros() >> 3) as usize
    }
}

/// A byte class for span scanning: up to two inclusive ranges plus a
/// small extra-needle set. Covers the format lexeme shapes (WKT/JSON
/// number runs, bare JSON scalars) with one vector comparison per
/// range/extra per lane.
#[derive(Debug, Clone, Copy)]
pub struct SpanClass {
    /// Inclusive byte ranges; a slot with `lo > hi` is unused.
    pub ranges: [(u8, u8); 2],
    /// Extra single-byte members (`extras[..n_extras]`).
    pub extras: [u8; 6],
    /// Number of live entries in `extras`.
    pub n_extras: u8,
}

impl SpanClass {
    /// Scalar membership test — the reference the SIMD span kernels
    /// are pinned against.
    #[inline(always)]
    pub fn contains(&self, b: u8) -> bool {
        for &(lo, hi) in &self.ranges {
            if lo <= b && b <= hi {
                return true;
            }
        }
        self.extras[..self.n_extras as usize].contains(&b)
    }

    /// Length of the prefix of `hay[from..]` whose bytes are all class
    /// members, using the probed kernel.
    ///
    /// Typical spans (a WKT/JSON number, a format keyword) end within
    /// one lane, where the vector kernels lose: they re-broadcast the
    /// class constants on every call and the run is over before that
    /// setup amortises. The first lane is therefore scanned scalar,
    /// and the vector kernels take over only when the run is still
    /// going — long coordinate lists and text runs keep the SIMD win.
    #[inline]
    pub fn span(&self, hay: &[u8], from: usize) -> usize {
        let len = hay.len();
        let start = from.min(len);
        let short_end = (start + 16).min(len);
        let mut i = start;
        while i < short_end {
            if !self.contains(hay[i]) {
                return i - start;
            }
            i += 1;
        }
        if i == len {
            return i - start;
        }
        i - start
            + match kernel() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: dispatch guarantees AVX2 was detected.
                Kernel::Avx2 => unsafe { x86::span_avx2(self, hay, i) },
                #[cfg(target_arch = "x86_64")]
                Kernel::Sse2 => x86::span_sse2(self, hay, i),
                _ => self.span_scalar(hay, i),
            }
    }

    /// The scalar span loop (SWAR fallback — a 64-bit class test does
    /// not pay for ranges, so the fallback is the plain byte loop the
    /// format parsers used before this module existed).
    #[inline]
    pub fn span_scalar(&self, hay: &[u8], from: usize) -> usize {
        hay[from.min(hay.len())..]
            .iter()
            .take_while(|&&b| self.contains(b))
            .count()
    }
}

/// The x86_64 kernels. SSE2 functions are safe (baseline feature);
/// AVX2 functions are `unsafe fn` + `#[target_feature]` and must only
/// be called after runtime detection — [`kernel`] is the only
/// sanctioned gate.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use super::{HitMasker, SpanClass};
    use core::arch::x86_64::*;

    /// SSE2 `memchr`: 16 bytes per iteration, scalar tail.
    ///
    /// All `unsafe` blocks in the SSE2 kernels cover either bounded
    /// unaligned loads or SSE2 intrinsics, which are part of the
    /// x86_64 architectural baseline this module is gated on.
    #[inline]
    pub fn memchr_sse2(needle: u8, hay: &[u8], from: usize) -> Option<usize> {
        let len = hay.len();
        // SAFETY: SSE2 is baseline on x86_64.
        let nv = unsafe { _mm_set1_epi8(needle as i8) };
        let mut i = from;
        while i + 16 <= len {
            // SAFETY: loop condition guarantees 16 readable bytes.
            let m = unsafe {
                let v = _mm_loadu_si128(hay.as_ptr().add(i).cast());
                _mm_movemask_epi8(_mm_cmpeq_epi8(v, nv)) as u32
            };
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        hay[i.min(len)..]
            .iter()
            .position(|&b| b == needle)
            .map(|p| i + p)
    }

    /// SSE2 `memchr2`.
    #[inline]
    pub fn memchr2_sse2(a: u8, b: u8, hay: &[u8], from: usize) -> Option<usize> {
        let len = hay.len();
        // SAFETY: SSE2 is baseline on x86_64.
        let (av, bv) = unsafe { (_mm_set1_epi8(a as i8), _mm_set1_epi8(b as i8)) };
        let mut i = from;
        while i + 16 <= len {
            // SAFETY: loop condition guarantees 16 readable bytes.
            let m = unsafe {
                let v = _mm_loadu_si128(hay.as_ptr().add(i).cast());
                let hits = _mm_or_si128(_mm_cmpeq_epi8(v, av), _mm_cmpeq_epi8(v, bv));
                _mm_movemask_epi8(hits) as u32
            };
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        hay[i.min(len)..]
            .iter()
            .position(|&x| x == a || x == b)
            .map(|p| i + p)
    }

    /// AVX2 `memchr`: 32 bytes per iteration, SSE2 step + scalar tail.
    ///
    /// # Safety
    /// The CPU must support AVX2 (checked by [`super::kernel`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn memchr_avx2(needle: u8, hay: &[u8], from: usize) -> Option<usize> {
        let len = hay.len();
        let nv = _mm256_set1_epi8(needle as i8);
        let mut i = from;
        while i + 32 <= len {
            // SAFETY: loop condition guarantees 32 readable bytes.
            let v = unsafe { _mm256_loadu_si256(hay.as_ptr().add(i).cast()) };
            let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, nv)) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        memchr_sse2(needle, hay, i)
    }

    /// AVX2 `memchr2`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn memchr2_avx2(a: u8, b: u8, hay: &[u8], from: usize) -> Option<usize> {
        let len = hay.len();
        let av = _mm256_set1_epi8(a as i8);
        let bv = _mm256_set1_epi8(b as i8);
        let mut i = from;
        while i + 32 <= len {
            // SAFETY: loop condition guarantees 32 readable bytes.
            let v = unsafe { _mm256_loadu_si256(hay.as_ptr().add(i).cast()) };
            let hits = _mm256_or_si256(_mm256_cmpeq_epi8(v, av), _mm256_cmpeq_epi8(v, bv));
            let m = _mm256_movemask_epi8(hits) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        memchr2_sse2(a, b, hay, i)
    }

    /// SSE2 masker for the DFA lane loop: one broadcast vector per
    /// needle, byte-granular movemask hits.
    #[derive(Clone, Copy)]
    pub struct Sse2Masker<const N: usize> {
        v: [__m128i; N],
    }

    impl<const N: usize> Sse2Masker<N> {
        /// Broadcasts the needle bytes (padding entries may repeat).
        #[inline(always)]
        pub fn new(needles: &[u8; N]) -> Self {
            // SAFETY: SSE2 is baseline on x86_64.
            let mut v = [unsafe { _mm_setzero_si128() }; N];
            for (slot, &b) in v.iter_mut().zip(needles) {
                // SAFETY: SSE2 is baseline on x86_64.
                *slot = unsafe { _mm_set1_epi8(b as i8) };
            }
            Sse2Masker { v }
        }
    }

    impl<const N: usize> HitMasker for Sse2Masker<N> {
        const WIDTH: usize = 16;

        /// # Safety
        /// `ptr` must be valid for 16 readable bytes.
        #[inline(always)]
        unsafe fn mask(&self, ptr: *const u8) -> u64 {
            // SAFETY: caller guarantees 16 readable bytes.
            let x = unsafe { _mm_loadu_si128(ptr.cast()) };
            let mut m = 0u32;
            for nv in &self.v {
                m |= _mm_movemask_epi8(_mm_cmpeq_epi8(x, *nv)) as u32;
            }
            m as u64
        }

        #[inline(always)]
        fn index_of(m: u64) -> usize {
            m.trailing_zeros() as usize
        }
    }

    /// AVX2 masker. Constructed and consumed only inside
    /// `#[target_feature(enable = "avx2")]` contexts (the dfa wrapper),
    /// where the `#[inline(always)]` bodies inline and pick up AVX2
    /// codegen.
    #[derive(Clone, Copy)]
    pub struct Avx2Masker<const N: usize> {
        v: [__m256i; N],
    }

    impl<const N: usize> Avx2Masker<N> {
        /// Broadcasts the needle bytes.
        ///
        /// # Safety
        /// The CPU must support AVX2.
        #[inline(always)]
        pub unsafe fn new(needles: &[u8; N]) -> Self {
            // SAFETY: caller guarantees AVX2.
            let mut v = [unsafe { _mm256_setzero_si256() }; N];
            for (slot, &b) in v.iter_mut().zip(needles) {
                // SAFETY: caller guarantees AVX2.
                *slot = unsafe { _mm256_set1_epi8(b as i8) };
            }
            Avx2Masker { v }
        }
    }

    impl<const N: usize> HitMasker for Avx2Masker<N> {
        const WIDTH: usize = 32;

        /// # Safety
        /// `ptr` must be valid for 32 readable bytes, and the CPU must
        /// support AVX2.
        #[inline(always)]
        unsafe fn mask(&self, ptr: *const u8) -> u64 {
            // SAFETY: caller guarantees 32 readable bytes and AVX2.
            unsafe {
                let x = _mm256_loadu_si256(ptr.cast());
                let mut m = 0u32;
                for nv in &self.v {
                    m |= _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, *nv)) as u32;
                }
                m as u64
            }
        }

        #[inline(always)]
        fn index_of(m: u64) -> usize {
            m.trailing_zeros() as usize
        }
    }

    /// 16-byte membership mask for a [`SpanClass`]: signed range
    /// compares are exact for ASCII classes because every class byte
    /// is `< 0x80`, so bytes `>= 0x80` (negative as `i8`) fail the
    /// lower-bound compare.
    #[inline(always)]
    fn class_mask_sse2(c: &SpanClass, v: __m128i) -> u32 {
        // SAFETY: SSE2 is baseline on x86_64; no memory access.
        unsafe {
            let mut m = _mm_setzero_si128();
            for &(lo, hi) in &c.ranges {
                if lo > hi {
                    continue;
                }
                let ge = _mm_cmpgt_epi8(v, _mm_set1_epi8(lo as i8 - 1));
                let le = _mm_cmpgt_epi8(_mm_set1_epi8(hi as i8 + 1), v);
                m = _mm_or_si128(m, _mm_and_si128(ge, le));
            }
            for &e in &c.extras[..c.n_extras as usize] {
                m = _mm_or_si128(m, _mm_cmpeq_epi8(v, _mm_set1_epi8(e as i8)));
            }
            _mm_movemask_epi8(m) as u32
        }
    }

    /// SSE2 span: length of the all-members prefix of `hay[from..]`.
    #[inline]
    pub fn span_sse2(c: &SpanClass, hay: &[u8], from: usize) -> usize {
        let len = hay.len();
        let mut i = from;
        while i + 16 <= len {
            // SAFETY: loop condition guarantees 16 readable bytes.
            let v = unsafe { _mm_loadu_si128(hay.as_ptr().add(i).cast()) };
            let m = class_mask_sse2(c, v);
            if m != 0xFFFF {
                return i - from + (!m).trailing_zeros() as usize;
            }
            i += 16;
        }
        i - from + c.span_scalar(hay, i)
    }

    /// AVX2 span.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn span_avx2(c: &SpanClass, hay: &[u8], from: usize) -> usize {
        let len = hay.len();
        let mut i = from;
        while i + 32 <= len {
            // SAFETY: loop condition guarantees 32 readable bytes.
            let v = unsafe { _mm256_loadu_si256(hay.as_ptr().add(i).cast()) };
            let mut m = _mm256_setzero_si256();
            for &(lo, hi) in &c.ranges {
                if lo > hi {
                    continue;
                }
                let ge = _mm256_cmpgt_epi8(v, _mm256_set1_epi8(lo as i8 - 1));
                let le = _mm256_cmpgt_epi8(_mm256_set1_epi8(hi as i8 + 1), v);
                m = _mm256_or_si256(m, _mm256_and_si256(ge, le));
            }
            for &e in &c.extras[..c.n_extras as usize] {
                m = _mm256_or_si256(m, _mm256_cmpeq_epi8(v, _mm256_set1_epi8(e as i8)));
            }
            let bits = _mm256_movemask_epi8(m) as u32;
            if bits != u32::MAX {
                return i - from + (!bits).trailing_zeros() as usize;
            }
            i += 32;
        }
        i - from + span_sse2(c, hay, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatcher_picks_expected_kernel_for_this_cpu() {
        let k = kernel();
        if no_simd_requested() {
            assert_eq!(
                k,
                Kernel::Swar,
                "ATGIS_NO_SIMD must force the SWAR fallback"
            );
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let want = if std::arch::is_x86_feature_detected!("avx2") {
                Kernel::Avx2
            } else {
                Kernel::Sse2
            };
            assert_eq!(k, want, "x86_64 must pick the widest detected lane");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(k, Kernel::Swar);
    }

    #[test]
    fn kernel_probe_is_cached_and_stable() {
        assert_eq!(kernel(), kernel());
        assert!(!kernel().name().is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    mod x86_differential {
        use super::super::x86::*;
        use super::super::{HitMasker, SpanClass, SwarMasker};

        /// Exhaustive-ish alignment harness: a page-backed buffer is
        /// sliced at every offset 0..33 and every length 0..97, so
        /// needles land on lane boundaries, straddle the 16/32-byte
        /// edges, and fall in sub-lane tails.
        fn alignments(f: impl Fn(&[u8])) {
            let mut buf = vec![0u8; 256];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = b"ab#@\\\"0123, xyz\x00\xff"[i % 17];
            }
            for off in 0..33 {
                for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 96] {
                    f(&buf[off..off + len]);
                }
            }
        }

        #[test]
        fn memchr_kernels_agree_with_scalar_at_every_alignment() {
            alignments(|hay| {
                for from in [0, 1, hay.len() / 2, hay.len()] {
                    for needle in [b'#', b'a', b'\x00', b'\xff', b'Q'] {
                        let want = hay[from.min(hay.len())..]
                            .iter()
                            .position(|&b| b == needle)
                            .map(|p| p + from);
                        assert_eq!(memchr_sse2(needle, hay, from), want);
                        if std::arch::is_x86_feature_detected!("avx2") {
                            // SAFETY: feature checked above.
                            assert_eq!(unsafe { memchr_avx2(needle, hay, from) }, want);
                        }
                    }
                }
            });
        }

        #[test]
        fn memchr2_kernels_agree_with_scalar_at_every_alignment() {
            alignments(|hay| {
                for from in [0, 1, hay.len() / 2] {
                    let want = hay[from.min(hay.len())..]
                        .iter()
                        .position(|&b| b == b'#' || b == b'@')
                        .map(|p| p + from);
                    assert_eq!(memchr2_sse2(b'#', b'@', hay, from), want);
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: feature checked above.
                        assert_eq!(unsafe { memchr2_avx2(b'#', b'@', hay, from) }, want);
                    }
                }
            });
        }

        #[test]
        fn hit_maskers_agree_across_kernels() {
            let needles8 = *b"\"\\{}[],:";
            let needles2 = *b"\"\\";
            let mut buf = [0u8; 128];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = b"a\"b\\c{}[],:x \x80\xff"[i % 15];
            }
            let swar2 = SwarMasker::new(&needles2);
            let swar8 = SwarMasker::new(&needles8);
            let sse2 = Sse2Masker::new(&needles2);
            let sse8 = Sse2Masker::new(&needles8);
            for off in 0..(buf.len() - 32) {
                let p = buf[off..].as_ptr();
                // Expand each kernel's mask to a per-byte boolean over
                // its own width and compare against the scalar truth.
                for w in 0..8 {
                    // SAFETY: off + 32 <= buf.len() bounds all widths.
                    let (m2, m8) = unsafe { (swar2.mask(p), swar8.mask(p)) };
                    let hit2 = m2 >> (w * 8) & 0x80 != 0;
                    let hit8 = m8 >> (w * 8) & 0x80 != 0;
                    assert_eq!(hit2, needles2.contains(&buf[off + w]));
                    assert_eq!(hit8, needles8.contains(&buf[off + w]));
                }
                for w in 0..16 {
                    // SAFETY: as above.
                    let (m2, m8) = unsafe { (sse2.mask(p), sse8.mask(p)) };
                    assert_eq!(m2 >> w & 1 != 0, needles2.contains(&buf[off + w]));
                    assert_eq!(m8 >> w & 1 != 0, needles8.contains(&buf[off + w]));
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: feature checked; off + 32 bounded.
                    let (a2, a8) = unsafe {
                        let a2 = Avx2Masker::new(&needles2);
                        let a8 = Avx2Masker::new(&needles8);
                        (a2.mask(p), a8.mask(p))
                    };
                    for w in 0..32 {
                        assert_eq!(a2 >> w & 1 != 0, needles2.contains(&buf[off + w]));
                        assert_eq!(a8 >> w & 1 != 0, needles8.contains(&buf[off + w]));
                    }
                }
            }
        }

        #[test]
        fn span_kernels_agree_with_scalar_at_every_alignment() {
            let number = SpanClass {
                ranges: [(b'0', b'9'), (1, 0)],
                extras: *b"+-.eE\0",
                n_extras: 5,
            };
            let scalar = SpanClass {
                ranges: [(b'0', b'9'), (b'a', b'z')],
                extras: *b"+-.E\0\0",
                n_extras: 4,
            };
            let mut buf = vec![0u8; 256];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = b"12.5e-7,true nul\xff"[i % 17];
            }
            for class in [&number, &scalar] {
                for off in 0..33 {
                    for len in [0, 1, 7, 15, 16, 17, 31, 32, 33, 64, 96] {
                        let hay = &buf[off..off + len];
                        for from in [0, 1, len / 2, len] {
                            let want = class.span_scalar(hay, from);
                            assert_eq!(span_sse2(class, hay, from), want);
                            if std::arch::is_x86_feature_detected!("avx2") {
                                // SAFETY: feature checked above.
                                assert_eq!(unsafe { span_avx2(class, hay, from) }, want);
                            }
                        }
                    }
                }
            }
        }
    }
}
