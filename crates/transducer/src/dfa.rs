//! Table-driven byte-level deterministic finite transducers and their
//! speculative fragments.
//!
//! §3.3: "Lexing is handled by finite transducers optimised for small
//! transition tables. As a transition must be performed after each
//! byte, precomputation is used for all the transition tables." A
//! [`ByteDfa`] stores one flattened `state × byte` table whose entries
//! pack the next state and the emitted action into a single `u16`
//! ([`ByteDfa::step`]); the associative execution runs a block from
//! every possible starting state ([`DfaFragment::run_block`]) and
//! merges per-start tapes with relation composition.
//!
//! Three scan optimisations make the hot path memory-bound rather than
//! dispatch-bound:
//!
//! * **one lane scan** — [`DfaBuilder::build`] computes, for every
//!   state, the 256-bit set of *interesting* bytes (anything that
//!   leaves the state or emits an action), and one scan plan: the
//!   states with at most eight interesting bytes are *covered* when
//!   the union of their sets itself fits eight needles. A covered
//!   state runs one lane loop (AVX2 / SSE2 / SWAR, runtime-dispatched
//!   via [`crate::simd::kernel`]) that masks a whole lane of input
//!   against the union needles — simdjson's structural-character mask
//!   — and filters each hit by the current state's set, so flips
//!   among covered states stay inside the loop. Every other state
//!   steps through the table byte by byte. Skipped bytes are provably
//!   self-loops with no action, so output is bit-identical across
//!   kernels and to [`ByteDfa::run_bytewise`]. The GeoJSON lexer's
//!   OUT/STR states union to exactly eight bytes; its escape state
//!   steps.
//! * **prefix/shared tapes** — the fragment exploits *convergence*
//!   (§3.1): speculation proceeds in lockstep only until every
//!   speculative run reaches the same state, after which a single
//!   shared run covers the rest of the block. The shared tape is
//!   stored **once** per fragment instead of being cloned into every
//!   per-start entry (the paper's output-matrix tape sharing), and
//!   merges move tapes instead of cloning them.
//! * **speculation pruning + lane lockstep** — duplicate start states
//!   and speculative runs that collapse onto the same trajectory
//!   before emitting anything (e.g. a JSON escape state folding into
//!   the in-string state after one byte) are deduplicated into a
//!   single run, and while every live run is covered the lockstep
//!   phase skips bytes uninteresting to *every* live run with the same
//!   lane loop as the shared phase — so even speculation that never
//!   converges (JSON quote parity) scans at lane speed instead of
//!   probing bytewise.

use crate::merge::Mergeable;
use crate::simd::{self, HitMasker};

/// Action id meaning "emit nothing".
pub const NO_ACTION: u8 = 0;

/// A deterministic byte-level finite transducer with a precomputed
/// flattened transition+action table.
#[derive(Debug, Clone)]
pub struct ByteDfa {
    n_states: usize,
    start: u8,
    /// `table[state * 256 + byte]` = `next_state | action << 8`.
    table: Vec<u16>,
    /// Per-state interesting-byte sets (bit set ⇒ the byte either
    /// leaves the state or emits an action).
    interesting: Vec<[u64; 4]>,
    /// The lane-scan plan derived from `interesting`.
    fused: FusedScan,
}

/// Plan for the lane scan: one fixed needle set covering every
/// *covered* state, so a run crossing those states (e.g. JSON
/// in/out-of-string flips) stays inside a single lane loop with a
/// single masker. Hits are filtered per-state with the bitmap — a
/// union hit that is boring for the *current* state is a provable
/// silent self-loop, so skipping it is exact.
#[derive(Debug, Clone)]
struct FusedScan {
    /// The union of the covered states' interesting sets,
    /// duplicate-padded to eight bytes.
    needles: [u8; 8],
    /// Per-state: true when the lane loop may run this state (its
    /// interesting set is contained in the union needle set).
    covered: Vec<bool>,
}

impl FusedScan {
    /// Plans the lane scan: every state with at most eight interesting
    /// bytes is covered if the union of their sets fits eight needles
    /// (the JSON lexer's OUT/STR pair unions to exactly the eight
    /// structural bytes), and no state is otherwise. An empty union is
    /// a valid plan: its NUL padding hits are dropped by every covered
    /// state's empty bitmap.
    fn plan(interesting: &[[u64; 4]]) -> Self {
        let covered: Vec<bool> = interesting.iter().map(|m| popcount(m) <= 8).collect();
        let mut union = [0u64; 4];
        for (map, _) in interesting.iter().zip(&covered).filter(|(_, c)| **c) {
            for (acc, w) in union.iter_mut().zip(map) {
                *acc |= w;
            }
        }
        match needle_set(&union) {
            Some(needles) => FusedScan { needles, covered },
            None => FusedScan {
                needles: [0; 8],
                covered: vec![false; interesting.len()],
            },
        }
    }
}

#[inline]
fn bit(map: &[u64; 4], b: u8) -> bool {
    map[(b >> 6) as usize] >> (b & 63) & 1 == 1
}

impl ByteDfa {
    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.n_states
    }

    /// The designated starting state.
    #[inline]
    pub fn start_state(&self) -> u8 {
        self.start
    }

    /// One transition step.
    #[inline]
    pub fn step(&self, state: u8, byte: u8) -> (u8, u8) {
        let e = self.table[(state as usize) << 8 | byte as usize];
        (e as u8, (e >> 8) as u8)
    }

    /// [`Self::step`] without the bounds check, for the hot scan
    /// loops. Sound because [`DfaBuilder`] validates every transition
    /// target, so reachable states always index inside the table.
    #[inline(always)]
    fn step_fast(&self, state: u8, byte: u8) -> (u8, u8) {
        let idx = (state as usize) << 8 | byte as usize;
        debug_assert!(idx < self.table.len());
        // SAFETY: states are validated `< n_states` at build time and
        // the table has `n_states * 256` entries.
        let e = unsafe { *self.table.get_unchecked(idx) };
        (e as u8, (e >> 8) as u8)
    }

    /// The interesting-byte set of `state` (bytes that leave the state
    /// or emit an action). Skipping a byte outside this set cannot
    /// change the run's outcome.
    #[inline]
    pub fn interesting_set(&self, state: u8) -> &[u64; 4] {
        &self.interesting[state as usize]
    }

    /// Runs sequentially from `state`, invoking `emit(action, position)`
    /// for every non-zero action. Returns the final state.
    ///
    /// A covered state runs the lane loop: the hit mask of a whole
    /// input lane (8/16/32 bytes depending on the dispatched kernel) is
    /// computed once and its set bits are consumed in place, across
    /// flips among covered states (e.g. JSON quote transitions), so
    /// neither skipped runs nor hit-dense runs rescan input. Any other
    /// state steps through the table byte by byte until it leaves.
    pub fn run<F: FnMut(u8, u64)>(
        &self,
        mut state: u8,
        bytes: &[u8],
        base: u64,
        mut emit: F,
    ) -> u8 {
        let len = bytes.len();
        let mut pos = 0usize;
        'state: while pos < len {
            if self.fused.covered[state as usize] {
                match self.run_fused(&mut state, bytes, pos, base, &mut emit) {
                    Some(p) => {
                        pos = p;
                        continue 'state;
                    }
                    None => return state,
                }
            }
            while pos < len {
                let (next, action) = self.step(state, bytes[pos]);
                if action != NO_ACTION {
                    emit(action, base + pos as u64);
                }
                pos += 1;
                if next != state {
                    state = next;
                    continue 'state;
                }
            }
        }
        state
    }

    /// Kernel dispatch for the lane loop: AVX2 when detected, SSE2 on
    /// x86_64 otherwise, portable SWAR elsewhere (or when
    /// `ATGIS_NO_SIMD` forces the fallback).
    #[inline]
    fn run_fused<F: FnMut(u8, u64)>(
        &self,
        state: &mut u8,
        bytes: &[u8],
        pos: usize,
        base: u64,
        emit: &mut F,
    ) -> Option<usize> {
        let (needles, covered) = (&self.fused.needles, &self.fused.covered[..]);
        match simd::kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch guarantees AVX2 was detected.
            simd::Kernel::Avx2 => unsafe {
                self.run_fused_avx2(needles, covered, state, bytes, pos, base, emit)
            },
            #[cfg(target_arch = "x86_64")]
            simd::Kernel::Sse2 => self.run_fused_masked(
                simd::x86::Sse2Masker::new(needles),
                covered,
                state,
                bytes,
                pos,
                base,
                emit,
            ),
            _ => self.run_fused_masked(
                simd::SwarMasker::new(needles),
                covered,
                state,
                bytes,
                pos,
                base,
                emit,
            ),
        }
    }

    /// AVX2 instantiation of [`Self::run_fused_masked`].
    ///
    /// # Safety
    /// The CPU must support AVX2 (guaranteed by [`simd::kernel`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_fused_avx2<F: FnMut(u8, u64)>(
        &self,
        needles: &[u8; 8],
        covered: &[bool],
        state: &mut u8,
        bytes: &[u8],
        pos: usize,
        base: u64,
        emit: &mut F,
    ) -> Option<usize> {
        // SAFETY: caller guarantees AVX2.
        let m = unsafe { simd::x86::Avx2Masker::new(needles) };
        self.run_fused_masked(m, covered, state, bytes, pos, base, emit)
    }

    /// The lane loop: scans with the *union* needle masker and filters
    /// each hit against the current state's interesting bitmap (a
    /// union hit outside that bitmap is a silent self-loop for the
    /// current state, so skipping it is exact). State flips among
    /// covered states swap the bitmap and carry on inside the same
    /// loop; only a transition into an uncovered state returns, with
    /// `Some(resume_pos)`. `None` means the input is exhausted.
    ///
    /// Soundness of continuing mid-lane after a flip: the hit mask
    /// holds *every* union byte in the lane, and the union contains
    /// the new covered state's whole interesting set, so no byte the
    /// new state cares about was dropped from `h`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run_fused_masked<M: HitMasker, F: FnMut(u8, u64)>(
        &self,
        m: M,
        covered: &[bool],
        state: &mut u8,
        bytes: &[u8],
        mut pos: usize,
        base: u64,
        emit: &mut F,
    ) -> Option<usize> {
        let len = bytes.len();
        let mut map = &self.interesting[*state as usize];
        while pos + M::WIDTH <= len {
            // SAFETY: the loop condition guarantees a full lane of
            // readable bytes; AVX2 maskers only exist in AVX2 contexts.
            let mut h = unsafe { m.mask(bytes.as_ptr().add(pos)) };
            while h != 0 {
                let i = pos + M::index_of(h);
                h &= h - 1;
                // SAFETY: `i < pos + M::WIDTH <= len`.
                let b = unsafe { *bytes.get_unchecked(i) };
                if !bit(map, b) {
                    continue;
                }
                let (next, action) = self.step_fast(*state, b);
                if action != NO_ACTION {
                    emit(action, base + i as u64);
                }
                if next != *state {
                    *state = next;
                    if !covered[next as usize] {
                        return Some(i + 1);
                    }
                    map = &self.interesting[next as usize];
                }
            }
            pos += M::WIDTH;
        }
        // Sub-lane tail.
        while pos < len {
            let b = bytes[pos];
            if bit(map, b) {
                let (next, action) = self.step_fast(*state, b);
                if action != NO_ACTION {
                    emit(action, base + pos as u64);
                }
                pos += 1;
                if next != *state {
                    *state = next;
                    if !covered[next as usize] {
                        return Some(pos);
                    }
                    map = &self.interesting[next as usize];
                }
            } else {
                pos += 1;
            }
        }
        None
    }

    /// The pre-optimisation byte-at-a-time loop, kept as the reference
    /// implementation for differential tests and scan benchmarks.
    pub fn run_bytewise<F: FnMut(u8, u64)>(
        &self,
        mut state: u8,
        bytes: &[u8],
        base: u64,
        mut emit: F,
    ) -> u8 {
        for (i, &b) in bytes.iter().enumerate() {
            let (next, action) = self.step(state, b);
            if action != NO_ACTION {
                emit(action, base + i as u64);
            }
            state = next;
        }
        state
    }
}

/// Builder for [`ByteDfa`]. States are added explicitly; transitions
/// default to self-loops with no action until overridden.
#[derive(Debug, Clone, Default)]
pub struct DfaBuilder {
    trans: Vec<[u8; 256]>,
    actions: Vec<[u8; 256]>,
    start: u8,
}

impl DfaBuilder {
    /// Creates a builder with `n` states (all self-looping), starting
    /// in state `start`.
    pub fn new(n: usize, start: u8) -> Self {
        assert!(n > 0 && n <= 255, "state count must be in 1..=255");
        assert!((start as usize) < n);
        let mut trans = Vec::with_capacity(n);
        for s in 0..n {
            trans.push([s as u8; 256]);
        }
        DfaBuilder {
            trans,
            actions: vec![[NO_ACTION; 256]; n],
            start,
        }
    }

    /// Sets the transition for every byte from `from` to `to`
    /// (a "default" edge; override specific bytes afterwards).
    pub fn default_transition(&mut self, from: u8, to: u8) -> &mut Self {
        assert!(
            (to as usize) < self.trans.len(),
            "transition target out of range"
        );
        self.trans[from as usize] = [to; 256];
        self
    }

    /// Sets the transition for one byte.
    pub fn transition(&mut self, from: u8, byte: u8, to: u8) -> &mut Self {
        assert!(
            (to as usize) < self.trans.len(),
            "transition target out of range"
        );
        self.trans[from as usize][byte as usize] = to;
        self
    }

    /// Sets transitions for every byte in `bytes`.
    pub fn transitions(&mut self, from: u8, bytes: &[u8], to: u8) -> &mut Self {
        assert!(
            (to as usize) < self.trans.len(),
            "transition target out of range"
        );
        for &b in bytes {
            self.trans[from as usize][b as usize] = to;
        }
        self
    }

    /// Attaches an action to one byte consumed in `from`.
    pub fn action(&mut self, from: u8, byte: u8, action: u8) -> &mut Self {
        self.actions[from as usize][byte as usize] = action;
        self
    }

    /// Attaches an action to every byte in `bytes` consumed in `from`.
    pub fn action_on(&mut self, from: u8, bytes: &[u8], action: u8) -> &mut Self {
        for &b in bytes {
            self.actions[from as usize][b as usize] = action;
        }
        self
    }

    /// Finalises the automaton: flattens the tables and computes the
    /// per-state interesting-byte sets and the lane-scan plan the bulk
    /// scanner uses.
    pub fn build(self) -> ByteDfa {
        let n = self.trans.len();
        let mut table = Vec::with_capacity(n * 256);
        let mut interesting = Vec::with_capacity(n);
        for s in 0..n {
            let mut map = [0u64; 4];
            for b in 0..256usize {
                let next = self.trans[s][b];
                let action = self.actions[s][b];
                table.push(next as u16 | (action as u16) << 8);
                if next != s as u8 || action != NO_ACTION {
                    map[b >> 6] |= 1u64 << (b & 63);
                }
            }
            interesting.push(map);
        }
        let fused = FusedScan::plan(&interesting);
        ByteDfa {
            n_states: n,
            start: self.start,
            table,
            interesting,
            fused,
        }
    }
}

/// A speculative fragment of a byte DFA run over one block.
///
/// Per-start tapes are split into a *prefix* (the bytes scanned before
/// the speculative runs converged, one tape per start state) and a
/// single *shared* suffix tape covering everything after convergence —
/// §3.1's output-matrix tape sharing made explicit. The realised tape
/// of a start state is `prefix ⊗ shared`; [`DfaFragment::resolve`] and
/// [`DfaFragment::into_entries`] perform that composition on demand,
/// so building and merging fragments never clones the (typically
/// dominant) shared tape.
#[derive(Debug, Clone)]
pub struct DfaFragment<O> {
    /// `(start, finish, prefix tape)` triples, one per speculated
    /// start state.
    entries: Vec<(u8, u8, O)>,
    /// Tape of the converged suffix, shared by every entry (identity
    /// when the block never converged).
    shared: O,
    /// True when every entry finishes in the same state (the shared
    /// phase ran, or the block ended exactly at convergence).
    converged: bool,
}

/// One distinct speculative trajectory inside
/// [`DfaFragment::run_block`]. Several start states may alias the same
/// run: duplicates in `starts`, or runs that collapsed onto the same
/// state before emitting anything.
struct Run<O> {
    state: u8,
    tape: O,
    /// True once any action has been folded into `tape`; runs with
    /// equal states may only be deduplicated while both are still
    /// silent (their pasts are provably identical: empty).
    emitted: bool,
}

impl<O: Mergeable + Clone> DfaFragment<O> {
    /// Builds the fragment for `bytes` speculating from each state in
    /// `starts`. `build(tape, action, absolute_position, byte)` folds
    /// emitted actions into the per-start tape; `base` is the block's
    /// absolute offset in the input, so emitted positions are global.
    ///
    /// The speculative phase advances all *distinct* runs in lockstep
    /// — duplicate start states share a run from the first byte, and
    /// runs that land in the same state before emitting anything are
    /// folded as they collapse (the cheap lookahead pruning: a JSON
    /// escape start folds into the in-string start after one
    /// non-special byte). While every live run is covered, the lockstep
    /// skips bytes uninteresting to every live run with the same lane
    /// loop as [`ByteDfa::run`]; a live run outside the plan steps
    /// every run one byte. Once all runs converge, a single
    /// bulk-scanned shared run covers the rest of the block and its
    /// tape is stored once.
    pub fn run_block<F>(dfa: &ByteDfa, starts: &[u8], bytes: &[u8], base: u64, mut build: F) -> Self
    where
        F: FnMut(&mut O, u8, u64, u8),
    {
        let len = bytes.len();
        // Distinct trajectories + alias map from `starts` indices.
        let mut runs: Vec<Run<O>> = Vec::new();
        let mut alias: Vec<usize> = Vec::with_capacity(starts.len());
        let mut seen: Vec<u8> = Vec::new();
        for &s in starts {
            if let Some(j) = seen.iter().position(|&x| x == s) {
                alias.push(j);
            } else {
                alias.push(runs.len());
                seen.push(s);
                runs.push(Run {
                    state: s,
                    tape: O::identity(),
                    emitted: false,
                });
            }
        }

        // Speculative phase: all distinct runs in lockstep until they
        // fold into one or all reach the same state.
        let mut pos = 0usize;
        while pos < len && !states_all_equal(&runs) {
            if runs.iter().all(|r| dfa.fused.covered[r.state as usize]) {
                // Lane lockstep: one fixed masker survives state flips
                // among covered states (quote parity flips OUT↔STR
                // without ever converging).
                pos = lockstep_fused(dfa, &mut runs, &mut alias, bytes, pos, base, &mut build);
            } else {
                // A live run outside the plan (e.g. a default-transition
                // escape state): step this byte for every run, then
                // re-evaluate — folding usually retires such a run
                // within a byte or two.
                let b = bytes[pos];
                step_all_at(dfa, &mut runs, &mut alias, b, base + pos as u64, &mut build);
                pos += 1;
            }
        }

        // Shared phase: one bulk-scanned run, tape stored once.
        let mut shared = O::identity();
        let converged = states_all_equal(&runs);
        if converged && pos < len {
            let fin = dfa.run(
                runs[0].state,
                &bytes[pos..],
                base + pos as u64,
                |action, p| {
                    build(&mut shared, action, p, bytes[(p - base) as usize]);
                },
            );
            for run in runs.iter_mut() {
                run.state = fin;
            }
        }

        // Realise entries through the alias map; each run's tape moves
        // into its last aliased entry and is cloned for the others.
        let mut refs = vec![0usize; runs.len()];
        for &j in &alias {
            refs[j] += 1;
        }
        let mut slots: Vec<(u8, Option<O>)> =
            runs.into_iter().map(|r| (r.state, Some(r.tape))).collect();
        let entries = starts
            .iter()
            .zip(&alias)
            .map(|(&s, &j)| {
                refs[j] -= 1;
                let tape = if refs[j] == 0 {
                    slots[j].1.take().expect("tape moved once")
                } else {
                    slots[j]
                        .1
                        .as_ref()
                        .expect("tape live until last ref")
                        .clone()
                };
                (s, slots[j].0, tape)
            })
            .collect();

        DfaFragment {
            entries,
            shared,
            converged,
        }
    }

    /// Builds a fragment from fully-realised `(start, finish, tape)`
    /// entries (no shared suffix) — the representation produced by
    /// independent per-start runs, e.g. the reference byte-loop lexer.
    pub fn from_entries(entries: Vec<(u8, u8, O)>) -> Self {
        let converged = !entries.is_empty() && entries.windows(2).all(|w| w[0].1 == w[1].1);
        DfaFragment {
            entries,
            shared: O::identity(),
            converged,
        }
    }

    /// True for the merge identity (no speculated entries).
    pub fn is_identity(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(start, finish)` pairs of the speculation relation.
    pub fn relation(&self) -> impl Iterator<Item = (u8, u8)> + '_ {
        self.entries.iter().map(|(s, f, _)| (*s, *f))
    }

    /// Realises the per-start tapes: `prefix ⊗ shared` for every
    /// entry. The shared tape is moved into the last entry and cloned
    /// for the others — the only place a shared tape is ever copied.
    pub fn into_entries(self) -> Vec<(u8, u8, O)> {
        let mut out = Vec::with_capacity(self.entries.len());
        let mut shared = Some(self.shared);
        let mut it = self.entries.into_iter().peekable();
        while let Some((s, f, prefix)) = it.next() {
            let suffix = if it.peek().is_some() {
                shared.as_ref().expect("shared live until last").clone()
            } else {
                shared.take().expect("shared live until last")
            };
            out.push((s, f, prefix.merge(suffix)));
        }
        out
    }

    /// Relation composition: for every entry of `self`, chase its
    /// finishing state through `other`. Returns `None` when `other`
    /// did not speculate from a state `self` finishes in (a speculation
    /// set mismatch — callers either speculate on all states or prove
    /// the set closed under transitions).
    ///
    /// Consumes both fragments: tapes are moved, not cloned, except
    /// when several entries of `self` finish in the same mid state and
    /// must share one tail (only the small pre-convergence prefixes
    /// are ever duplicated).
    pub fn try_merge_with(self, other: DfaFragment<O>) -> Option<DfaFragment<O>> {
        if self.converged {
            // All mids are equal: compose the shared chain once —
            // result shared = self.shared ⊗ other(mid) — with zero
            // clones of either shared tape.
            let mid = self.entries.first().map(|e| e.1)?;
            let (fin, tail) = other.realize_for(mid)?;
            let entries = self
                .entries
                .into_iter()
                .map(|(s, _, prefix)| (s, fin, prefix))
                .collect();
            return Some(DfaFragment {
                entries,
                shared: self.shared.merge(tail),
                converged: true,
            });
        }

        // Unconverged left: self.shared is identity and mids may
        // differ. Each entry's prefix absorbs other's matching prefix
        // tape; other's shared tape (identity unless other converged,
        // in which case it is common to every chased entry) hoists
        // into the result's shared slot unchanged — so the dominant
        // tape is moved exactly once, never cloned.
        let other_converged = other.converged;
        let mut slots: Vec<(u8, u8, Option<O>)> = other
            .entries
            .into_iter()
            .map(|(s, f, p)| (s, f, Some(p)))
            .collect();
        // Reference counts decide move-vs-clone: the last entry
        // chasing a given mid state moves the tail prefix out.
        let mut refs = vec![0usize; slots.len()];
        for (_, mid, _) in &self.entries {
            let j = slots.iter().position(|(st, _, _)| st == mid)?;
            refs[j] += 1;
        }
        let mut entries = Vec::with_capacity(self.entries.len());
        for (s, mid, prefix) in self.entries {
            let j = slots
                .iter()
                .position(|(st, _, _)| *st == mid)
                .expect("checked above");
            refs[j] -= 1;
            let tail = if refs[j] == 0 {
                slots[j].2.take().expect("taken once")
            } else {
                slots[j].2.as_ref().expect("live until last ref").clone()
            };
            entries.push((s, slots[j].1, prefix.merge(tail)));
        }
        let converged =
            other_converged || entries.windows(2).all(|w: &[(u8, u8, O)]| w[0].1 == w[1].1);
        Some(DfaFragment {
            entries,
            shared: other.shared,
            converged,
        })
    }

    /// Realises the tape for the entry starting at `start`, consuming
    /// the fragment: `prefix ⊗ shared` with both moved, no clones.
    fn realize_for(self, start: u8) -> Option<(u8, O)> {
        let shared = self.shared;
        self.entries
            .into_iter()
            .find(|(s, _, _)| *s == start)
            .map(|(_, f, prefix)| (f, prefix.merge(shared)))
    }

    /// Resolves against the true starting state, realising its tape.
    pub fn resolve(&self, start: u8) -> Option<(u8, O)> {
        self.entries
            .iter()
            .find(|(s, _, _)| *s == start)
            .map(|(_, f, prefix)| (*f, prefix.clone().merge(self.shared.clone())))
    }

    /// Distinct finishing states (convergence measure).
    pub fn distinct_finishing_states(&self) -> usize {
        let mut fins: Vec<u8> = self.entries.iter().map(|e| e.1).collect();
        fins.sort_unstable();
        fins.dedup();
        fins.len()
    }
}

/// True when every live run is in the same state (vacuously true for a
/// single run).
#[inline]
fn states_all_equal<O>(runs: &[Run<O>]) -> bool {
    runs.windows(2).all(|w| w[0].state == w[1].state)
}

/// Steps every live run on byte `b` (emitting into its tape), folds
/// runs that collapsed onto the same still-silent trajectory, and
/// reports whether any run changed state — the caller's signal that
/// the union interesting set (and its needle masker) may be stale.
#[inline(always)]
fn step_all_at<O: Mergeable + Clone, F: FnMut(&mut O, u8, u64, u8)>(
    dfa: &ByteDfa,
    runs: &mut Vec<Run<O>>,
    alias: &mut [usize],
    b: u8,
    at: u64,
    build: &mut F,
) -> bool {
    let mut changed = false;
    for run in runs.iter_mut() {
        let (next, action) = dfa.step_fast(run.state, b);
        if action != NO_ACTION {
            build(&mut run.tape, action, at, b);
            run.emitted = true;
        }
        if next != run.state {
            run.state = next;
            changed = true;
        }
    }
    if changed {
        fold_runs(runs, alias);
    }
    changed
}

/// Deduplicates runs that are in the same state with both tapes still
/// empty: their pasts (nothing emitted) and futures (same state in a
/// deterministic machine) are identical, so one run serves both start
/// states. Alias entries are remapped to the surviving run.
fn fold_runs<O>(runs: &mut Vec<Run<O>>, alias: &mut [usize]) {
    let mut i = 0;
    while i < runs.len() {
        let mut k = i + 1;
        while k < runs.len() {
            if runs[i].state == runs[k].state && !runs[i].emitted && !runs[k].emitted {
                runs.remove(k);
                for a in alias.iter_mut() {
                    if *a == k {
                        *a = i;
                    } else if *a > k {
                        *a -= 1;
                    }
                }
            } else {
                k += 1;
            }
        }
        i += 1;
    }
}

/// Number of bytes in an interesting set.
#[inline]
fn popcount(map: &[u64; 4]) -> u32 {
    map.iter().map(|w| w.count_ones()).sum()
}

/// The needle bytes of `map` when they fit the lane scanner (at most
/// eight set bits), `None` for denser sets. Unused slots repeat a
/// needle, so they never add a hit; an empty set pads with NUL.
fn needle_set(map: &[u64; 4]) -> Option<[u8; 8]> {
    if popcount(map) > 8 {
        return None;
    }
    let mut nd = [0u8; 8];
    let mut n = 0;
    for (wi, &word) in map.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            nd[n] = (wi as u8) << 6 | w.trailing_zeros() as u8;
            n += 1;
            w &= w - 1;
        }
    }
    let pad = nd[n.saturating_sub(1)];
    for slot in nd.iter_mut().skip(n.max(1)) {
        *slot = pad;
    }
    Some(nd)
}

/// Kernel dispatch for the lane lockstep (mirrors
/// [`ByteDfa::run_fused`]): scans with the DFA-wide union needle set,
/// which outlives state flips among covered states.
fn lockstep_fused<O: Mergeable + Clone, F: FnMut(&mut O, u8, u64, u8)>(
    dfa: &ByteDfa,
    runs: &mut Vec<Run<O>>,
    alias: &mut [usize],
    bytes: &[u8],
    pos: usize,
    base: u64,
    build: &mut F,
) -> usize {
    let (nd, covered) = (&dfa.fused.needles, &dfa.fused.covered[..]);
    match simd::kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch guarantees AVX2 was detected.
        simd::Kernel::Avx2 => unsafe {
            lockstep_fused_avx2(dfa, nd, covered, runs, alias, bytes, pos, base, build)
        },
        #[cfg(target_arch = "x86_64")]
        simd::Kernel::Sse2 => lockstep_fused_masked(
            dfa,
            simd::x86::Sse2Masker::new(nd),
            covered,
            runs,
            alias,
            bytes,
            pos,
            base,
            build,
        ),
        _ => lockstep_fused_masked(
            dfa,
            simd::SwarMasker::new(nd),
            covered,
            runs,
            alias,
            bytes,
            pos,
            base,
            build,
        ),
    }
}

/// AVX2 instantiation of [`lockstep_fused_masked`].
///
/// # Safety
/// The CPU must support AVX2 (guaranteed by [`simd::kernel`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn lockstep_fused_avx2<O: Mergeable + Clone, F: FnMut(&mut O, u8, u64, u8)>(
    dfa: &ByteDfa,
    nd: &[u8; 8],
    covered: &[bool],
    runs: &mut Vec<Run<O>>,
    alias: &mut [usize],
    bytes: &[u8],
    pos: usize,
    base: u64,
    build: &mut F,
) -> usize {
    // SAFETY: caller guarantees AVX2.
    let m = unsafe { simd::x86::Avx2Masker::new(nd) };
    lockstep_fused_masked(dfa, m, covered, runs, alias, bytes, pos, base, build)
}

/// Fused lockstep lane loop: scans with the DFA-wide union masker and
/// filters hits against the live runs' combined interesting set (a hit
/// outside it is a silent self-loop for every live run). State changes
/// recompute the combined set and carry on inside the same loop; the
/// scan only returns when speculation converges, a run enters an
/// uncovered state, or the input is exhausted.
///
/// Mid-lane continuation is sound for the same reason as
/// [`ByteDfa::run_fused_masked`]: the hit mask holds every union byte
/// of the lane, and the union contains every covered state's whole
/// interesting set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lockstep_fused_masked<M: HitMasker, O: Mergeable + Clone, F: FnMut(&mut O, u8, u64, u8)>(
    dfa: &ByteDfa,
    m: M,
    covered: &[bool],
    runs: &mut Vec<Run<O>>,
    alias: &mut [usize],
    bytes: &[u8],
    mut pos: usize,
    base: u64,
    build: &mut F,
) -> usize {
    let len = bytes.len();
    // Steady state: exactly two runs that have both emitted can never
    // fold, so all run bookkeeping drops away (the JSON quote-parity
    // pair lives here for whole blocks).
    if let [r0, r1] = runs.as_mut_slice() {
        if r0.emitted && r1.emitted {
            return lockstep_fused2_masked(dfa, m, covered, r0, r1, bytes, pos, base, build);
        }
    }
    let mut live = combined_interesting(dfa, runs);
    while pos + M::WIDTH <= len {
        // SAFETY: the loop condition guarantees a full lane of
        // readable bytes; AVX2 maskers only exist in AVX2 contexts.
        let mut h = unsafe { m.mask(bytes.as_ptr().add(pos)) };
        while h != 0 {
            let i = pos + M::index_of(h);
            h &= h - 1;
            // SAFETY: `i < pos + M::WIDTH <= len`.
            let b = unsafe { *bytes.get_unchecked(i) };
            if !bit(&live, b) {
                continue;
            }
            if step_all_at(dfa, runs, alias, b, base + i as u64, build) {
                if states_all_equal(runs) || runs.iter().any(|r| !covered[r.state as usize]) {
                    return i + 1;
                }
                if let [r0, r1] = runs.as_mut_slice() {
                    if r0.emitted && r1.emitted {
                        return lockstep_fused2_masked(
                            dfa,
                            m,
                            covered,
                            r0,
                            r1,
                            bytes,
                            i + 1,
                            base,
                            build,
                        );
                    }
                }
                live = combined_interesting(dfa, runs);
            }
        }
        pos += M::WIDTH;
    }
    // Sub-lane tail: bitmap probe over the combined live set.
    while pos < len {
        let b = bytes[pos];
        if bit(&live, b) {
            let changed = step_all_at(dfa, runs, alias, b, base + pos as u64, build);
            pos += 1;
            if changed {
                if states_all_equal(runs) || runs.iter().any(|r| !covered[r.state as usize]) {
                    return pos;
                }
                live = combined_interesting(dfa, runs);
            }
        } else {
            pos += 1;
        }
    }
    pos
}

/// The two-run steady-state lockstep: both runs have emitted (no fold
/// is possible any more), so their states live in registers and each
/// hit is just two table steps — no `Vec` walk, no fold or alias
/// bookkeeping. Returns on convergence (`s0 == s1`), on a transition
/// into an uncovered state, or at end of input.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lockstep_fused2_masked<M: HitMasker, O: Mergeable + Clone, F: FnMut(&mut O, u8, u64, u8)>(
    dfa: &ByteDfa,
    m: M,
    covered: &[bool],
    r0: &mut Run<O>,
    r1: &mut Run<O>,
    bytes: &[u8],
    mut pos: usize,
    base: u64,
    build: &mut F,
) -> usize {
    let len = bytes.len();
    let mut s0 = r0.state;
    let mut s1 = r1.state;
    let mut live = union2(dfa, s0, s1);
    macro_rules! hit {
        ($b:expr, $i:expr, $resume:expr) => {{
            let (n0, a0) = dfa.step_fast(s0, $b);
            let (n1, a1) = dfa.step_fast(s1, $b);
            if a0 != NO_ACTION {
                build(&mut r0.tape, a0, base + $i as u64, $b);
            }
            if a1 != NO_ACTION {
                build(&mut r1.tape, a1, base + $i as u64, $b);
            }
            if n0 != s0 || n1 != s1 {
                s0 = n0;
                s1 = n1;
                if s0 == s1 || !covered[s0 as usize] || !covered[s1 as usize] {
                    r0.state = s0;
                    r1.state = s1;
                    return $resume;
                }
                live = union2(dfa, s0, s1);
            }
        }};
    }
    while pos + M::WIDTH <= len {
        // SAFETY: the loop condition guarantees a full lane of
        // readable bytes; AVX2 maskers only exist in AVX2 contexts.
        let mut h = unsafe { m.mask(bytes.as_ptr().add(pos)) };
        while h != 0 {
            let i = pos + M::index_of(h);
            h &= h - 1;
            // SAFETY: `i < pos + M::WIDTH <= len`.
            let b = unsafe { *bytes.get_unchecked(i) };
            if !bit(&live, b) {
                continue;
            }
            hit!(b, i, i + 1);
        }
        pos += M::WIDTH;
    }
    while pos < len {
        let b = bytes[pos];
        if bit(&live, b) {
            hit!(b, pos, pos + 1);
        }
        pos += 1;
    }
    r0.state = s0;
    r1.state = s1;
    pos
}

/// OR of two states' interesting sets.
#[inline(always)]
fn union2(dfa: &ByteDfa, s0: u8, s1: u8) -> [u64; 4] {
    let a = &dfa.interesting[s0 as usize];
    let b = &dfa.interesting[s1 as usize];
    [a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]]
}

/// OR of the interesting sets of the live runs: a byte may be skipped
/// in lockstep only when it is uninteresting to *every* live run, i.e.
/// outside the union of their interesting sets.
#[inline]
fn combined_interesting<O>(dfa: &ByteDfa, runs: &[Run<O>]) -> [u64; 4] {
    let mut map = [0u64; 4];
    for run in runs {
        let m = dfa.interesting_set(run.state);
        for (acc, w) in map.iter_mut().zip(m) {
            *acc |= w;
        }
    }
    map
}

impl<O: Mergeable + Clone + PartialEq> PartialEq for DfaFragment<O> {
    /// Logical equality over *realised* tapes: fragments that split
    /// prefix/shared differently but resolve identically are equal.
    fn eq(&self, other: &Self) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        self.entries.iter().zip(&other.entries).all(|(a, b)| {
            a.0 == b.0
                && a.1 == b.1
                && a.2.clone().merge(self.shared.clone()) == b.2.clone().merge(other.shared.clone())
        })
    }
}

impl<O: Mergeable + Clone> Mergeable for DfaFragment<O> {
    fn identity() -> Self {
        DfaFragment {
            entries: Vec::new(),
            shared: O::identity(),
            converged: false,
        }
    }

    fn merge(self, other: Self) -> Self {
        if self.entries.is_empty() {
            return other;
        }
        if other.entries.is_empty() {
            return self;
        }
        self.try_merge_with(other)
            .expect("DFA fragment merge: speculation set not closed under transitions")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A miniature JSON-string lexer: state 0 = outside string,
    /// 1 = inside string, 2 = inside string after backslash.
    /// Action 1 = structural comma seen outside a string.
    fn string_lexer() -> ByteDfa {
        let mut b = DfaBuilder::new(3, 0);
        b.transition(0, b'"', 1)
            .action(0, b',', 1)
            .default_transition(1, 1)
            .transition(1, b'"', 0)
            .transition(1, b'\\', 2)
            .default_transition(2, 1);
        b.build()
    }

    fn count_commas_seq(input: &[u8]) -> u64 {
        let dfa = string_lexer();
        let mut n = 0;
        dfa.run(0, input, 0, |_, _| n += 1);
        n
    }

    fn frag(input: &[u8], base: u64) -> DfaFragment<Vec<u64>> {
        let dfa = string_lexer();
        DfaFragment::run_block(
            &dfa,
            &[0, 1, 2],
            input,
            base,
            |tape: &mut Vec<u64>, _a, pos, _b| tape.push(pos),
        )
    }

    /// Reference fragment: independent bytewise runs per start state,
    /// fully realised. `run_block` must be logically equal to this for
    /// every input and every kernel.
    fn reference_frag(input: &[u8], base: u64) -> DfaFragment<Vec<u64>> {
        let dfa = string_lexer();
        DfaFragment::from_entries(
            [0u8, 1, 2]
                .iter()
                .map(|&s| {
                    let mut tape = Vec::new();
                    let fin = dfa.run_bytewise(s, input, base, |_a, p| tape.push(p));
                    (s, fin, tape)
                })
                .collect(),
        )
    }

    #[test]
    fn sequential_lexing_skips_quoted_commas() {
        assert_eq!(count_commas_seq(b"a,b,\"x,y\",c,"), 4);
        assert_eq!(count_commas_seq(b"\"a,b\""), 0);
        assert_eq!(count_commas_seq(br#""esc\",still,string",out,"#), 2);
    }

    #[test]
    fn bulk_scan_matches_bytewise_reference() {
        let dfa = string_lexer();
        for input in [
            &b""[..],
            b"plain text without anything interesting at all........",
            b"a,b,\"x,y\",c,",
            br#""esc\",still,string",out,"#,
            b"\\\\\\\"\"\",,,",
            b"ends with quote\"",
            b"0123456\"78,\\",
        ] {
            for start in 0u8..3 {
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                let ff = dfa.run(start, input, 7, |a, p| fast.push((a, p)));
                let fs = dfa.run_bytewise(start, input, 7, |a, p| slow.push((a, p)));
                assert_eq!(ff, fs, "final state, start={start}, input={input:?}");
                assert_eq!(fast, slow, "tape, start={start}, input={input:?}");
            }
        }
    }

    /// Asserts `run` ≡ `run_bytewise` from every state, and
    /// `run_block` from all states ≡ independent bytewise runs.
    fn assert_runs_like_bytewise(dfa: &ByteDfa, input: &[u8], base: u64) {
        let all: Vec<u8> = (0..dfa.num_states() as u8).collect();
        for &start in &all {
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            let ff = dfa.run(start, input, base, |a, p| fast.push((a, p)));
            let fs = dfa.run_bytewise(start, input, base, |a, p| slow.push((a, p)));
            assert_eq!(ff, fs, "final state, start={start}, input={input:?}");
            assert_eq!(fast, slow, "tape, start={start}, input={input:?}");
        }
        let block = DfaFragment::run_block(
            dfa,
            &all,
            input,
            base,
            |t: &mut Vec<(u8, u64)>, a, p, _b| t.push((a, p)),
        );
        let reference = DfaFragment::from_entries(
            all.iter()
                .map(|&s| {
                    let mut tape = Vec::new();
                    let fin = dfa.run_bytewise(s, input, base, |a, p| tape.push((a, p)));
                    (s, fin, tape)
                })
                .collect(),
        );
        assert_eq!(block, reference, "run_block, input={input:?}");
    }

    #[test]
    fn lane_plan_covers_sparse_states_whose_union_fits_eight_needles() {
        // The string lexer's OUT and STR states union to three needles
        // and are covered; its default-transition escape state steps.
        let dfa = string_lexer();
        assert_eq!(dfa.fused.covered, [true, true, false]);
        // A state with no interesting bytes is covered by an empty
        // union, whose NUL padding hits it drops.
        let sink = DfaBuilder::new(1, 0).build();
        assert_eq!(sink.fused.covered, [true]);
        // 90 interesting bytes: stepped; the empty sink state beside
        // it is still covered.
        let mut wide = DfaBuilder::new(2, 0);
        for b in 0..90u8 {
            wide.transition(0, b, 1);
        }
        let wide = wide.build();
        assert_eq!(wide.fused.covered, [false, true]);
        let mut three = DfaBuilder::new(2, 0);
        three.transitions(0, b"abc", 1);
        let three = three.build();
        assert_eq!(three.fused.covered, [true, true]);
        let mut six = DfaBuilder::new(2, 0);
        six.transitions(0, b"abcdef", 1);
        let six = six.build();
        assert_eq!(six.fused.covered, [true, true]);
        // Two sparse states whose union is ten needles: no plan.
        let mut ten = DfaBuilder::new(2, 0);
        ten.transitions(0, b"abcde", 1).transitions(1, b"fghij", 0);
        let ten = ten.build();
        assert_eq!(ten.fused.covered, [false, false]);

        let mut input = b"a,b\"c\\\"d,e\"fghij,\x00\xff".repeat(5);
        input.extend((0..=255u8).rev());
        for dfa in [&dfa, &sink, &wide, &three, &six, &ten] {
            for cut in [0, 1, 17, 40, input.len()] {
                assert_runs_like_bytewise(dfa, &input[cut..], 5);
            }
        }
    }

    #[test]
    fn flattened_table_step_agrees_with_builder_spec() {
        let dfa = string_lexer();
        assert_eq!(dfa.step(0, b','), (0, 1));
        assert_eq!(dfa.step(0, b'"'), (1, 0));
        assert_eq!(dfa.step(1, b'x'), (1, 0));
        assert_eq!(dfa.step(1, b'\\'), (2, 0));
        assert_eq!(dfa.step(2, b'"'), (1, 0));
        assert_eq!(dfa.num_states(), 3);
        assert_eq!(dfa.start_state(), 0);
    }

    #[test]
    fn fragment_resolves_like_sequential() {
        let input = br#"k,"v,1",x,"#;
        let f = frag(input, 0);
        let (fin, tape) = f.resolve(0).unwrap();
        assert_eq!(fin, 0);
        assert_eq!(tape.len() as u64, count_commas_seq(input));
    }

    #[test]
    fn speculation_covers_in_string_starts() {
        // Block starting mid-string: from state 1 the leading `x",` has
        // its comma counted only after the closing quote.
        let input = b"x\",a,";
        let f = frag(input, 0);
        let (fin0, tape0) = f.resolve(0).unwrap();
        let (fin1, tape1) = f.resolve(1).unwrap();
        assert_eq!(fin0, 1, "from outside: quote opens a string");
        assert_eq!(fin1, 0, "from inside: quote closes the string");
        assert_eq!(tape0.len(), 0, "everything after the quote is in-string");
        assert_eq!(tape1.len(), 2);
    }

    #[test]
    fn merge_positions_are_absolute() {
        let left = b"a,b";
        let right = b",c,";
        let f = frag(left, 0).merge(frag(right, left.len() as u64));
        let (_, tape) = f.resolve(0).unwrap();
        assert_eq!(tape, vec![1, 3, 5]);
    }

    #[test]
    fn identity_merges() {
        let f = frag(b"a,b,", 0);
        let id = DfaFragment::<Vec<u64>>::identity();
        assert_eq!(id.clone().merge(f.clone()), f.clone().merge(id));
    }

    #[test]
    fn into_entries_realises_shared_suffix() {
        let input = b"xx\"shared,part,with,commas";
        let f = frag(input, 0);
        let entries = f.clone().into_entries();
        assert_eq!(entries.len(), 3);
        for (s, f2, tape) in entries {
            let (fin, want) = f.resolve(s).unwrap();
            assert_eq!(f2, fin);
            assert_eq!(tape, want);
        }
    }

    #[test]
    fn convergence_after_unescaped_quote() {
        let f = frag(b"xx\"yy", 0);
        assert!(f.distinct_finishing_states() <= 3);
        // Quote parity keeps states 0 and 1 swapped forever, but the
        // escape state 2 folds into the in-string trajectory after one
        // byte: three speculative runs converge to two.
        let g = frag(b"\"a\" , \"b\"", 0);
        assert_eq!(g.distinct_finishing_states(), 2);
    }

    #[test]
    fn run_block_handles_duplicate_start_states() {
        let dfa = string_lexer();
        let input = b"a,\"b,\"c,";
        let f = DfaFragment::run_block(
            &dfa,
            &[0, 1, 0, 2, 1],
            input,
            0,
            |tape: &mut Vec<u64>, _a, pos, _b| tape.push(pos),
        );
        let entries = f.into_entries();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[2].0, 0);
        assert_eq!(entries[0], entries[2], "aliased starts realise identically");
        for (s, fin, tape) in entries {
            let mut want = Vec::new();
            let wf = dfa.run_bytewise(s, input, 0, |_a, p| want.push(p));
            assert_eq!(fin, wf);
            assert_eq!(tape, want);
        }
    }

    #[test]
    fn vectorised_lockstep_matches_reference_on_unconverging_input() {
        // Quote parity keeps OUT/STR speculation unconverged for the
        // whole block, driving the full-lane lockstep path; mix long
        // silent spans (lane skips) with hit-dense spans.
        let mut input = Vec::new();
        for i in 0..64 {
            input.extend_from_slice(b"plain text with no structure at all............");
            input.extend_from_slice(b"\"k\":1,\"v\":2,,,");
            if i % 7 == 0 {
                input.extend_from_slice(b"\\\"esc\\\\");
            }
        }
        for cut in [0, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, input.len()] {
            let sub = &input[cut..];
            assert_eq!(frag(sub, 3), reference_frag(sub, 3), "offset {cut}");
        }
    }

    /// One SplitMix64 step: the seeded source of the random automata.
    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bytes the random automata and inputs favour.
    const HOT: &[u8; 16] = b"\"\\{}[],:ab\x00\xff \n0x";

    /// A seeded automaton of 2–5 states. Each state has 0, 1–8, 9–96
    /// or more than 96 interesting bytes; the 1–8-byte states draw
    /// from the first 1, 4, 8 or 16 `HOT` bytes, so the union of the
    /// sparse states is empty, within eight needles or past them.
    fn random_dfa(seed: u64) -> ByteDfa {
        let mut r = seed;
        let n = 2 + (splitmix(&mut r) % 4) as usize;
        let pool = &HOT[..[1, 4, 8, 16, 16, 16][(splitmix(&mut r) % 6) as usize]];
        let mut b = DfaBuilder::new(n, 0);
        for s in 0..n as u8 {
            let count = match splitmix(&mut r) % 6 {
                0 => 0,
                1..=3 => 1 + splitmix(&mut r) % 8,
                4 => 9 + splitmix(&mut r) % 88,
                _ => 97 + splitmix(&mut r) % 160,
            };
            // An odd stride visits distinct bytes of the power-of-two
            // pool or byte range, so a state has exactly `count`
            // interesting bytes (fewer when the pool is smaller).
            let (first, stride) = (splitmix(&mut r), splitmix(&mut r) | 1);
            for k in 0..count {
                let at = first.wrapping_add(k.wrapping_mul(stride));
                let byte = if count <= 8 {
                    pool[(at % pool.len() as u64) as usize]
                } else {
                    at as u8
                };
                let to = (splitmix(&mut r) % n as u64) as u8;
                let action = match (splitmix(&mut r) % 4) as u8 {
                    NO_ACTION if to == s => 1,
                    a => a,
                };
                b.transition(s, byte, to).action(s, byte, action);
            }
        }
        b.build()
    }

    /// A seeded input: three bytes in four from `HOT`, the rest any.
    fn random_input(seed: u64, len: usize) -> Vec<u8> {
        let mut r = seed ^ 0x5EED;
        (0..len)
            .map(|_| match splitmix(&mut r) {
                x if x % 4 == 0 => (x >> 8) as u8,
                x => HOT[((x >> 8) % HOT.len() as u64) as usize],
            })
            .collect()
    }

    #[test]
    fn random_automata_cover_every_plan_shape() {
        // Over fixed seeds the generator must produce every kind of
        // plan: an empty covered union, one within eight needles, one
        // past eight (no plan), and automata with covered and stepped
        // states side by side. The plan is checked against its
        // definition, and every automaton runs like the bytewise loop.
        let (mut empty, mut fits, mut over, mut partial) = (0, 0, 0, 0);
        for seed in 0..200u64 {
            let dfa = random_dfa(seed);
            let sparse: Vec<bool> = dfa.interesting.iter().map(|m| popcount(m) <= 8).collect();
            let mut union = [0u64; 4];
            for (m, _) in dfa.interesting.iter().zip(&sparse).filter(|(_, s)| **s) {
                for (acc, w) in union.iter_mut().zip(m) {
                    *acc |= w;
                }
            }
            match popcount(&union) {
                0 => empty += 1,
                1..=8 => fits += 1,
                _ => over += 1,
            }
            if popcount(&union) <= 8 {
                assert_eq!(dfa.fused.covered, sparse, "seed {seed}");
                if sparse.contains(&true) && sparse.contains(&false) {
                    partial += 1;
                }
            } else {
                assert!(!dfa.fused.covered.contains(&true), "seed {seed}");
            }
            let input = random_input(seed, 150);
            assert_runs_like_bytewise(&dfa, &input, seed);
        }
        assert!(
            empty > 0 && fits > 0 && over > 0 && partial > 0,
            "plan shapes: {empty} empty, {fits} fit, {over} over, {partial} partial"
        );
    }

    /// A lexer-shaped automaton: the GeoJSON lexer's OUT/STR/ESC states,
    /// whose OUT and STR sets union to exactly eight needles.
    fn lexer_shaped() -> ByteDfa {
        let mut b = DfaBuilder::new(3, 0);
        b.transition(0, b'"', 1).action(0, b'"', 7);
        for (a, &c) in b"{}[],:".iter().enumerate() {
            b.action(0, c, a as u8 + 1);
        }
        b.transition(1, b'"', 0)
            .action(1, b'"', 8)
            .transition(1, b'\\', 2)
            .default_transition(2, 1);
        b.build()
    }

    /// `run` with the lane loop pinned to masker `m`; uncovered states
    /// step the table as `run` does.
    fn run_with<M: HitMasker>(dfa: &ByteDfa, m: M, mut state: u8, bytes: &[u8]) -> (u8, Vec<u64>) {
        let covered = &dfa.fused.covered;
        let mut tape = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            if covered[state as usize] {
                let mut emit = |_a, p| tape.push(p);
                match dfa.run_fused_masked(m, covered, &mut state, bytes, pos, 0, &mut emit) {
                    Some(p) => pos = p,
                    None => break,
                }
            } else {
                let (next, action) = dfa.step(state, bytes[pos]);
                if action != NO_ACTION {
                    tape.push(pos as u64);
                }
                state = next;
                pos += 1;
            }
        }
        (state, tape)
    }

    /// The bytewise run from `start`: final state and tape positions.
    fn bytewise(dfa: &ByteDfa, start: u8, bytes: &[u8]) -> (u8, Vec<u64>) {
        let mut tape = Vec::new();
        let fin = dfa.run_bytewise(start, bytes, 0, |_a, p| tape.push(p));
        (fin, tape)
    }

    /// Runs both lockstep lane loops pinned to masker `m` from OUT and
    /// STR, and checks each run against the bytewise run over the
    /// bytes the loop consumed before it stopped (convergence, an
    /// uncovered state, or the end of input).
    fn lockstep_with<M: HitMasker>(dfa: &ByteDfa, m: M, bytes: &[u8]) {
        let covered = &dfa.fused.covered;
        let mut push = |t: &mut Vec<u64>, _a, p, _b| t.push(p);
        let run = |state, emitted| Run {
            state,
            tape: Vec::new(),
            emitted,
        };
        // Two silent runs: the general loop, which hands over to the
        // two-run loop once both have emitted.
        let mut runs = vec![run(0, false), run(1, false)];
        let mut alias = vec![0, 1];
        let end = lockstep_fused_masked(
            dfa, m, covered, &mut runs, &mut alias, bytes, 0, 0, &mut push,
        );
        for (start, &j) in [0u8, 1].iter().zip(&alias) {
            let got = (runs[j].state, runs[j].tape.clone());
            assert_eq!(
                got,
                bytewise(dfa, *start, &bytes[..end]),
                "lockstep from {start}"
            );
        }
        // Two runs that have both emitted: the two-run loop directly.
        let (mut r0, mut r1) = (run(0, true), run(1, true));
        let end = lockstep_fused2_masked(dfa, m, covered, &mut r0, &mut r1, bytes, 0, 0, &mut push);
        assert_eq!(
            (r0.state, r0.tape),
            bytewise(dfa, 0, &bytes[..end]),
            "two-run from 0"
        );
        assert_eq!(
            (r1.state, r1.tape),
            bytewise(dfa, 1, &bytes[..end]),
            "two-run from 1"
        );
    }

    #[test]
    fn lane_loops_match_bytewise_on_every_kernel_and_alignment() {
        // SWAR and SSE2 run directly, whatever kernel the probe picks;
        // the dispatched `run` and `run_block` add AVX2 where the host
        // has it.
        let dfa = lexer_shaped();
        assert_eq!(dfa.fused.covered, [true, true, false]);
        assert_eq!(popcount(&union2(&dfa, 0, 1)), 8);
        let plain =
            br#"{"type":"Feature","id":7,"coords":[[1.5,2],[3,4]],"p":{"k":"v, [x]: {y}"}} "#;
        let escaped = br#"{"a":"q\"uo\\te","b":["\u00e9",",:"]} tail text without structure "#;
        for text in [&plain[..], &escaped[..]] {
            let buf = text.repeat(3);
            for off in 0..64 {
                for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
                    let bytes = &buf[off..off + len];
                    let nd = &dfa.fused.needles;
                    for start in 0..3u8 {
                        let want = bytewise(&dfa, start, bytes);
                        let swar = simd::SwarMasker::new(nd);
                        assert_eq!(run_with(&dfa, swar, start, bytes), want, "swar {off}+{len}");
                        #[cfg(target_arch = "x86_64")]
                        {
                            let sse2 = simd::x86::Sse2Masker::new(nd);
                            assert_eq!(
                                run_with(&dfa, sse2, start, bytes),
                                want,
                                "sse2 {off}+{len}"
                            );
                        }
                    }
                    lockstep_with(&dfa, simd::SwarMasker::new(nd), bytes);
                    #[cfg(target_arch = "x86_64")]
                    lockstep_with(&dfa, simd::x86::Sse2Masker::new(nd), bytes);
                    assert_runs_like_bytewise(&dfa, bytes, 0);
                }
            }
        }
    }

    fn arb_input() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(prop::sample::select(b"ab,\"\\ :x".to_vec()), 0..120)
    }

    proptest! {
        #[test]
        fn split_invariance(input in arb_input(), cut in 0usize..120) {
            let cut = cut.min(input.len());
            let (l, r) = input.split_at(cut);
            let merged = frag(l, 0).merge(frag(r, cut as u64));
            let whole = frag(&input, 0);
            prop_assert_eq!(merged, whole);
        }

        #[test]
        fn any_block_count_matches_sequential(input in arb_input(), nblocks in 1usize..8) {
            let chunk = input.len().div_ceil(nblocks).max(1);
            let frags: Vec<_> = input
                .chunks(chunk)
                .enumerate()
                .map(|(i, c)| frag(c, (i * chunk) as u64))
                .collect();
            let merged = crate::merge::merge_tree(frags);
            if merged.is_identity() {
                prop_assert_eq!(count_commas_seq(&input), 0);
            } else {
                let (_, tape) = merged.resolve(0).unwrap();
                prop_assert_eq!(tape.len() as u64, count_commas_seq(&input));
            }
        }

        #[test]
        fn merge_is_associative(a in arb_input(), b in arb_input(), c in arb_input()) {
            let fa = frag(&a, 0);
            let fb = frag(&b, a.len() as u64);
            let fc = frag(&c, (a.len() + b.len()) as u64);
            let left = fa.clone().merge(fb.clone()).merge(fc.clone());
            let right = fa.merge(fb.merge(fc));
            prop_assert_eq!(left, right);
        }

        #[test]
        fn bulk_scan_equals_bytewise_on_random_input(input in arb_input(), start in 0u8..3) {
            let dfa = string_lexer();
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            let ff = dfa.run(start, &input, 0, |a, p| fast.push((a, p)));
            let fs = dfa.run_bytewise(start, &input, 0, |a, p| slow.push((a, p)));
            prop_assert_eq!(ff, fs);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn random_automata_run_like_bytewise(
            seed in 0u64..u64::MAX,
            len in 0usize..300,
            base in 0u64..1000,
        ) {
            assert_runs_like_bytewise(&random_dfa(seed), &random_input(seed, len), base);
        }

        #[test]
        fn run_block_equals_independent_bytewise_runs(input in arb_input(), base in 0u64..1000) {
            prop_assert_eq!(frag(&input, base), reference_frag(&input, base));
        }
    }
}
