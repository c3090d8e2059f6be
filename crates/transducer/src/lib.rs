//! Associative transducers (ATs) — the computational model of AT-GIS.
//!
//! A deterministic transducer executes as a left fold: state and output
//! tape advance one input symbol at a time, which is inherently
//! sequential. §3.1 of the paper lifts this to an *associative* model:
//! instead of a single state, a **fragment** carries a state-mapping
//! relation (every possible starting state → its finishing state) plus
//! output tapes *predicated* on the starting state. Fragments for
//! arbitrary input blocks can be built independently (speculatively)
//! and merged with an associative ⊗ operator, so a pipeline of
//! transducers runs data-parallel over blocks of raw input.
//!
//! The crate provides:
//!
//! * [`classic`] — a direct, textbook implementation of §3.1's formal
//!   model (relation + predicated tapes), used for tests and as
//!   executable documentation of the paper's matching/counting
//!   examples;
//! * [`dfa`] — table-driven byte-level deterministic finite transducers
//!   and their speculative fragments, used for lexing (§3.3 "finite
//!   transducers"). The transition+action tables are flattened into a
//!   single `state × byte → u16` array, and one scan plan computed at
//!   build time covers every state whose interesting bytes fit the
//!   eight union needles of a SIMD lane loop, so covered runs skip
//!   uninteresting bytes a lane at a time; every other state steps
//!   the table byte by byte. Fragments store one **shared** tape for the
//!   converged suffix plus small per-start prefixes, and merges move
//!   tapes instead of cloning them;
//! * [`dyck`] — the associative form of *pushdown* structural parsing:
//!   blocks summarise their bracket-depth effect `(min, net)` and tag
//!   emitted events with block-relative depths that are rebased on
//!   merge (§3.3 "pushdown transducers");
//! * [`stateless`] — stateless transducers (map/filter, §3.3);
//! * [`aggregation`] — aggregation transducers over associative
//!   reduction functions (§3.3);
//! * [`flushing`] — periodically flushing transducers with the
//!   speculative/main state pair of Fig. 4 (§3.3);
//! * [`merge`] — the [`merge::Mergeable`] trait every fragment
//!   implements, plus blanket impls for tuples, vectors and numbers;
//! * [`scan`] — the shared byte-scanning primitives (`memchr`/
//!   `memchr2`, lexeme span classes, and the zero-byte-detect masks)
//!   that the `atgis-formats` scanners and the DFA lane loop's SWAR
//!   masker build on;
//! * [`simd`] — the runtime-dispatched explicit SIMD kernels behind
//!   [`scan`] (SSE2 baseline + AVX2 behind a cached
//!   `is_x86_feature_detected!` probe, SWAR as the portable fallback,
//!   `ATGIS_NO_SIMD=1` forcing the fallback for differential testing).
//!
//! The defining invariant, property-tested throughout, is
//! **split-invariance**: for any input `s` and any split `s = s₁ ‖ s₂`,
//! `fragment(s₁) ⊗ fragment(s₂) = fragment(s)`, and ⊗ is associative,
//! so any parenthesisation of block merges yields the sequential
//! result.
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as layer 1 of the four-layer design (transducer → formats → core scan/merge → batch/stream/scheduler),
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregation;
pub mod classic;
pub mod dfa;
pub mod dyck;
pub mod flushing;
pub mod merge;
pub mod scan;
pub mod simd;
pub mod stateless;

pub use aggregation::AggregationTransducer;
pub use classic::{ClassicFragment, Transducer};
pub use dfa::{ByteDfa, DfaBuilder, DfaFragment};
pub use dyck::{DepthEvent, DyckFragment};
pub use flushing::{FlushAggregate, PftFragment};
pub use merge::Mergeable;
pub use stateless::StatelessTransducer;
