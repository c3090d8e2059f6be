//! Spatial data-format substrate for AT-GIS.
//!
//! AT-GIS executes queries directly over raw files in three formats
//! (§4.4): GeoJSON, WKT and OpenStreetMap XML. This crate implements,
//! for each format, both execution modes the paper evaluates:
//!
//! * **FAT** (fully-associative transducers): blocks are cut at
//!   arbitrary byte offsets, so the parser state at a block's start is
//!   unknown and resolved associatively (§3.3) — for GeoJSON by a
//!   speculative lexer pass that resolves every block's string state
//!   and bracket depth before the block is parsed once
//!   ([`geojson::fat`]). No knowledge of record boundaries is needed.
//! * **PAT** (partially-associative transducers): blocks are cut at
//!   *markers* that pin the parser state — `{"type":"Feature"` for
//!   GeoJSON, newlines for WKT, element starts for OSM XML — and an
//!   optimised, non-speculative block-local parser (our stand-in for
//!   RapidJSON) handles each block (§3.5).
//!
//! Both modes produce the same stream of [`RawFeature`]s tagged with
//! their byte offsets, which downstream pipelines use for
//! identification and join-time re-parsing (§4.2).
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as layer 2 of the four-layer design (transducer → formats → core scan/merge → batch/stream/scheduler),
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod feature;
pub mod geojson;
pub mod osmxml;
pub mod pathquery;
pub mod points;
pub mod split;
pub mod wkt;

pub use feature::{MetadataFilter, RawFeature};
pub use pathquery::{PathOp, PathQuery, PathValue};
pub use split::{fixed_blocks, marker_blocks, Block};

/// The input formats AT-GIS queries directly (Table 2's dataset
/// flavours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// GeoJSON feature collections (OSM-G).
    GeoJson,
    /// Tab-separated WKT rows (OSM-W).
    Wkt,
    /// OpenStreetMap XML (OSM-X).
    OsmXml,
}

/// Parsing execution mode (§5's AT-GIS-FAT vs AT-GIS-PAT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Fully-associative: speculative parsing from arbitrary splits.
    Fat,
    /// Partially-associative: marker-based splits, optimised block
    /// parser.
    #[default]
    Pat,
    /// Pick per dataset: PAT when record markers are dense enough to
    /// split cheaply, FAT otherwise — the hybrid §5.5 proposes ("the
    /// best of both approaches could be attained by instrumenting the
    /// splitting component … to fall back to a fully-associative
    /// pipeline").
    Adaptive,
}

/// Decides between PAT and FAT for `Mode::Adaptive` by sampling marker
/// density in the input prefix: with fewer markers than `want_blocks`,
/// marker-aligned splitting cannot produce enough parallelism (the
/// Fig. 14 failure mode) and FAT wins.
pub fn resolve_adaptive(input: &[u8], marker: &[u8], want_blocks: usize) -> Mode {
    const SAMPLE: usize = 1 << 20;
    let sample = &input[..input.len().min(SAMPLE)];
    let mut count = 0usize;
    let mut pos = 0usize;
    while let Some(at) = split::find_marker(sample, marker, pos) {
        count += 1;
        pos = at + 1;
        if count >= want_blocks * 4 {
            return Mode::Pat; // Plenty of split points.
        }
    }
    // Extrapolate the sampled density to the full input.
    let scale = (input.len().max(1) as f64 / sample.len().max(1) as f64).max(1.0);
    if (count as f64 * scale) as usize >= want_blocks * 4 {
        Mode::Pat
    } else {
        Mode::Fat
    }
}

/// Parses an entire in-memory dataset into features using a handful of
/// logical blocks (sequentially — the parallel executor lives in
/// `atgis-core`). Convenience entry point for tests and examples.
pub fn parse_all(
    input: &[u8],
    format: Format,
    mode: Mode,
    filter: &MetadataFilter,
) -> Result<Vec<RawFeature>, ParseError> {
    let mode = match mode {
        Mode::Adaptive => {
            let marker: &[u8] = match format {
                Format::GeoJson => geojson::FEATURE_MARKER,
                _ => b"\n",
            };
            resolve_adaptive(input, marker, 4)
        }
        m => m,
    };
    match (format, mode) {
        (Format::GeoJson, Mode::Pat) => geojson::parse_pat(input, filter),
        (Format::GeoJson, _) => geojson::parse_fat(input, filter, 4),
        (Format::Wkt, Mode::Pat) => wkt::parse_pat(input, filter),
        (Format::Wkt, _) => wkt::parse_fat(input, filter, 4),
        (Format::OsmXml, _) => osmxml::parse(input, filter),
    }
}

/// Errors surfaced while parsing raw spatial data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input violated the format's grammar at the given byte
    /// offset.
    Syntax {
        /// Byte offset of the offending input.
        offset: u64,
        /// Human-readable description.
        message: String,
    },
    /// A fragment merge discovered that speculative parsing had
    /// desynchronised (e.g. a split marker appeared inside free-form
    /// metadata, §3.5).
    Desync {
        /// Byte offset of the suspect block.
        offset: u64,
    },
}

impl ParseError {
    /// Shorthand constructor for syntax errors.
    pub fn syntax(offset: u64, message: impl Into<String>) -> Self {
        ParseError::Syntax {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { offset, message } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            ParseError::Desync { offset } => {
                write!(f, "speculative parse desynchronised near byte {offset}")
            }
        }
    }
}

impl std::error::Error for ParseError {}
