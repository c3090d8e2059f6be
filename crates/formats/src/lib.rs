//! Spatial data-format substrate for AT-GIS.
//!
//! AT-GIS executes queries directly over raw files in three formats
//! (§4.4): GeoJSON, WKT and OpenStreetMap XML. Every format splits at
//! its *record marker* ([`Format::record_marker`]): `{"type":"Feature"`
//! for GeoJSON, newlines for WKT and OSM XML. GeoJSON alone offers the
//! two execution modes the paper evaluates ([`Mode`]):
//!
//! * **FAT** (fully-associative transducers): blocks are cut at
//!   arbitrary byte offsets, so the parser state at a block's start is
//!   unknown and resolved associatively (§3.3) — by a speculative
//!   lexer pass that resolves every block's string state and bracket
//!   depth before the block is parsed once ([`geojson::fat`]). No
//!   knowledge of record boundaries is needed.
//! * **PAT** (partially-associative transducers): blocks are cut at
//!   the feature marker, which pins the parser state, and an
//!   optimised, non-speculative block-local parser (our stand-in for
//!   RapidJSON) handles each block (§3.5).
//!
//! WKT needs no such choice: splitting it "is a case of searching for
//! newlines" (§2.2), and a newline always pins the row parser's state.
//! Every path produces the same stream of [`RawFeature`]s tagged with
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
pub mod number;
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

/// A format's record marker: the byte string whose occurrences are the
/// split points of marker-aligned blocks, shards and streamed prefixes
/// (§4.1's "regular expression").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMarker {
    /// The marker bytes.
    pub bytes: &'static [u8],
    /// Bytes from a marker's start to the start of the record it
    /// announces: a GeoJSON feature starts *at* its marker, a WKT row
    /// *after* the newline before it.
    pub skip: usize,
}

impl Format {
    /// The marker that marker-aligned blocks, shards and streamed
    /// prefixes of this format are cut at — the one place each
    /// format's marker is named.
    pub fn record_marker(self) -> RecordMarker {
        match self {
            Format::GeoJson => RecordMarker {
                bytes: geojson::FEATURE_MARKER,
                skip: 0,
            },
            Format::Wkt | Format::OsmXml => RecordMarker {
                bytes: b"\n",
                skip: 1,
            },
        }
    }
}

/// How GeoJSON is split (§5's AT-GIS-FAT vs AT-GIS-PAT). The other
/// formats ignore it: WKT and OSM XML always split at newlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Fully-associative: fixed-offset blocks, each parsed from the
    /// lexer state a speculative pass resolved for it.
    Fat,
    /// Partially-associative: blocks cut at the feature marker, parsed
    /// by the optimised block parser.
    #[default]
    Pat,
}

/// Parses an entire in-memory dataset into features using a handful of
/// logical blocks (sequentially — the parallel executor lives in
/// `atgis-core`). Convenience entry point for tests and examples;
/// `mode` applies to GeoJSON only.
pub fn parse_all(
    input: &[u8],
    format: Format,
    mode: Mode,
    filter: &MetadataFilter,
) -> Result<Vec<RawFeature>, ParseError> {
    match (format, mode) {
        (Format::GeoJson, Mode::Pat) => geojson::parse_pat(input, filter),
        (Format::GeoJson, Mode::Fat) => geojson::parse_fat(input, filter, 4),
        (Format::Wkt, _) => wkt::parse_pat(input, filter),
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
