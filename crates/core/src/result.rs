//! Query results and match records.

use atgis_geometry::Mbr;

/// One geometry selected by a containment query. Carries the byte
/// offset (the object's unique identity per §4.2) so callers can
/// re-parse the full geometry on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchRecord {
    /// Source object id.
    pub id: u64,
    /// Byte offset of the object in the raw input.
    pub offset: u64,
    /// Byte length of the object.
    pub len: u32,
    /// The object's bounding box.
    pub mbr: Mbr,
}

/// One joined pair, identified by the two objects' ids and offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinPair {
    /// Left object id (id < threshold subset).
    pub left_id: u64,
    /// Right object id.
    pub right_id: u64,
    /// Left object byte offset.
    pub left_offset: u64,
    /// Right object byte offset.
    pub right_offset: u64,
}

/// Aggregated numeric results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregateValues {
    /// Number of selected geometries.
    pub count: u64,
    /// Total area (m² under spherical models, coordinate² under
    /// planar).
    pub total_area: f64,
    /// Total perimeter (m under spherical models).
    pub total_perimeter: f64,
}

/// Why one query of a fault-isolated batch failed while its batch
/// mates kept running. Unlike [`crate::Error`] this is `Clone` +
/// `PartialEq`: a deduplicated predicate's failure fans out to every
/// submitter exactly like a success would, and tests compare failure
/// shapes structurally.
///
/// The failure **domain** is the point: a `Panicked` sink takes down
/// only its own query (the pool, the session and the shared caches
/// all survive), and `Cancelled`/`DeadlineExceeded` report
/// cooperative early exit via a [`crate::cancel::CancelToken`], not a
/// fault in the engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryError {
    /// The query's [`crate::cancel::CancelToken`] was cancelled.
    Cancelled,
    /// The query's [`crate::cancel::CancelToken`] deadline elapsed.
    DeadlineExceeded,
    /// The query's own sink (or a task working solely for it)
    /// panicked; the payload is the panic message.
    Panicked(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QueryError::Panicked(m) => write!(f, "query task panicked: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One query's outcome in a fault-isolated batch (`*_isolated` entry
/// points): the result, or the query-attributable failure that took
/// down only this member.
pub type QueryOutcome = std::result::Result<QueryResult, QueryError>;

/// The result of executing a [`crate::Query`]. `PartialEq` compares
/// results exactly (including float aggregates bit-for-bit) — the
/// contract the batch layer is held to: a batch `run(qs)` must equal
/// running each query alone, member-wise.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Containment query output.
    Matches(Vec<MatchRecord>),
    /// Aggregation query output.
    Aggregate(AggregateValues),
    /// Join query output.
    Joined(Vec<JoinPair>),
    /// Combined query output: joined pair count plus the union-area
    /// aggregate.
    Combined {
        /// Number of joined pairs that passed all filters.
        pairs: u64,
        /// Total `ST_Area(ST_Union(d1, d2))` over the pairs.
        total_union_area: f64,
    },
}

impl QueryResult {
    /// The matches of a containment query; empty for other variants.
    pub fn matches(&self) -> &[MatchRecord] {
        match self {
            QueryResult::Matches(m) => m,
            _ => &[],
        }
    }

    /// The aggregate of an aggregation query.
    pub fn aggregate(&self) -> Option<AggregateValues> {
        match self {
            QueryResult::Aggregate(a) => Some(*a),
            _ => None,
        }
    }

    /// The joined pairs of a join query; empty for other variants.
    pub fn joined(&self) -> &[JoinPair] {
        match self {
            QueryResult::Joined(p) => p,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_select_the_right_variant() {
        let m = QueryResult::Matches(vec![MatchRecord {
            id: 1,
            offset: 0,
            len: 10,
            mbr: Mbr::new(0.0, 0.0, 1.0, 1.0),
        }]);
        assert_eq!(m.matches().len(), 1);
        assert!(m.aggregate().is_none());
        assert!(m.joined().is_empty());

        let a = QueryResult::Aggregate(AggregateValues {
            count: 2,
            total_area: 1.0,
            total_perimeter: 4.0,
        });
        assert_eq!(a.aggregate().unwrap().count, 2);
        assert!(a.matches().is_empty());
    }
}
