//! The stateless point parser (§3.3, "Point parser" example).
//!
//! "A point parser is a transducer that takes streams of point offsets
//! and produces a stream of point values. It … isolate\[s\] the
//! structural parsing, performed by finite and pushdown transducers,
//! from handling floating point values. It is stateless as each offset
//! can be parsed into a point value independently."

use crate::ParseError;
use atgis_geometry::Point;

/// Parses an ASCII float from `input[span]`, tolerating surrounding
/// whitespace.
pub fn parse_float(input: &[u8], start: usize, end: usize) -> Result<f64, ParseError> {
    let raw = input
        .get(start..end)
        .ok_or_else(|| ParseError::syntax(start as u64, "float span out of bounds"))?;
    if let Some(v) = crate::number::decimal(raw) {
        return Ok(v);
    }
    let text = std::str::from_utf8(raw)
        .map_err(|_| ParseError::syntax(start as u64, "non-UTF8 float"))?
        .trim();
    text.parse::<f64>()
        .map_err(|e| ParseError::syntax(start as u64, format!("bad float {text:?}: {e}")))
}

/// A `(start, end)` byte span pair addressing the two coordinates of a
/// point in the raw input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointOffsets {
    /// Span of the x (longitude) literal.
    pub x: (usize, usize),
    /// Span of the y (latitude) literal.
    pub y: (usize, usize),
}

/// The stateless point-parsing step: offsets → point value.
pub fn parse_point(input: &[u8], offsets: PointOffsets) -> Result<Point, ParseError> {
    Ok(Point::new(
        parse_float(input, offsets.x.0, offsets.x.1)?,
        parse_float(input, offsets.y.0, offsets.y.1)?,
    ))
}

/// Batch form used by pipelines: maps offset streams to point streams
/// independently per element (hence trivially data-parallel).
pub fn parse_points(input: &[u8], offsets: &[PointOffsets]) -> Result<Vec<Point>, ParseError> {
    offsets.iter().map(|&o| parse_point(input, o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_signed_floats() {
        let input = b"[-0.1278, 51.5074]";
        assert_eq!(parse_float(input, 1, 8).unwrap(), -0.1278);
        assert_eq!(parse_float(input, 9, 17).unwrap(), 51.5074);
    }

    #[test]
    fn parses_exponent_notation() {
        let input = b"1.5e-3,2E2";
        assert_eq!(parse_float(input, 0, 6).unwrap(), 0.0015);
        assert_eq!(parse_float(input, 7, 10).unwrap(), 200.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_float(b"abc", 0, 3).is_err());
        assert!(parse_float(b"1.0", 0, 99).is_err(), "span out of bounds");
        assert!(parse_float(b"", 0, 0).is_err(), "empty span");
    }

    #[test]
    fn point_parsing() {
        let input = b"[1.5, -2.25]";
        let p = parse_point(
            input,
            PointOffsets {
                x: (1, 4),
                y: (5, 11),
            },
        )
        .unwrap();
        assert_eq!(p, Point::new(1.5, -2.25));
    }

    #[test]
    fn batch_is_elementwise() {
        let input = b"1 2 3 4";
        let offs = [
            PointOffsets {
                x: (0, 1),
                y: (2, 3),
            },
            PointOffsets {
                x: (4, 5),
                y: (6, 7),
            },
        ];
        let pts = parse_points(input, &offs).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
    }
}
