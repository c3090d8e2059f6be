//! The column-scan baseline (MonetDB stand-in).
//!
//! "The MonetDB column store does not have a spatial index but instead
//! stores bounding boxes as a separate column. The rationale is that
//! the sequential access pattern of scanning a column offsets the
//! extra computation due to the lack of an index" (§2.3). Queries scan
//! the packed bbox column with multiple threads; the `-B` variant
//! answers from boxes alone, the `-G` variant refines with full
//! geometry ("the lack of spatial optimisations in MonetDB results in
//! it performing the slowest of all systems" for `-G`). The join
//! materialises the whole MBR candidate set before refinement —
//! MonetDB's "requires sufficient memory to hold the product of the
//! joined columns" behaviour.

use crate::{region_is_finite, BaselineAnswer, BaselineQuery};
use atgis_formats::{parse_all, Format, MetadataFilter, Mode, ParseError, RawFeature};
use atgis_geometry::relate::intersects;
use atgis_geometry::{measures, DistanceModel, Geometry, Mbr, Polygon};

/// Whether queries stop at bounding boxes (`-B`) or refine with full
/// geometries (`-G`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refinement {
    /// Bounding boxes only (PostGIS-B / MonetDB-B in Fig. 10).
    BoxOnly,
    /// Full geometry comparison (PostGIS-G / MonetDB-G).
    FullGeometry,
}

/// The loaded column store: a packed MBR column plus the geometry heap.
pub struct ColumnStore {
    boxes: Vec<Mbr>,
    features: Vec<RawFeature>,
    /// Load (parse + columnise) time.
    pub load_time: std::time::Duration,
}

impl ColumnStore {
    /// One parse pass materialising the bbox column.
    pub fn load(input: &[u8], format: Format) -> Result<Self, ParseError> {
        let started = std::time::Instant::now();
        let features = parse_all(input, format, Mode::Pat, &MetadataFilter::All)?;
        let boxes = features.iter().map(|f| f.geometry.mbr()).collect();
        Ok(ColumnStore {
            boxes,
            features,
            load_time: started.elapsed(),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Executes a query by scanning the bbox column with `threads`
    /// workers.
    pub fn execute(
        &self,
        query: &BaselineQuery,
        refinement: Refinement,
        threads: usize,
    ) -> BaselineAnswer {
        match query {
            BaselineQuery::Containment(region) => {
                let hits = self.scan(region, threads);
                let mut ids: Vec<u64> = hits
                    .into_iter()
                    .filter(|&i| {
                        refinement == Refinement::BoxOnly
                            || intersects(
                                &self.features[i].geometry,
                                &Geometry::Polygon(region.clone()),
                            )
                    })
                    .map(|i| self.features[i].id)
                    .collect();
                ids.sort_unstable();
                BaselineAnswer::Matches(ids)
            }
            BaselineQuery::Aggregation(region) => {
                let hits = self.scan(region, threads);
                let mut count = 0;
                let mut area = 0.0;
                let mut perimeter = 0.0;
                for i in hits {
                    let f = &self.features[i];
                    if refinement == Refinement::FullGeometry
                        && !intersects(&f.geometry, &Geometry::Polygon(region.clone()))
                    {
                        continue;
                    }
                    count += 1;
                    area += measures::area(&f.geometry, DistanceModel::Spherical);
                    perimeter += measures::perimeter(&f.geometry, DistanceModel::Spherical);
                }
                BaselineAnswer::Aggregate(count, area, perimeter)
            }
            BaselineQuery::Join(threshold) => {
                // Materialise the full MBR candidate product, then
                // refine — the memory-hungry MonetDB plan.
                let mut candidates: Vec<(usize, usize)> = Vec::new();
                for (i, f) in self.features.iter().enumerate() {
                    if f.id >= *threshold {
                        continue;
                    }
                    for (j, g) in self.features.iter().enumerate() {
                        if g.id < *threshold {
                            continue;
                        }
                        if self.boxes[i].intersects(&self.boxes[j]) {
                            candidates.push((i, j));
                        }
                    }
                }
                let mut pairs: Vec<(u64, u64)> = candidates
                    .into_iter()
                    .filter(|&(i, j)| {
                        refinement == Refinement::BoxOnly
                            || intersects(&self.features[i].geometry, &self.features[j].geometry)
                    })
                    .map(|(i, j)| (self.features[i].id, self.features[j].id))
                    .collect();
                pairs.sort_unstable();
                BaselineAnswer::Pairs(pairs)
            }
        }
    }

    /// Multi-threaded sequential scan of the bbox column for the rows
    /// whose box meets `region`'s; a region that is not finite meets
    /// none.
    fn scan(&self, region: &Polygon, threads: usize) -> Vec<usize> {
        if !region_is_finite(region) {
            return Vec::new();
        }
        let query = &region.mbr();
        let threads = threads.max(1);
        if threads == 1 || self.boxes.len() < 1024 {
            return self
                .boxes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.intersects(query))
                .map(|(i, _)| i)
                .collect();
        }
        let chunk = self.boxes.len().div_ceil(threads);
        let mut out: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .boxes
                .chunks(chunk)
                .enumerate()
                .map(|(k, part)| {
                    scope.spawn(move || {
                        part.iter()
                            .enumerate()
                            .filter(|(_, b)| b.intersects(query))
                            .map(|(i, _)| k * chunk + i)
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            out = handles
                .into_iter()
                .map(|h| h.join().expect("scan thread panicked"))
                .collect();
        });
        out.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use atgis_datagen::{write_geojson, OsmGenerator};

    fn fixture() -> Vec<u8> {
        write_geojson(&OsmGenerator::new(31).generate(50))
    }

    #[test]
    fn full_geometry_agrees_with_sequential() {
        let bytes = fixture();
        let store = ColumnStore::load(&bytes, Format::GeoJson).unwrap();
        let q = BaselineQuery::containment(Mbr::new(-5.0, 45.0, 5.0, 55.0));
        let a = store.execute(&q, Refinement::FullGeometry, 2);
        let b = sequential::execute(&bytes, Format::GeoJson, &q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn box_only_is_a_superset() {
        let bytes = fixture();
        let store = ColumnStore::load(&bytes, Format::GeoJson).unwrap();
        let q = BaselineQuery::containment(Mbr::new(-5.0, 45.0, 5.0, 55.0));
        let full = match store.execute(&q, Refinement::FullGeometry, 1) {
            BaselineAnswer::Matches(m) => m,
            other => panic!("{other:?}"),
        };
        let boxes = match store.execute(&q, Refinement::BoxOnly, 1) {
            BaselineAnswer::Matches(m) => m,
            other => panic!("{other:?}"),
        };
        for id in &full {
            assert!(boxes.contains(id), "box filter must not lose matches");
        }
        assert!(boxes.len() >= full.len());
    }

    #[test]
    fn join_agrees_with_sequential() {
        let bytes = fixture();
        let store = ColumnStore::load(&bytes, Format::GeoJson).unwrap();
        let q = BaselineQuery::Join(25);
        let a = store.execute(&q, Refinement::FullGeometry, 1);
        let b = sequential::execute(&bytes, Format::GeoJson, &q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_counts_agree() {
        let bytes = write_geojson(&OsmGenerator::new(32).generate(2000));
        let store = ColumnStore::load(&bytes, Format::GeoJson).unwrap();
        let q = BaselineQuery::containment(Mbr::new(-5.0, 45.0, 5.0, 55.0));
        let one = store.execute(&q, Refinement::BoxOnly, 1);
        let four = store.execute(&q, Refinement::BoxOnly, 4);
        assert_eq!(one, four);
    }
}
