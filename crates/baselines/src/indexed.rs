//! The indexed-RDBMS baseline (PostGIS / DBMS-X stand-in).
//!
//! "RDBMS can only offer fast spatial query processing after the data
//! has been fully parsed, loaded and indexed — in our experiments,
//! loading the complete OpenStreetMap dataset into PostGIS takes over
//! 90 minutes, with an additional 75 minutes to construct the index"
//! (§1). This baseline makes that cost explicit: [`IndexedStore::load`]
//! parses everything and materialises geometries, [`IndexedStore::
//! build_index`] STR-bulk-loads an R-tree over the bounding boxes, and
//! only then are queries cheap. `data_to_query` = load + index +
//! first-query, the metric AT-GIS optimises.

use crate::{region_is_finite, BaselineAnswer, BaselineQuery};
use atgis_formats::{parse_all, Format, MetadataFilter, Mode, ParseError, RawFeature};
use atgis_geometry::relate::intersects;
use atgis_geometry::{measures, DistanceModel, Geometry, Polygon};
use atgis_rtree::RTree;
use std::time::{Duration, Instant};

/// A loaded, indexed spatial store.
pub struct IndexedStore {
    features: Vec<RawFeature>,
    index: Option<RTree>,
    /// Wall-clock cost of the load phase.
    pub load_time: Duration,
    /// Wall-clock cost of the index build.
    pub index_time: Duration,
}

impl IndexedStore {
    /// The load phase: full parse + materialisation.
    pub fn load(input: &[u8], format: Format) -> Result<Self, ParseError> {
        let started = Instant::now();
        let features = parse_all(input, format, Mode::Pat, &MetadataFilter::All)?;
        Ok(IndexedStore {
            features,
            index: None,
            load_time: started.elapsed(),
            index_time: Duration::ZERO,
        })
    }

    /// The index phase: STR bulk load over feature MBRs.
    pub fn build_index(&mut self) {
        let started = Instant::now();
        let items: Vec<_> = self
            .features
            .iter()
            .enumerate()
            .map(|(i, f)| (f.geometry.mbr(), i as u64))
            .collect();
        self.index = Some(RTree::bulk_load(items));
        self.index_time = started.elapsed();
    }

    /// Total data-to-query overhead paid before the first answer.
    pub fn data_to_query_overhead(&self) -> Duration {
        self.load_time + self.index_time
    }

    /// Number of loaded features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when nothing is loaded.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The indexed rows whose box meets `region`'s; a region that is
    /// not finite meets none.
    fn probe(index: &RTree, region: &Polygon) -> Vec<u64> {
        if region_is_finite(region) {
            index.query(&region.mbr())
        } else {
            Vec::new()
        }
    }

    /// Executes a query using the index (which must have been built).
    pub fn execute(&self, query: &BaselineQuery) -> BaselineAnswer {
        let index = self.index.as_ref().expect("index not built");
        match query {
            BaselineQuery::Containment(region) => {
                let mut ids: Vec<u64> = Self::probe(index, region)
                    .into_iter()
                    .map(|i| &self.features[i as usize])
                    .filter(|f| intersects(&f.geometry, &Geometry::Polygon(region.clone())))
                    .map(|f| f.id)
                    .collect();
                ids.sort_unstable();
                BaselineAnswer::Matches(ids)
            }
            BaselineQuery::Aggregation(region) => {
                let mut count = 0;
                let mut area = 0.0;
                let mut perimeter = 0.0;
                for i in Self::probe(index, region) {
                    let f = &self.features[i as usize];
                    if intersects(&f.geometry, &Geometry::Polygon(region.clone())) {
                        count += 1;
                        area += measures::area(&f.geometry, DistanceModel::Spherical);
                        perimeter += measures::perimeter(&f.geometry, DistanceModel::Spherical);
                    }
                }
                BaselineAnswer::Aggregate(count, area, perimeter)
            }
            BaselineQuery::Join(threshold) => {
                // Index-nested-loop join: probe the R-tree with each
                // left geometry's box.
                let mut pairs = Vec::new();
                for f in self.features.iter().filter(|f| f.id < *threshold) {
                    for i in index.query(&f.geometry.mbr()) {
                        let g = &self.features[i as usize];
                        if g.id >= *threshold && intersects(&f.geometry, &g.geometry) {
                            pairs.push((f.id, g.id));
                        }
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                BaselineAnswer::Pairs(pairs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use atgis_datagen::{write_geojson, OsmGenerator};
    use atgis_geometry::Mbr;

    fn fixture() -> Vec<u8> {
        write_geojson(&OsmGenerator::new(30).generate(60))
    }

    #[test]
    fn indexed_agrees_with_sequential() {
        let bytes = fixture();
        let mut store = IndexedStore::load(&bytes, Format::GeoJson).unwrap();
        store.build_index();
        for query in [
            BaselineQuery::containment(Mbr::new(-5.0, 45.0, 5.0, 55.0)),
            BaselineQuery::Join(30),
        ] {
            let a = store.execute(&query);
            let b = sequential::execute(&bytes, Format::GeoJson, &query).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn aggregation_agrees_with_sequential() {
        let bytes = fixture();
        let mut store = IndexedStore::load(&bytes, Format::GeoJson).unwrap();
        store.build_index();
        let q = BaselineQuery::aggregation(Mbr::new(-10.0, 40.0, 10.0, 60.0));
        let (a, b) = (
            store.execute(&q),
            sequential::execute(&bytes, Format::GeoJson, &q).unwrap(),
        );
        match (a, b) {
            (BaselineAnswer::Aggregate(c1, a1, p1), BaselineAnswer::Aggregate(c2, a2, p2)) => {
                assert_eq!(c1, c2);
                assert!((a1 - a2).abs() < 1e-6);
                assert!((p1 - p2).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_and_index_phases_are_timed() {
        let bytes = fixture();
        let mut store = IndexedStore::load(&bytes, Format::GeoJson).unwrap();
        assert!(store.load_time > Duration::ZERO);
        store.build_index();
        assert_eq!(store.len(), 60);
        assert!(store.data_to_query_overhead() >= store.load_time);
    }
}
