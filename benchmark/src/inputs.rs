//! Seeded inputs. The parent process generates a workload's dataset
//! and query plan from `--seed` and hands the child only files: the
//! measured process never holds the generator's memory, so its peak
//! RSS is the workload's alone. The same seed gives the same bytes,
//! the same regions and the same request sequence.

use crate::spec::Workload;
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;
use atgis_server::{MetricMask, Priority, QuerySpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: the benchmark's own PRNG, so the request mix does not
/// depend on any crate under test.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One generated dataset file and the query region that goes with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub path: PathBuf,
    pub format: Format,
    pub objects: usize,
    /// The fixed query region of scans over this dataset: a longitude
    /// stripe holding [`REGION_SHARE`] of its object centroids, so the
    /// predicate's selectivity is the same on every seed.
    pub region: Mbr,
}

impl Input {
    pub fn join_threshold(&self) -> u64 {
        self.objects as u64 / 2
    }
}

/// Everything the child needs besides the dataset bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// The workload's dataset.
    pub input: Input,
    /// Object centroids the serving mix centres its tiles on — tiles
    /// land where the data is, as dashboard traffic does.
    pub anchors: Vec<(f64, f64)>,
    /// Directory the child may write scratch state (snapshots) under.
    pub scratch: PathBuf,
    pub datagen_s: f64,
}

/// City clusters of the generated world, four times the generator's
/// default. How far the clusters happen to overlap decides the join's
/// pair count and the tiles' density; with 12 that alone moved
/// `join_wkt`'s median op between 27 and 39 ms from seed to seed, with
/// 48 the overlaps average out (25–31 ms).
pub const CLUSTERS: usize = 48;
/// Footprint scale of every object. Thinner clusters touch less;
/// doubled footprints bring the pairs per object, and with them the
/// join's share of `join_wkt`'s op, back to the default world's.
pub const OBJECT_SCALE: f64 = 2.0;
pub const REGION_SHARE: f64 = 0.30;
pub const ANCHORS: usize = 64;
pub const HOT_TILES: usize = 16;
/// Half-width of a tile in degrees: 2°×2° ≈ 1 % of the 20°×20° world.
pub const TILE_HALF: f64 = 1.0;

const FORMATS: [(Format, &str); 3] = [
    (Format::GeoJson, "geojson"),
    (Format::Wkt, "wkt"),
    (Format::OsmXml, "osm"),
];

fn tag(format: Format) -> &'static str {
    FORMATS
        .iter()
        .find(|f| f.0 == format)
        .expect("all formats listed")
        .1
}

/// `objects` objects of the seed's world written in `format`.
pub struct Rendered {
    pub bytes: Vec<u8>,
    /// See [`Input::region`].
    pub region: Mbr,
    pub centroids: Vec<(f64, f64)>,
}

pub fn render(seed: u64, objects: usize, format: Format) -> Rendered {
    let mut generator = OsmGenerator::new(seed).with_object_scale(OBJECT_SCALE);
    generator.clusters = CLUSTERS;
    let (lon, lat) = (generator.lon_range, generator.lat_range);
    let dataset = generator.generate(objects);
    let bytes = match format {
        Format::GeoJson => write_geojson(&dataset),
        Format::Wkt => write_wkt(&dataset),
        Format::OsmXml => write_osm_xml(&dataset),
    };
    let centroids: Vec<(f64, f64)> = dataset
        .objects
        .iter()
        .map(|o| {
            let c = o.geometry.mbr().center();
            (c.x, c.y)
        })
        .collect();
    let mut xs: Vec<f64> = centroids.iter().map(|c| c.0).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite centroids"));
    let cut = xs[((xs.len() as f64 * REGION_SHARE) as usize).min(xs.len() - 1)];
    Rendered {
        bytes,
        region: Mbr::new(lon.0 - 2.0, lat.0 - 2.0, cut, lat.1 + 2.0),
        centroids,
    }
}

/// Generates the workload's dataset and its plan under `dir`.
pub fn generate(w: &Workload, seed: u64, smoke: bool, dir: &Path) -> std::io::Result<Plan> {
    let started = Instant::now();
    std::fs::create_dir_all(dir)?;
    let objects = if smoke { w.smoke_objects } else { w.objects };
    let rendered = render(seed, objects, w.format);
    let path = dir.join(format!("{}.{seed}.input.{}", w.name, tag(w.format)));
    std::fs::write(&path, &rendered.bytes)?;
    let mut rng = SplitMix64::new(seed ^ 0xA5C3);
    let anchors = (0..ANCHORS)
        .map(|_| rendered.centroids[rng.below(rendered.centroids.len())])
        .collect();
    Ok(Plan {
        workload: w.name.to_string(),
        seed,
        input: Input {
            path,
            format: w.format,
            objects,
            region: rendered.region,
        },
        anchors,
        scratch: dir.join(format!("{}.{seed}.scratch", w.name)),
        datagen_s: started.elapsed().as_secs_f64(),
    })
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unhex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad float {s}: {e}"))
}

impl Input {
    fn to_line(&self) -> String {
        let r = &self.region;
        format!(
            "{},{},{},{},{},{},{}",
            tag(self.format),
            self.objects,
            hex(r.min_x),
            hex(r.min_y),
            hex(r.max_x),
            hex(r.max_y),
            self.path.display()
        )
    }

    fn from_line(line: &str) -> Result<Input, String> {
        // The path comes last and may itself contain commas.
        let parts: Vec<&str> = line.splitn(7, ',').collect();
        if parts.len() != 7 {
            return Err(format!("malformed input line {line:?}"));
        }
        let format = FORMATS
            .iter()
            .find(|f| f.1 == parts[0])
            .ok_or_else(|| format!("unknown format {:?}", parts[0]))?
            .0;
        Ok(Input {
            path: PathBuf::from(parts[6]),
            format,
            objects: parts[1].parse().map_err(|e| format!("objects: {e}"))?,
            region: Mbr::new(
                unhex(parts[2])?,
                unhex(parts[3])?,
                unhex(parts[4])?,
                unhex(parts[5])?,
            ),
        })
    }
}

impl Plan {
    pub fn path_for(dir: &Path, workload: &str, seed: u64) -> PathBuf {
        dir.join(format!("{workload}.{seed}.plan"))
    }

    /// `key=value` lines; floats as bit-exact hex so a round trip
    /// cannot move a region edge.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let anchors: Vec<String> = self
            .anchors
            .iter()
            .map(|a| format!("{}:{}", hex(a.0), hex(a.1)))
            .collect();
        let text = format!(
            "workload={}\nseed={}\ninput={}\nanchors={}\nscratch={}\ndatagen_s={}\n",
            self.workload,
            self.seed,
            self.input.to_line(),
            anchors.join(","),
            self.scratch.display(),
            hex(self.datagen_s),
        );
        std::fs::write(path, text)
    }

    pub fn read(path: &Path) -> Result<Plan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let get = |key: &'static str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .ok_or_else(|| format!("plan lacks {key}"))
        };
        let anchors = get("anchors")?
            .split(',')
            .map(|pair| {
                let (x, y) = pair.split_once(':').ok_or("anchor needs x:y")?;
                Ok((unhex(x)?, unhex(y)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Plan {
            workload: get("workload")?.to_string(),
            seed: get("seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            input: Input::from_line(get("input")?)?,
            anchors,
            scratch: PathBuf::from(get("scratch")?),
            datagen_s: unhex(get("datagen_s")?)?,
        })
    }
}

/// Which path of the serving stack a request is meant to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixClass {
    /// One of the hot tiles: aggregate-cache and dedup hits.
    Hot,
    /// A never-repeated tile: a (shared) scan.
    Fresh,
    /// A batch-priority join over the warm partition index.
    Join,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: MixClass,
    pub spec: QuerySpec,
    pub priority: Priority,
}

/// The seeded serving mix of one connection: 50 % hot tiles
/// (alternating containment / aggregation), 40 % fresh tiles, 10 %
/// joins over four thresholds at batch priority.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: SplitMix64,
    hot: Vec<Mbr>,
    anchors: Vec<(f64, f64)>,
    joins: [u64; 4],
    drawn: u64,
}

fn tile(centre: (f64, f64)) -> Mbr {
    Mbr::new(
        centre.0 - TILE_HALF,
        centre.1 - TILE_HALF,
        centre.0 + TILE_HALF,
        centre.1 + TILE_HALF,
    )
}

fn tile_query(region: Mbr, aggregate: bool) -> QuerySpec {
    if aggregate {
        QuerySpec::Aggregation {
            region,
            metrics: MetricMask::ALL,
        }
    } else {
        QuerySpec::Containment(region)
    }
}

impl Mix {
    /// The mix of one connection (the dataset's object count sets the
    /// join thresholds).
    pub fn new(plan: &Plan, connection: usize) -> Self {
        let n = plan.input.objects as u64;
        Mix {
            rng: SplitMix64::new(
                plan.seed ^ (connection as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
            ),
            hot: plan
                .anchors
                .iter()
                .take(HOT_TILES)
                .map(|&a| tile(a))
                .collect(),
            anchors: plan.anchors.clone(),
            joins: [n / 2, n / 3, n / 4, 2 * n / 3],
            drawn: 0,
        }
    }

    /// Every distinct request the hot and join classes can produce —
    /// what set-up warms and verification checks against the oracle.
    pub fn fixed_requests(&self) -> Vec<Request> {
        let mut out = Vec::new();
        for &region in &self.hot {
            for aggregate in [false, true] {
                out.push(Request {
                    class: MixClass::Hot,
                    spec: tile_query(region, aggregate),
                    priority: Priority::Interactive,
                });
            }
        }
        for &t in &self.joins {
            out.push(Request {
                class: MixClass::Join,
                spec: QuerySpec::Join(t),
                priority: Priority::Batch,
            });
        }
        out
    }
}

impl Iterator for Mix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let roll = self.rng.below(100);
        let aggregate = self.drawn % 2 == 1;
        self.drawn += 1;
        Some(if roll < 50 {
            let region = self.hot[self.rng.below(self.hot.len())];
            Request {
                class: MixClass::Hot,
                spec: tile_query(region, aggregate),
                priority: Priority::Interactive,
            }
        } else if roll < 90 {
            let anchor = self.anchors[self.rng.below(self.anchors.len())];
            let centre = (
                anchor.0 + (self.rng.next_f64() * 2.0 - 1.0) * TILE_HALF,
                anchor.1 + (self.rng.next_f64() * 2.0 - 1.0) * TILE_HALF,
            );
            Request {
                class: MixClass::Fresh,
                spec: tile_query(tile(centre), aggregate),
                priority: Priority::Interactive,
            }
        } else {
            Request {
                class: MixClass::Join,
                spec: QuerySpec::Join(self.joins[self.rng.below(self.joins.len())]),
                priority: Priority::Batch,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Plan {
        let mut rng = SplitMix64::new(seed);
        Plan {
            workload: "serve_closed".into(),
            seed,
            input: Input {
                path: PathBuf::from("/nonexistent,with,commas"),
                format: Format::GeoJson,
                objects: 1200,
                region: Mbr::new(-12.0, 38.0, -3.25, 62.0),
            },
            anchors: (0..ANCHORS)
                .map(|_| (rng.next_f64() * 20.0 - 10.0, rng.next_f64() * 20.0 + 40.0))
                .collect(),
            scratch: PathBuf::from("/nonexistent.scratch"),
            datagen_s: 0.125,
        }
    }

    #[test]
    fn same_seed_gives_the_identical_request_sequence() {
        let p = plan(2016);
        let a: Vec<Request> = Mix::new(&p, 0).take(2000).collect();
        let b: Vec<Request> = Mix::new(&p, 0).take(2000).collect();
        assert_eq!(a, b);
        let other_conn: Vec<Request> = Mix::new(&p, 1).take(2000).collect();
        assert_ne!(a, other_conn, "connections draw independent streams");
        let other_seed: Vec<Request> = {
            let q = plan(2017);
            Mix::new(&q, 0)
        }
        .take(2000)
        .collect();
        assert_ne!(a, other_seed);
    }

    #[test]
    fn mix_has_the_stated_shares_and_classes() {
        let p = plan(7);
        let reqs: Vec<Request> = Mix::new(&p, 0).take(10_000).collect();
        let share = |c: MixClass| reqs.iter().filter(|r| r.class == c).count() as f64 / 1e4;
        assert!((share(MixClass::Hot) - 0.5).abs() < 0.03);
        assert!((share(MixClass::Fresh) - 0.4).abs() < 0.03);
        assert!((share(MixClass::Join) - 0.1).abs() < 0.02);
        let fixed = Mix::new(&p, 0).fixed_requests();
        assert_eq!(fixed.len(), HOT_TILES * 2 + 4);
        for r in &reqs {
            match r.class {
                MixClass::Hot | MixClass::Join => {
                    assert!(
                        fixed.contains(r),
                        "hot and join requests come from the fixed set"
                    )
                }
                MixClass::Fresh => assert!(!fixed.iter().any(|f| f.spec == r.spec)),
            }
            assert_eq!(r.priority == Priority::Batch, r.class == MixClass::Join);
        }
        // Fresh tiles never repeat.
        let mut fresh: Vec<String> = reqs
            .iter()
            .filter(|r| r.class == MixClass::Fresh)
            .map(|r| format!("{:?}", r.spec))
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
    }

    #[test]
    fn plan_round_trips_bit_exactly() {
        // Under the package's ignored `out/`, never outside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = plan(99);
        let path = Plan::path_for(&dir, &p.workload, p.seed);
        p.write(&path).unwrap();
        assert_eq!(Plan::read(&path).unwrap(), p);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
