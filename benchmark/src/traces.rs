//! Builds the input traces from a seed, with integrity guards, and
//! describes them in a manifest so that two runs can be shown to have
//! seen identical inputs.
//!
//! Four files, streamed to disk record by record (never a whole trace in
//! memory):
//!
//! * `campus.pcap` — the campus study's Zoom traffic, 60 s;
//! * `tap0.pcap`, `tap1.pcap` — `campus.pcap` split by canonical
//!   5-tuple, so a flow stays on one tap;
//! * `border.pcap` — a campus border link: Zoom traffic under several
//!   times its volume of web, DNS and bulk background.
//!
//! **What the seed varies.** The meeting population (how many meetings,
//! their sizes, media mixes and schedules) is drawn once, from
//! [`POPULATION_SEED`]; `--seed` reseeds every meeting's packet process
//! (frame sizes, talk spurts, jitter, loss, retransmissions) and the
//! background generator. Drawing the population from `--seed` too makes
//! the record count swing by ±20 % between seeds (a 20-party meeting
//! arriving or not), which moves memory and fixed costs by more than any
//! bound below could tell from a regression; with the population pinned
//! the record count moves by about a percent and every seed still gives
//! the program bytes it has not seen.

use crate::json::Json;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{self, BufWriter};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use zoom_sim::campus::CampusScenario;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect;
use zoom_wire::pcap::{LinkType, Record, Writer};

/// Seed of the pinned meeting population (see the module docs).
pub const POPULATION_SEED: u64 = 7;

/// Every trace is 60 s long: the campus generator draws arrivals per
/// whole minute (anything shorter yields no meetings at all), and 60 s
/// gives `stream-windowed` about 60 one-second windows.
pub const TRACE_SECONDS: u64 = 60;

/// Sizes of one trace set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub name: &'static str,
    /// `scenario::campus_study` load scale of `campus.pcap`.
    pub campus_scale: f64,
    /// Load scale of `border.pcap`'s Zoom part.
    pub border_scale: f64,
    /// Background packets per nominal Zoom packet in `border.pcap`.
    pub border_background_ratio: f64,
    /// Free space the data directory must have before anything is
    /// written: about twice the most a run was seen to hold at once
    /// (the four traces, a pass's spools or filter output, the traced
    /// run's probe copies).
    pub min_free_bytes: u64,
}

/// The standard set: sized so that one pass takes a few hundred
/// milliseconds and a ten-second run holds a few dozen passes. A traced
/// run peaks at 1.05 GiB on disk.
pub const STANDARD: Shape = Shape {
    name: "standard",
    campus_scale: 3.0,
    border_scale: 1.0,
    border_background_ratio: 0.25,
    min_free_bytes: 2 << 30,
};

/// The same four shapes at a size a CI smoke run can afford (0.27 GiB
/// on disk at most).
pub const SMOKE: Shape = Shape {
    name: "smoke",
    campus_scale: 1.0,
    border_scale: 0.5,
    border_background_ratio: 0.125,
    min_free_bytes: 512 << 20,
};

pub const CAMPUS: &str = "campus.pcap";
pub const TAPS: [&str; 2] = ["tap0.pcap", "tap1.pcap"];
pub const BORDER: &str = "border.pcap";

/// Which files a build should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Needs {
    pub campus: bool,
    pub taps: bool,
    pub border: bool,
}

impl Needs {
    pub const ALL: Needs = Needs {
        campus: true,
        taps: true,
        border: true,
    };
}

/// FNV-1a, 64-bit. Used for the manifest checksums and for the tap
/// split, both of which must not change between runs or builds (the
/// standard library's default hasher is randomly keyed).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds in a whole 64-bit word per multiply: the checksums cover
    /// hundreds of megabytes inside the set-up time the benchmark
    /// reports, and the byte-at-a-time form costs a second per gigabyte.
    fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_word(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        for &b in chunks.remainder() {
            self.write_word(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One trace file as the manifest describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    pub name: String,
    pub records: u64,
    pub bytes: u64,
    /// FNV-1a over every record's timestamp, original length and bytes.
    pub checksum: u64,
    /// Records that belong to Zoom meetings — known by construction, not
    /// by asking the filter. Only `border.pcap` has other traffic.
    pub zoom_records: u64,
    /// Timestamps of the first and the last record, nanoseconds.
    pub first_ts: u64,
    pub last_ts: u64,
}

/// The `traces.json` manifest: what was generated, from what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    pub seed: u64,
    pub shape: String,
    pub files: Vec<TraceFile>,
}

impl Manifest {
    pub fn file(&self, name: &str) -> &TraceFile {
        self.files
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("trace {name} was not built for this run"))
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("population_seed", Json::Num(POPULATION_SEED as f64)),
            ("shape", Json::str(&self.shape)),
            (
                "files",
                Json::Arr(
                    self.files
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("name", Json::str(&f.name)),
                                ("records", Json::Num(f.records as f64)),
                                ("bytes", Json::Num(f.bytes as f64)),
                                // Hex: a 64-bit value does not fit a JSON number.
                                ("fnv1a64", Json::Str(format!("{:016x}", f.checksum))),
                                ("zoom_records", Json::Num(f.zoom_records as f64)),
                                ("first_ts_nanos", Json::Num(f.first_ts as f64)),
                                ("last_ts_nanos", Json::Num(f.last_ts as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Manifest> {
        Some(Manifest {
            seed: v.get("seed")?.as_u64()?,
            shape: v.get("shape")?.as_str()?.to_string(),
            files: v
                .get("files")?
                .as_arr()?
                .iter()
                .map(|f| {
                    Some(TraceFile {
                        name: f.get("name")?.as_str()?.to_string(),
                        records: f.get("records")?.as_u64()?,
                        bytes: f.get("bytes")?.as_u64()?,
                        checksum: u64::from_str_radix(f.get("fnv1a64")?.as_str()?, 16).ok()?,
                        zoom_records: f.get("zoom_records")?.as_u64()?,
                        first_ts: f.get("first_ts_nanos")?.as_u64()?,
                        last_ts: f.get("last_ts_nanos")?.as_u64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// SplitMix64 finalizer: decorrelates `seed` and `salt` into one value.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pinned population at `scale`, its packet processes reseeded.
fn population(seed: u64, scale: f64, background_ratio: f64) -> CampusScenario {
    let (mut scenario, _infra) = scenario::campus_study(
        POPULATION_SEED,
        TRACE_SECONDS * SEC,
        scale,
        background_ratio,
    );
    for m in &mut scenario.meetings {
        m.seed = mix(seed, u64::from(m.id));
    }
    // The background generator seeds itself from the config.
    scenario.config.seed = seed;
    scenario
}

/// A pcap writer that keeps the manifest's counts and checksum.
struct TraceWriter {
    name: &'static str,
    writer: Writer<BufWriter<File>>,
    records: u64,
    zoom_records: u64,
    first_ts: u64,
    last_ts: u64,
    hash: Fnv64,
}

impl TraceWriter {
    fn create(dir: &Path, name: &'static str) -> io::Result<TraceWriter> {
        let file = File::create(dir.join(name))?;
        Ok(TraceWriter {
            name,
            writer: Writer::new(BufWriter::with_capacity(1 << 20, file), LinkType::Ethernet)?,
            records: 0,
            zoom_records: 0,
            first_ts: 0,
            last_ts: 0,
            hash: Fnv64::default(),
        })
    }

    fn write(&mut self, record: &Record, zoom: bool) -> io::Result<()> {
        self.writer.write_record(record)?;
        if self.records == 0 {
            self.first_ts = record.ts_nanos;
        }
        self.last_ts = record.ts_nanos;
        self.records += 1;
        self.zoom_records += u64::from(zoom);
        self.hash.write_word(record.ts_nanos);
        self.hash.write_word(u64::from(record.orig_len));
        self.hash.write(&record.data);
        Ok(())
    }

    fn finish(self, dir: &Path) -> Result<TraceFile, String> {
        // Flush explicitly (dropping a BufWriter loses its error) and wait
        // for the disk: left to itself the kernel writes these hundreds of
        // megabytes back during the timed passes, taking a core and the
        // block device with it, and pass times swing by a quarter.
        self.writer
            .finish()
            .and_then(|w| w.into_inner().map_err(io::IntoInnerError::into_error))
            .and_then(|file| file.sync_all())
            .map_err(|e| format!("{}: {e}", self.name))?;
        // The guard the campus generator needs: a duration under a
        // minute yields an empty, perfectly valid pcap.
        if self.records == 0 {
            return Err(format!("{}: generated trace is empty", self.name));
        }
        let bytes = std::fs::metadata(dir.join(self.name))
            .map_err(|e| format!("{}: {e}", self.name))?
            .len();
        Ok(TraceFile {
            name: self.name.to_string(),
            records: self.records,
            bytes,
            checksum: self.hash.finish(),
            zoom_records: self.zoom_records,
            first_ts: self.first_ts,
            last_ts: self.last_ts,
        })
    }
}

/// The tap a record belongs to: both directions of a flow hash alike.
/// Records without a parsable 5-tuple stay on tap 0.
fn tap_of(record: &Record) -> usize {
    match dissect::peek(&record.data, LinkType::Ethernet) {
        Ok(p) => {
            let mut h = Fnv64::default();
            p.five_tuple().canonical().hash(&mut h);
            // FNV's low bit is only the parity of the input's low bits.
            (h.finish() >> 32) as usize & 1
        }
        Err(_) => 0,
    }
}

fn write_campus(
    dir: &Path,
    seed: u64,
    shape: &Shape,
    taps: bool,
) -> Result<Vec<TraceFile>, String> {
    let io_err = |e: io::Error| format!("writing campus traces: {e}");
    let mut campus = TraceWriter::create(dir, CAMPUS).map_err(io_err)?;
    let mut tap_writers = if taps {
        vec![
            TraceWriter::create(dir, TAPS[0]).map_err(io_err)?,
            TraceWriter::create(dir, TAPS[1]).map_err(io_err)?,
        ]
    } else {
        Vec::new()
    };
    for record in population(seed, shape.campus_scale, 0.0).into_stream() {
        campus.write(&record, true).map_err(io_err)?;
        if taps {
            tap_writers[tap_of(&record)]
                .write(&record, true)
                .map_err(io_err)?;
        }
    }
    let mut files = vec![campus.finish(dir)?];
    for w in tap_writers {
        files.push(w.finish(dir)?);
    }
    Ok(files)
}

/// The CLI's capture filter ships only `zoom_nets::sample_list()`, which
/// covers 170.114.0.0/16 but not the simulated infrastructure's other
/// blocks, so every meeting's servers move into that /16 (their low 16
/// bits kept, so distinct servers stay distinct).
fn into_sample_list(ip: Ipv4Addr) -> Ipv4Addr {
    let o = ip.octets();
    Ipv4Addr::new(170, 114, o[2], o[3])
}

fn write_border(dir: &Path, seed: u64, shape: &Shape) -> Result<TraceFile, String> {
    let io_err = |e: io::Error| format!("writing {BORDER}: {e}");
    let mut scenario = population(seed, shape.border_scale, shape.border_background_ratio);
    for m in &mut scenario.meetings {
        m.sfu_ip = into_sample_list(m.sfu_ip);
        m.zc_ip = into_sample_list(m.zc_ip);
    }
    // Meetings and background as two streams, merged here, so that which
    // records are Zoom's is known without consulting the filter.
    let background = CampusScenario {
        meetings: Vec::new(),
        truth: Vec::new(),
        config: scenario.config.clone(),
    };
    scenario.config.background_ratio = 0.0;
    let mut zoom = scenario.into_stream().peekable();
    let mut other = background.into_stream().peekable();
    let mut out = TraceWriter::create(dir, BORDER).map_err(io_err)?;
    loop {
        let take_zoom = match (zoom.peek(), other.peek()) {
            (Some(z), Some(o)) => z.ts_nanos <= o.ts_nanos,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let record = if take_zoom { zoom.next() } else { other.next() }.expect("peeked");
        out.write(&record, take_zoom).map_err(io_err)?;
    }
    let file = out.finish(dir)?;
    if file.zoom_records == 0 || file.zoom_records == file.records {
        return Err(format!(
            "{BORDER}: {} of {} records are Zoom's; the filter needs both kinds",
            file.zoom_records, file.records
        ));
    }
    Ok(file)
}

/// Builds the files `needs` names under `dir` and writes `traces.json`
/// beside them.
pub fn build(dir: &Path, seed: u64, shape: &Shape, needs: Needs) -> Result<Manifest, String> {
    let mut files = Vec::new();
    if needs.campus || needs.taps {
        files.extend(write_campus(dir, seed, shape, needs.taps)?);
    }
    if needs.border {
        files.push(write_border(dir, seed, shape)?);
    }
    let manifest = Manifest {
        seed,
        shape: shape.name.to_string(),
        files,
    };
    std::fs::write(dir.join("traces.json"), manifest.to_json().render_pretty())
        .map_err(|e| format!("traces.json: {e}"))?;
    Ok(manifest)
}

/// Free bytes on the filesystem holding `dir`, as `df -Pk` reports them;
/// `None` when `df` is missing or prints something else.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// The scratch directory every generated file, spool and output lives
/// in. Removed, with everything inside, when dropped.
#[derive(Debug)]
pub struct DataDir(PathBuf);

impl DataDir {
    /// Creates `path` after checking its filesystem has room for `shape`.
    pub fn create(path: PathBuf, shape: &Shape) -> Result<DataDir, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let dir = DataDir(path);
        match free_bytes(&dir.0) {
            Some(free) if free < shape.min_free_bytes => Err(format!(
                "{}: {} MiB free, the {} trace set needs {} MiB",
                dir.0.display(),
                free >> 20,
                shape.name,
                shape.min_free_bytes >> 20
            )),
            Some(_) => Ok(dir),
            None => {
                eprintln!("[benchmark] warning: cannot read free space (df -Pk); not checked");
                Ok(dir)
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory sits
        // under the (ignored) build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            seed: 11,
            shape: "smoke".to_string(),
            files: vec![
                TraceFile {
                    name: CAMPUS.to_string(),
                    records: 1_552_556,
                    bytes: 1_083_205_054,
                    checksum: 0xfedc_ba98_7654_3210,
                    zoom_records: 1_552_556,
                    first_ts: 12_345,
                    last_ts: 59_721_483_761,
                },
                TraceFile {
                    name: BORDER.to_string(),
                    records: 9,
                    bytes: 1_000,
                    checksum: 1,
                    zoom_records: 2,
                    first_ts: 0,
                    last_ts: 1,
                },
            ],
        };
        let text = m.to_json().render_pretty();
        assert_eq!(Manifest::from_json(&Json::parse(&text).unwrap()), Some(m));
    }

    #[test]
    fn checksum_depends_on_every_byte_and_is_stable() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv64::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b"0123456789abc"), digest(b"0123456789abc"));
        assert_ne!(digest(b"0123456789abc"), digest(b"0123456789abd"));
        assert_ne!(digest(b"1123456789abc"), digest(b"0123456789abc"));
        // Pinned: the tap split and the manifests depend on this value.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn seeds_decorrelate() {
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_eq!(mix(7, 1), mix(7, 1));
    }
}
