//! The end-to-end measurement: set-up, warm-up, timed passes, checks.
//!
//! **Load model.** Closed loop. One driver thread spawns a child and
//! waits for it, at most one child at a time; the program's lossless
//! rings are flow-controlled, so the rate delivered is the sustainable
//! rate. A *pass* is one execution of a workload's command line(s). A
//! workload gets one untimed warm-up pass (page cache), then timed
//! passes; with several workloads the passes are interleaved round-robin
//! (pass *i* of each before pass *i + 1* of any), so slow drift of a
//! shared box lands on every workload alike. Passes carry no
//! `--metrics`, no `--trace`, no probe.

use crate::json::Json;
use crate::metrics::{self, EndToEnd};
use crate::stats::{median, Summary};
use crate::traces::{self, DataDir, Manifest, Needs, Shape};
use crate::workloads::{Instrument, PassCost, Reference, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Everything a measurement needs besides the workload.
#[derive(Debug)]
pub struct Env {
    /// The release `zoom-tools` binary.
    pub tools: PathBuf,
    pub data: DataDir,
    pub seed: u64,
    pub shape: Shape,
}

/// When a workload has been measured enough.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many timed passes.
    Passes(usize),
    /// Once the timed passes add up to this many seconds (and there are
    /// at least [`MIN_TIMED_PASSES`] of them, so quartiles exist).
    Seconds(f64),
}

pub const MIN_TIMED_PASSES: usize = 5;

/// How many times the traces are built to time set-up.
pub const SETUPS: usize = 3;

/// The timed passes of one workload.
#[derive(Debug, Clone)]
pub struct Samples {
    pub workload: Workload,
    /// Input records a pass offers.
    pub records: u64,
    pub passes: Vec<PassCost>,
    /// Records of passes that exited non-zero or failed their check.
    pub failed_records: u64,
}

impl Samples {
    pub fn new(workload: Workload, manifest: &Manifest) -> Samples {
        Samples {
            workload,
            records: workload.records(manifest),
            passes: Vec::new(),
            failed_records: 0,
        }
    }

    /// Runs one more checked pass and keeps its cost; a pass that exits
    /// non-zero or fails its check counts its records as failed.
    pub fn timed_pass(
        &mut self,
        env: &Env,
        manifest: &Manifest,
        reference: Option<&Reference>,
    ) -> Result<(), String> {
        let cost = match checked_pass(env, self.workload, manifest, reference)? {
            Ok(cost) => cost,
            Err((cost, why)) => {
                // The first few only: a broken build fails every pass.
                if self.failed_records < 3 * self.records {
                    eprintln!(
                        "[benchmark] {} pass {} failed: {why}",
                        self.workload.name(),
                        self.passes.len()
                    );
                }
                self.failed_records += self.records;
                cost
            }
        };
        self.passes.push(cost);
        Ok(())
    }

    /// Median over the timed passes of what `of` reads from a pass.
    pub fn median_of(&self, of: impl Fn(&PassCost) -> f64) -> f64 {
        median(&self.passes.iter().map(of).collect::<Vec<_>>())
    }

    pub fn attempted_records(&self) -> u64 {
        self.records * self.passes.len() as u64
    }

    fn wall_seconds(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| p.wall_nanos() as f64 / 1e9)
            .sum()
    }

    fn done(&self, stop: Stop) -> bool {
        match stop {
            Stop::Passes(n) => self.passes.len() >= n,
            Stop::Seconds(s) => self.passes.len() >= MIN_TIMED_PASSES && self.wall_seconds() >= s,
        }
    }

    /// Per-pass values of an end-to-end metric (all but `setup_s` and
    /// `pass_share`, which are not per pass).
    fn per_pass(&self, metric: &str) -> Vec<f64> {
        let records = self.records as f64;
        self.passes
            .iter()
            .map(|p| match metric {
                metrics::PKTS_PER_S => records / (p.wall_nanos() as f64 / 1e9),
                metrics::CPU_NS_PER_PKT => p.cpu_nanos() as f64 / records,
                metrics::PEAK_RSS_MIB => p.maxrss_kib() as f64 / 1024.0,
                other => unreachable!("{other} is not a per-pass metric"),
            })
            .collect()
    }

    /// Median, quartiles and n of one end-to-end metric. `value` is the
    /// median, except for `peak_rss_mib` (the run's largest) and
    /// `pass_share` (one ratio over the run).
    pub fn metric(&self, m: &EndToEnd, setups: &[f64]) -> (f64, Summary) {
        match m.name {
            metrics::SETUP_S => {
                let s = Summary::of(setups);
                (s.median, s)
            }
            metrics::PASS_SHARE => {
                let share = 1.0 - self.failed_records as f64 / self.attempted_records() as f64;
                (share, Summary::of(&[share]))
            }
            metrics::PEAK_RSS_MIB => {
                let v = self.per_pass(m.name);
                (v.iter().copied().fold(0.0, f64::max), Summary::of(&v))
            }
            _ => {
                let s = Summary::of(&self.per_pass(m.name));
                (s.median, s)
            }
        }
    }

    pub fn to_json(&self, setups: &[f64]) -> Json {
        Json::Obj(
            metrics::END_TO_END
                .iter()
                .map(|m| {
                    let (value, s) = self.metric(m, setups);
                    (m.name.to_string(), s.to_json(value, m.unit))
                })
                .collect(),
        )
    }
}

/// Builds the traces `needs` names [`SETUPS`] times over, timing each
/// build, and insists every build produced the same files.
pub fn setup(env: &Env, needs: Needs, repeats: usize) -> Result<(Manifest, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut manifest: Option<Manifest> = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let m = traces::build(env.data.path(), env.seed, &env.shape, needs)?;
        seconds.push(t0.elapsed().as_secs_f64());
        match &manifest {
            Some(first) if *first != m => {
                return Err(format!("seed {} built two different trace sets", env.seed));
            }
            _ => manifest = Some(m),
        }
    }
    let manifest = manifest.ok_or("no set-up was run")?;
    for f in &manifest.files {
        eprintln!(
            "[benchmark] trace {:<12} {:>9} records {:>11} bytes fnv1a64 {:016x}{}",
            f.name,
            f.records,
            f.bytes,
            f.checksum,
            if f.zoom_records != f.records {
                format!(" ({} Zoom)", f.zoom_records)
            } else {
                String::new()
            }
        );
    }
    Ok((manifest, seconds))
}

fn stderr_tail(env: &Env) -> String {
    let text = std::fs::read_to_string(env.data.join("stderr.log")).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(3).collect();
    tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

/// One plain pass, checked; its output is deleted afterwards. `Err` is
/// what was wrong with the pass, not a failure of the benchmark.
fn checked_pass(
    env: &Env,
    workload: Workload,
    manifest: &Manifest,
    reference: Option<&Reference>,
) -> Result<Result<PassCost, (PassCost, String)>, String> {
    let dir = env.data.path();
    let cost = workload.run_pass(&env.tools, dir, Instrument::Plain)?;
    let verdict = if !cost.success() {
        Err(format!("exited non-zero: {}", stderr_tail(env)))
    } else if workload.needs().campus && reference.is_none() {
        Err("no batch-file reference to check against".to_string())
    } else {
        workload.check(dir, manifest, reference)
    };
    workload.clean(dir);
    Ok(match verdict {
        Ok(()) => Ok(cost),
        Err(why) => Err((cost, why)),
    })
}

/// The `batch-file` report the campus workloads are checked against:
/// one untimed pass, itself checked. `None` (and a line in the log) when
/// that pass is wrong; every check that needs the reference then fails.
pub fn reference(env: &Env, manifest: &Manifest) -> Result<Option<Reference>, String> {
    let dir = env.data.path();
    let w = Workload::BatchFile;
    let cost = w.run_pass(&env.tools, dir, Instrument::Plain)?;
    let verdict = if cost.success() {
        w.check(dir, manifest, None)
            .and_then(|()| Reference::take(dir))
    } else {
        Err(format!("exited non-zero: {}", stderr_tail(env)))
    };
    w.clean(dir);
    Ok(verdict
        .map_err(|why| eprintln!("[benchmark] reference batch-file pass failed: {why}"))
        .ok())
}

/// Warm-up plus timed passes for `workloads`, interleaved round-robin.
pub fn measure(
    env: &Env,
    workloads: &[Workload],
    manifest: &Manifest,
    stop: Stop,
) -> Result<Vec<Samples>, String> {
    let reference = if workloads.iter().any(|w| w.needs().campus) {
        reference(env, manifest)?
    } else {
        None
    };
    let mut all: Vec<Samples> = workloads
        .iter()
        .map(|&workload| Samples::new(workload, manifest))
        .collect();
    // Untimed: fills the page cache with the inputs.
    for s in &all {
        eprintln!("[benchmark] {}: {}", s.workload.name(), s.workload.why());
        if let Err((_, why)) = checked_pass(env, s.workload, manifest, reference.as_ref())? {
            eprintln!(
                "[benchmark] {} warm-up pass failed: {why}",
                s.workload.name()
            );
        }
    }
    while all.iter().any(|s| !s.done(stop)) {
        for s in all.iter_mut().filter(|s| !s.done(stop)) {
            s.timed_pass(env, manifest, reference.as_ref())?;
        }
    }
    Ok(all)
}
