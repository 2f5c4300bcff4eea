//! Shared plumbing for the experiments: argument parsing, CSV output, and
//! the standard capture→analysis run.

use std::io::Write;
use std::path::PathBuf;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_capture::source::BATCH_RECORDS;
use zoom_sim::campus::CampusStream;
use zoom_sim::scenario;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

/// Every experiment the binary runs, by its command-line name.
pub const EXPERIMENTS: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig5",
    "fig6",
    "fig8",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "ablations",
    "all",
];

/// The one-line usage message, listing the experiment names.
pub fn usage() -> String {
    format!(
        "usage: zoom-bench <{}> [--seed N] [--minutes M] [--scale D] [--background R] [--out DIR]",
        EXPERIMENTS.join("|")
    )
}

/// Common experiment parameters, parsed from `--seed`, `--minutes`,
/// `--scale` (denominator), `--background`, and `--out` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    pub seed: u64,
    pub minutes: u64,
    /// Scale denominator: load is 1/scale_denom of the paper's campus.
    pub scale_denom: f64,
    pub background_ratio: f64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            seed: 7,
            minutes: 20,
            scale_denom: 24.0,
            background_ratio: 0.0,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// The arguments an experiment starts from before its flags apply;
/// `None` for the experiments that take no arguments.
fn defaults(name: &str) -> Option<ExpArgs> {
    let standard = ExpArgs::default();
    match name {
        "table1" | "table5" | "table7" => None,
        "fig8" => Some(ExpArgs {
            minutes: 10,
            ..standard
        }),
        "fig13" | "fig17" => Some(ExpArgs {
            minutes: 30,
            scale_denom: 4.0,
            background_ratio: 13.6,
            ..standard
        }),
        _ => Some(standard),
    }
}

impl ExpArgs {
    /// Parse `<experiment> [flags]` (the arguments after the program
    /// name) into the experiment's name and its arguments: its own
    /// defaults, overridden by the flags given. An unknown name or flag,
    /// a flag without a value and a value that does not parse are
    /// errors, never skipped.
    pub fn parse(args: &[String]) -> Result<(&'static str, ExpArgs), String> {
        let (name, flags) = args.split_first().ok_or("no experiment named")?;
        let name = EXPERIMENTS
            .into_iter()
            .find(|n| n == name)
            .ok_or_else(|| format!("unknown experiment {name}"))?;
        let Some(mut parsed) = defaults(name) else {
            return match flags.first() {
                Some(flag) => Err(format!("{name} takes no arguments, got {flag}")),
                None => Ok((name, ExpArgs::default())),
            };
        };
        let mut flags = flags.iter();
        while let Some(flag) = flags.next() {
            if !["--seed", "--minutes", "--scale", "--background", "--out"].contains(&flag.as_str())
            {
                return Err(format!("unknown flag {flag}"));
            }
            let value = flags
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let bad = |expected: &str| format!("{flag} {value}: expected {expected}");
            match flag.as_str() {
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--minutes" => {
                    parsed.minutes = (value.parse().ok())
                        .filter(|m: &u64| m.checked_mul(60 * zoom_sim::time::SEC).is_some())
                        .ok_or_else(|| bad("whole minutes"))?;
                }
                "--scale" => {
                    parsed.scale_denom = (value.parse().ok())
                        .filter(|d: &f64| d.is_finite() && *d > 0.0)
                        .ok_or_else(|| bad("a positive number"))?;
                }
                "--background" => {
                    parsed.background_ratio = (value.parse().ok())
                        .filter(|r: &f64| r.is_finite() && *r >= 0.0)
                        .ok_or_else(|| bad("a ratio ≥ 0"))?;
                }
                _ => parsed.out_dir = PathBuf::from(value),
            }
        }
        Ok((name, parsed))
    }

    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.minutes * 60 * zoom_sim::time::SEC
    }

    /// Load scale.
    pub fn scale(&self) -> f64 {
        1.0 / self.scale_denom
    }
}

/// Write a CSV file into the output directory; returns the path.
pub fn write_csv(
    args: &ExpArgs,
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> PathBuf {
    std::fs::create_dir_all(&args.out_dir).expect("create results dir");
    let path = args.out_dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    f.flush().expect("flush csv");
    println!("[csv] {}", path.display());
    path
}

/// The error for a campus scenario that drew no meetings: every campus
/// experiment would print zeros beside the paper's numbers.
pub(crate) fn no_meetings(args: &ExpArgs) -> String {
    format!(
        "{} minutes at 1/{} scale draw no meetings; raise --minutes or lower --scale",
        args.minutes, args.scale_denom
    )
}

/// Run the campus workload through capture + analysis; an error if the
/// scenario has no meetings.
pub fn run_campus(args: &ExpArgs) -> Result<Analyzer, String> {
    let (scenario_obj, infra) = scenario::campus_study(
        args.seed,
        args.duration(),
        args.scale(),
        args.background_ratio,
    );
    let meetings = scenario_obj.truth.len();
    eprintln!(
        "[campus] {} meetings over {} min at 1/{} scale",
        meetings, args.minutes, args.scale_denom
    );
    if meetings == 0 {
        return Err(no_meetings(args));
    }
    let mut capture = CapturePipeline::new(PipelineConfig {
        zoom_list: infra.ip_list.clone(),
        ..PipelineConfig::sample(scenario::CAMPUS_NET)
    });
    // The tables and Fig. 14–16 read the per-second series.
    let config = AnalyzerConfig {
        per_second_rows: true,
        ..AnalyzerConfig::default()
    };
    let mut analyzer = Analyzer::new(config);
    let stream: CampusStream = scenario_obj.into_stream();
    feed(
        &mut analyzer,
        stream.filter_map(|record| capture.process_record(&record, LinkType::Ethernet).1),
    );
    Ok(analyzer)
}

/// Feed `records` to `sink` through `PacketSink::push_batch`, in the
/// batches of up to [`BATCH_RECORDS`] records `analyze --source sim:`
/// hands its engine.
pub fn feed(sink: &mut impl PacketSink, records: impl IntoIterator<Item = Record>) {
    let mut records = records.into_iter().peekable();
    let mut batch = RecordBatch::new();
    while records.peek().is_some() {
        batch.clear();
        for r in records.by_ref().take(BATCH_RECORDS) {
            batch.push(r.ts_nanos, r.orig_len, &r.data);
        }
        sink.push_batch(&batch, LinkType::Ethernet)
            .expect("an analysis sink accepts a generated trace");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(&'static str, ExpArgs), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        ExpArgs::parse(&argv)
    }

    #[test]
    fn defaults_and_duration() {
        let a = ExpArgs::default();
        assert_eq!(a.duration(), 20 * 60 * 1_000_000_000);
        assert!((a.scale() - 1.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn each_experiment_starts_from_its_own_defaults() {
        assert_eq!(parse("table2"), Ok(("table2", ExpArgs::default())));
        assert_eq!(parse("fig8").unwrap().1.minutes, 10);
        for name in ["fig13", "fig17"] {
            let a = parse(name).unwrap().1;
            assert_eq!(
                (a.minutes, a.scale_denom, a.background_ratio),
                (30, 4.0, 13.6)
            );
        }
        let a = parse("fig13 --minutes 20 --scale 24 --seed 3 --out o")
            .unwrap()
            .1;
        assert_eq!((a.minutes, a.scale_denom, a.seed), (20, 24.0, 3));
        assert_eq!((a.background_ratio, a.out_dir), (13.6, PathBuf::from("o")));
        for name in EXPERIMENTS {
            assert_eq!(parse(name).unwrap().0, name);
        }
    }

    #[test]
    fn what_parse_does_not_understand_is_an_error() {
        for (line, error) in [
            ("", "no experiment named"),
            ("fig99", "unknown experiment fig99"),
            ("table6 --minute 5", "unknown flag --minute"),
            ("table6 extra", "unknown flag extra"),
            ("table6 --minutes 5 --seed", "flag --seed needs a value"),
            (
                "table6 --minutes five",
                "--minutes five: expected whole minutes",
            ),
            (
                "table6 --minutes 400000000",
                "--minutes 400000000: expected whole minutes",
            ),
            (
                "table6 --seed -1",
                "--seed -1: expected an unsigned integer",
            ),
            ("table6 --scale 0", "--scale 0: expected a positive number"),
            (
                "fig17 --background nan",
                "--background nan: expected a ratio ≥ 0",
            ),
            ("table1 --seed 3", "table1 takes no arguments, got --seed"),
        ] {
            assert_eq!(parse(line), Err(error.to_string()), "{line:?}");
        }
        for name in EXPERIMENTS {
            assert!(usage().contains(name));
        }
    }

    #[test]
    fn a_campus_without_meetings_is_refused() {
        // At 1/24 scale five minutes draw no meetings (nothing is
        // generated, so this is cheap); the error names the knobs.
        let args = ExpArgs {
            minutes: 5,
            ..ExpArgs::default()
        };
        let expected = "5 minutes at 1/24 scale draw no meetings; raise --minutes or lower --scale";
        assert_eq!(run_campus(&args).err().as_deref(), Some(expected));
        let capture = crate::figures::capture_experiment(&args);
        assert_eq!(capture.err().as_deref(), Some(expected));
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join(format!("zoom_bench_test_csv_{}", std::process::id()));
        let args = ExpArgs {
            out_dir: dir.clone(),
            ..Default::default()
        };
        let p = write_csv(&args, "t.csv", "a,b", vec!["1,2".to_string()]);
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
