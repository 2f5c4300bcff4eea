//! Typed `--source` specifications.
//!
//! The CLI used to split `--source` values on `:` by hand in every
//! subcommand; [`SourceSpec`] replaces that with one typed enum
//! implementing [`FromStr`] and [`Display`](std::fmt::Display), so `analyze`, `capture`,
//! and any future front-end parse and print specs identically and parse
//! failures say what was wrong *and* what a valid spec looks like.
//!
//! Accepted forms:
//!
//! * `pcap:PATH` — a pcap file on disk.
//! * `sim:SCENARIO[,seed=N][,secs=N]` — a simulated live tap
//!   (defaults: `seed=7`, `secs=60`). The scenario *name* is validated
//!   by the consumer that owns the scenario catalogue (`zoom-sim` is a
//!   deliberate non-dependency of this crate), so unknown names parse
//!   here and fail there with the catalogue in the message.
//!
//! `Display` renders the canonical fully-explicit form (`sim:` specs
//! always print `seed=` and `secs=`), and `parse(display(x)) == x`
//! round-trips — source labels in metrics are therefore canonical too.

use std::fmt;
use std::str::FromStr;

/// Default simulation seed when a `sim:` spec omits `seed=`.
pub const DEFAULT_SIM_SEED: u64 = 7;
/// Default simulated duration (seconds) when a `sim:` spec omits `secs=`.
pub const DEFAULT_SIM_SECS: u64 = 60;

/// One parsed `--source` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// `pcap:PATH` — records come from a pcap file.
    Pcap {
        /// Path of the pcap file.
        path: String,
    },
    /// `sim:SCENARIO[,seed=N][,secs=N]` — records come from a simulated
    /// live tap replaying the named scenario.
    Sim {
        /// Scenario name; validated by the consumer owning the catalogue.
        scenario: String,
        /// Simulation RNG seed.
        seed: u64,
        /// Simulated duration in seconds.
        secs: u64,
    },
}

/// Why a `--source` value failed to parse. Every variant's `Display`
/// names the offending token and shows the accepted grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// The value has no `kind:` prefix at all.
    MissingKind(String),
    /// The `kind:` prefix is not one of the supported backends.
    UnknownKind(String),
    /// A `pcap:` spec with an empty path.
    EmptyPath,
    /// A `sim:` spec with no scenario name before the first comma.
    MissingScenario,
    /// A `sim:` option without a `key=value` shape.
    BadOption(String),
    /// A `sim:` option whose value is not an unsigned integer.
    BadOptionValue {
        /// The option key (`seed` or `secs`).
        key: String,
        /// The rejected value text.
        value: String,
    },
    /// A `sim:` option key that is neither `seed` nor `secs`.
    UnknownOption(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const GRAMMAR: &str = "expected pcap:PATH or sim:SCENARIO[,seed=N][,secs=N]";
        match self {
            SpecError::MissingKind(s) => {
                write!(f, "source {s:?} has no kind prefix ({GRAMMAR})")
            }
            SpecError::UnknownKind(k) => {
                write!(f, "unknown source kind {k:?} ({GRAMMAR})")
            }
            SpecError::EmptyPath => write!(f, "pcap: source needs a file path ({GRAMMAR})"),
            SpecError::MissingScenario => {
                write!(f, "sim: source needs a scenario name ({GRAMMAR})")
            }
            SpecError::BadOption(o) => {
                write!(
                    f,
                    "bad sim option {o:?} (expected key=value, keys: seed, secs)"
                )
            }
            SpecError::BadOptionValue { key, value } => {
                write!(f, "sim option {key}={value:?} is not an unsigned integer")
            }
            SpecError::UnknownOption(k) => {
                write!(f, "unknown sim option {k:?} (accepted: seed, secs)")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl FromStr for SourceSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<SourceSpec, SpecError> {
        let (kind, rest) = s
            .split_once(':')
            .ok_or_else(|| SpecError::MissingKind(s.to_string()))?;
        match kind {
            "pcap" => {
                if rest.is_empty() {
                    return Err(SpecError::EmptyPath);
                }
                Ok(SourceSpec::Pcap {
                    path: rest.to_string(),
                })
            }
            "sim" => {
                let mut parts = rest.split(',');
                let scenario = parts.next().unwrap_or("").trim();
                if scenario.is_empty() {
                    return Err(SpecError::MissingScenario);
                }
                let (mut seed, mut secs) = (DEFAULT_SIM_SEED, DEFAULT_SIM_SECS);
                for part in parts {
                    let (key, value) = part
                        .split_once('=')
                        .ok_or_else(|| SpecError::BadOption(part.to_string()))?;
                    let slot = match key.trim() {
                        "seed" => &mut seed,
                        "secs" => &mut secs,
                        other => return Err(SpecError::UnknownOption(other.to_string())),
                    };
                    *slot = value
                        .trim()
                        .parse()
                        .map_err(|_| SpecError::BadOptionValue {
                            key: key.trim().to_string(),
                            value: value.to_string(),
                        })?;
                }
                Ok(SourceSpec::Sim {
                    scenario: scenario.to_string(),
                    seed,
                    secs,
                })
            }
            other => Err(SpecError::UnknownKind(other.to_string())),
        }
    }
}

impl fmt::Display for SourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceSpec::Pcap { path } => write!(f, "pcap:{path}"),
            SourceSpec::Sim {
                scenario,
                seed,
                secs,
            } => write!(f, "sim:{scenario},seed={seed},secs={secs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pcap_and_sim_forms() {
        assert_eq!(
            "pcap:a/b.pcap".parse::<SourceSpec>().unwrap(),
            SourceSpec::Pcap {
                path: "a/b.pcap".into()
            }
        );
        assert_eq!(
            "sim:p2p".parse::<SourceSpec>().unwrap(),
            SourceSpec::Sim {
                scenario: "p2p".into(),
                seed: DEFAULT_SIM_SEED,
                secs: DEFAULT_SIM_SECS,
            }
        );
        assert_eq!(
            "sim:multi,seed=3,secs=20".parse::<SourceSpec>().unwrap(),
            SourceSpec::Sim {
                scenario: "multi".into(),
                seed: 3,
                secs: 20,
            }
        );
        // A pcap path may itself contain colons past the first.
        assert_eq!(
            "pcap:odd:name.pcap".parse::<SourceSpec>().unwrap(),
            SourceSpec::Pcap {
                path: "odd:name.pcap".into()
            }
        );
    }

    #[test]
    fn errors_name_the_problem_and_the_grammar() {
        let e = "nocolon".parse::<SourceSpec>().unwrap_err();
        assert_eq!(e, SpecError::MissingKind("nocolon".into()));
        assert!(e.to_string().contains("pcap:PATH"));

        let e = "ftp:x".parse::<SourceSpec>().unwrap_err();
        assert_eq!(e, SpecError::UnknownKind("ftp".into()));
        assert!(e.to_string().contains("\"ftp\""));

        assert_eq!(
            "pcap:".parse::<SourceSpec>().unwrap_err(),
            SpecError::EmptyPath
        );
        assert_eq!(
            "sim:".parse::<SourceSpec>().unwrap_err(),
            SpecError::MissingScenario
        );
        assert_eq!(
            "sim:p2p,bogus".parse::<SourceSpec>().unwrap_err(),
            SpecError::BadOption("bogus".into())
        );
        assert_eq!(
            "sim:p2p,seed=x".parse::<SourceSpec>().unwrap_err(),
            SpecError::BadOptionValue {
                key: "seed".into(),
                value: "x".into()
            }
        );
        let e = "sim:p2p,speed=1".parse::<SourceSpec>().unwrap_err();
        assert_eq!(e, SpecError::UnknownOption("speed".into()));
        assert!(e.to_string().contains("seed, secs"));
    }

    #[test]
    fn display_is_canonical_and_roundtrips() {
        for s in [
            "pcap:t.pcap",
            "sim:p2p,seed=7,secs=60",
            "sim:churn,seed=1,secs=9",
        ] {
            let spec: SourceSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(spec.to_string().parse::<SourceSpec>().unwrap(), spec);
        }
        // Omitted options print explicitly in the canonical form.
        let spec: SourceSpec = "sim:p2p".parse().unwrap();
        assert_eq!(spec.to_string(), "sim:p2p,seed=7,secs=60");
    }
}
