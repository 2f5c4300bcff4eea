//! Merge-node checkpoint/restore for the distributed tier.
//!
//! The merge node is deliberately **stateless on disk about analysis
//! internals**: instead of serializing engine state (per-stream jitter
//! filters, STUN registries, open windows), a checkpoint records only
//! *how much output has already been emitted* — the count of closed
//! windows written so far plus the registered worker set. Restore then
//! replays the same inputs (fragment files, or the `--journal` spool in
//! listen mode) through a fresh engine and a [`WindowGate`] suppresses
//! the windows a previous incarnation already printed. Because the
//! whole pipeline is deterministic (pinned by the differential suites),
//! the rebuilt open windows are bit-for-bit the ones the crashed
//! process held, so a restart loses nothing and the final output is
//! byte-identical to an uninterrupted run
//! (`tests/distributed_differential.rs`; operator runbook in
//! `docs/DISTRIBUTED.md`).
//!
//! The on-disk format is a line-oriented text file (no JSON parser in
//! the std-only workspace):
//!
//! ```text
//! zoom-merge-checkpoint v1
//! windows_emitted 12
//! worker box-a 10240
//! worker box-b 9813
//! ```
//!
//! `worker` lines record each worker's label and how many of its
//! records the merge had consumed at checkpoint time — restore uses the
//! labels to refuse a mismatched input set, and operators use the
//! counts to see how far each worker had shipped.

use std::fmt;
use std::io;
use std::path::Path;

/// Errors from the merge side of the distributed tier.
///
/// Marked `#[non_exhaustive]` like [`crate::Error`]: the merge service
/// is expected to grow failure modes (auth, backpressure policies)
/// without breaking downstream matches. The CLI maps each variant to a
/// distinct exit code (see `zoom-tools --help` / `docs/DISTRIBUTED.md`).
#[derive(Debug)]
#[non_exhaustive]
pub enum MergeError {
    /// An I/O failure reading inputs or writing the checkpoint.
    Io {
        /// What the merge node was doing (path or peer).
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The checkpoint file is unreadable or malformed.
    Checkpoint(String),
    /// Restore inputs don't match the checkpointed worker set.
    Mismatch(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io { context, source } => write!(f, "{context}: {source}"),
            MergeError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            MergeError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One worker's entry in a checkpoint: its Hello label and how many of
/// its records the merge had consumed when the checkpoint was cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerMark {
    /// The worker's label.
    pub label: String,
    /// Records consumed from this worker so far.
    pub consumed: u64,
}

/// A merge-node checkpoint: everything a restarted merge needs to
/// resume deterministic replay without re-emitting output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeCheckpoint {
    /// Closed windows already written by the previous incarnation.
    pub windows_emitted: u64,
    /// The registered worker set at checkpoint time.
    pub workers: Vec<WorkerMark>,
}

const HEADER: &str = "zoom-merge-checkpoint v1";

impl MergeCheckpoint {
    /// Renders the line-oriented text form.
    pub fn serialize(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.workers.len() * 32);
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "windows_emitted {}", self.windows_emitted);
        for w in &self.workers {
            let _ = writeln!(out, "worker {} {}", w.label, w.consumed);
        }
        out
    }

    /// Parses the text form, rejecting unknown headers and torn lines.
    pub fn parse(text: &str) -> Result<MergeCheckpoint, MergeError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(MergeError::Checkpoint(format!(
                "missing header {HEADER:?} (not a merge checkpoint?)"
            )));
        }
        let mut cp = MergeCheckpoint::default();
        let mut saw_windows = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(v) = line.strip_prefix("windows_emitted ") {
                cp.windows_emitted = v.trim().parse().map_err(|_| {
                    MergeError::Checkpoint(format!("bad windows_emitted value {v:?}"))
                })?;
                saw_windows = true;
            } else if let Some(rest) = line.strip_prefix("worker ") {
                // The label may contain spaces only if quoted-free labels
                // forbid them; worker labels come from Hello frames the
                // emitter controls, so split at the *last* space.
                let (label, count) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| MergeError::Checkpoint(format!("bad worker line {line:?}")))?;
                cp.workers.push(WorkerMark {
                    label: label.trim().to_string(),
                    consumed: count.trim().parse().map_err(|_| {
                        MergeError::Checkpoint(format!("bad worker count in {line:?}"))
                    })?,
                });
            } else {
                return Err(MergeError::Checkpoint(format!("unknown line {line:?}")));
            }
        }
        if !saw_windows {
            return Err(MergeError::Checkpoint(
                "missing windows_emitted line (torn write?)".into(),
            ));
        }
        Ok(cp)
    }

    /// Writes the checkpoint atomically: a temp file in the same
    /// directory, flushed, then renamed over `path` — a crash mid-write
    /// leaves the previous checkpoint intact, never a torn one.
    pub fn save(&self, path: &Path) -> Result<(), MergeError> {
        let tmp = path.with_extension("tmp");
        let ctx = |p: &Path| p.display().to_string();
        std::fs::write(&tmp, self.serialize()).map_err(|e| MergeError::Io {
            context: ctx(&tmp),
            source: e,
        })?;
        std::fs::rename(&tmp, path).map_err(|e| MergeError::Io {
            context: ctx(path),
            source: e,
        })
    }

    /// Loads and parses a checkpoint file.
    pub fn load(path: &Path) -> Result<MergeCheckpoint, MergeError> {
        let text = std::fs::read_to_string(path).map_err(|e| MergeError::Io {
            context: path.display().to_string(),
            source: e,
        })?;
        MergeCheckpoint::parse(&text)
    }

    /// Verifies that a restore run sees the same worker set the
    /// checkpoint recorded (order-insensitive; counts may grow).
    pub fn check_workers(&self, labels: &[String]) -> Result<(), MergeError> {
        let mut want: Vec<&str> = self.workers.iter().map(|w| w.label.as_str()).collect();
        let mut got: Vec<&str> = labels.iter().map(String::as_str).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return Err(MergeError::Mismatch(format!(
                "checkpoint workers {want:?} != restore inputs {got:?}"
            )));
        }
        Ok(())
    }
}

/// Suppresses the first `n` window emissions during a restore replay.
///
/// The engine re-closes every window deterministically; the gate admits
/// a window only once the already-emitted prefix has been skipped, so
/// output across crash + restore concatenates to exactly the
/// uninterrupted run's output.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowGate {
    suppress: u64,
    emitted: u64,
}

impl WindowGate {
    /// A gate that suppresses the first `suppress` windows.
    pub fn resume_from(cp: &MergeCheckpoint) -> WindowGate {
        WindowGate {
            suppress: cp.windows_emitted,
            emitted: 0,
        }
    }

    /// Called once per closed window, in order. Returns whether this
    /// window should be written (false while replaying the prefix).
    pub fn admit(&mut self) -> bool {
        self.emitted += 1;
        self.emitted > self.suppress
    }

    /// Total windows seen (admitted or suppressed) — the value to
    /// checkpoint as `windows_emitted`.
    pub fn windows_seen(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MergeCheckpoint {
        MergeCheckpoint {
            windows_emitted: 12,
            workers: vec![
                WorkerMark {
                    label: "box-a".into(),
                    consumed: 10_240,
                },
                WorkerMark {
                    label: "box-b".into(),
                    consumed: 9_813,
                },
            ],
        }
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let cp = sample();
        let text = cp.serialize();
        assert!(text.starts_with("zoom-merge-checkpoint v1\n"));
        assert_eq!(MergeCheckpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn parse_rejects_garbage_and_torn_files() {
        assert!(MergeCheckpoint::parse("").is_err());
        assert!(MergeCheckpoint::parse("something else\n").is_err());
        assert!(MergeCheckpoint::parse("zoom-merge-checkpoint v1\n").is_err());
        assert!(MergeCheckpoint::parse("zoom-merge-checkpoint v1\nwindows_emitted x\n").is_err());
        assert!(MergeCheckpoint::parse(
            "zoom-merge-checkpoint v1\nwindows_emitted 1\nworker only-label\n"
        )
        .is_err());
        assert!(MergeCheckpoint::parse(
            "zoom-merge-checkpoint v1\nwindows_emitted 1\nmystery line\n"
        )
        .is_err());
    }

    #[test]
    fn save_load_is_atomic_over_existing_file() {
        let dir = std::env::temp_dir().join(format!("zoom-dist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.ckpt");
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(MergeCheckpoint::load(&path).unwrap(), cp);
        let mut cp2 = cp.clone();
        cp2.windows_emitted = 20;
        cp2.save(&path).unwrap();
        assert_eq!(MergeCheckpoint::load(&path).unwrap().windows_emitted, 20);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_set_check_is_order_insensitive() {
        let cp = sample();
        cp.check_workers(&["box-b".into(), "box-a".into()]).unwrap();
        let err = cp.check_workers(&["box-a".into()]).unwrap_err();
        assert!(matches!(err, MergeError::Mismatch(_)));
        assert!(err.to_string().contains("box-b"));
    }

    #[test]
    fn window_gate_suppresses_exactly_the_prefix() {
        let cp = MergeCheckpoint {
            windows_emitted: 3,
            workers: vec![],
        };
        let mut gate = WindowGate::resume_from(&cp);
        let admitted: Vec<bool> = (0..6).map(|_| gate.admit()).collect();
        assert_eq!(admitted, vec![false, false, false, true, true, true]);
        assert_eq!(gate.windows_seen(), 6);
    }
}
