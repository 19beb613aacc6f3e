//! Per-study durability: a write-ahead journal plus atomic snapshots.
//!
//! Every observation a [`hyperpower::Study`] commits is made durable
//! **before** it reaches in-memory state the server would mind losing,
//! using two files per study under the server root:
//!
//! * `<name>.journal` — an append-only write-ahead log. Line 1 is the
//!   study's identity header (`H <crc> {…}`), then one line per record:
//!   `E <crc> {…}` for a raw objective evaluation (the checkpoint codec's
//!   eval form, keyed by eval seed) and `S <crc> {…}` for a committed
//!   sample ([`hyperpower::golden::encode_sample`] bytes, verbatim).
//!   `<crc>` is the CRC32 of the payload as eight lowercase hex digits
//!   ([`hyperpower::integrity`]): a flipped bit anywhere in a record is a
//!   detected *corrupt frame*, not silently-wrong state; so is a record
//!   with no checksum at all. Appends happen *before* the corresponding
//!   snapshot-sink update — the WAL discipline — so the journal is never
//!   behind the snapshot.
//! * `<name>.snapshot` — a complete [`hyperpower::checkpoint`] file
//!   (schema `hyperpower-checkpoint-v2`, CRC32-framed as a whole by the
//!   checkpoint codec), written atomically (temp + rename) every
//!   `snapshot_every` commits by the PR 4 [`CheckpointSink`]. After each
//!   snapshot the journal **rotates**: it is atomically rewritten to just
//!   its header line, because everything it held is now inside the
//!   snapshot. The steady-state journal is therefore short — the tail
//!   since the last snapshot — while the snapshot bounds replay work.
//!
//! # Crash windows, enumerated
//!
//! A `kill -9` can land anywhere; every window leaves recoverable state:
//!
//! * **mid-append** — the journal's last line is torn (no trailing
//!   newline). [`StudyJournal::load`] drops the torn tail; the record was
//!   not yet acknowledged anywhere, so dropping it is the correct
//!   serialization.
//! * **mid-snapshot** — the snapshot write is atomic; a crash strands a
//!   stale `*.tmp` beside it, which the checkpoint codec sweeps on the
//!   next open. The journal still holds everything.
//! * **between snapshot and rotation** — the journal duplicates records
//!   the snapshot already holds. Recovery merges the two keyed by sample
//!   index and verifies overlapping records byte-for-byte.
//! * **mid-rotation** — the rotation rewrite is itself atomic
//!   (temp + rename, distinct temp suffix from the snapshot's); a crash
//!   strands `<name>.journal-tmp`, swept on the next open.
//!
//! Recovery never trusts the merged state blindly: the server replays the
//! study's deterministic schedule against the journaled evaluations and
//! byte-verifies the recomputed prefix against the recorded samples
//! (see `StudyServer::open_study`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use hyperpower::checkpoint::{
    budget_fields, decode_eval, encode_eval, get_num, CheckpointConfig, CheckpointHeader,
    CheckpointSink, RunCheckpoint,
};
use hyperpower::golden::{self, Value};
use hyperpower::{Error, EvaluationResult, ObservationSink, Result, Sample};

/// Wire schema marker of the journal header line.
const JOURNAL_SCHEMA: &str = "hyperpower-study-journal-v2";

/// Frames a record payload for the wire: `<crc32 hex8> <payload>`.
pub(crate) fn frame_payload(payload: &str) -> String {
    format!(
        "{} {payload}",
        hyperpower::integrity::crc32_hex(payload.as_bytes())
    )
}

/// Strips and verifies a record's integrity frame, returning the payload.
pub(crate) fn unframe_payload(rest: &str) -> Result<&str> {
    let (token, payload) = rest.split_once(' ').ok_or_else(|| {
        Error::Checkpoint(format!(
            "corrupt frame: unterminated checksum token in {rest:?}"
        ))
    })?;
    let expected = hyperpower::integrity::parse_crc32_hex(token).ok_or_else(|| {
        Error::Checkpoint(format!("corrupt frame: malformed checksum token {token:?}"))
    })?;
    let actual = hyperpower::integrity::crc32(payload.as_bytes());
    if actual != expected {
        return Err(Error::Checkpoint(format!(
            "corrupt frame: checksum mismatch (recorded {expected:08x}, computed {actual:08x})"
        )));
    }
    Ok(payload)
}

/// The identity a study journal is bound to: the study's name plus the
/// full run identity of the PR 4 checkpoint codec. Every trace-affecting
/// knob lives in `run`; server-level knobs (queue bounds, lease TTLs,
/// snapshot cadence) are execution-only and deliberately absent — they can
/// change across a restart without invalidating the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// The study's server-unique name.
    pub name: String,
    /// Run identity (seed, method, mode, budget, fault/retry/drift knobs).
    pub run: CheckpointHeader,
}

/// Encodes the header as a single journal line (sans the `H ` tag). The
/// encoding is canonical, so header verification on resume is a literal
/// byte comparison.
pub fn encode_header_line(header: &JournalHeader) -> String {
    let run = &header.run;
    let (budget_kind, budget_value) = budget_fields(run.budget);
    format!(
        "{{\"schema\": \"{JOURNAL_SCHEMA}\", \"name\": \"{}\", \"seed\": \"{}\", \
         \"method\": \"{}\", \"mode\": \"{}\", \"budget\": {{\"kind\": \"{budget_kind}\", \
         \"value\": {budget_value:?}}}, \"simulated_gpus\": {}, \"fault_profile\": \"{}\", \
         \"max_retries\": {}, \"recalibrate\": {}, \"drift_threshold\": {:?}, \
         \"safety_margin\": {:?}}}",
        header.name,
        run.seed,
        run.method,
        run.mode,
        run.simulated_gpus,
        run.fault_profile,
        run.max_retries,
        run.recalibrate,
        run.drift_threshold,
        run.safety_margin,
    )
}

/// Decodes one evaluation record's payload (sans the `E ` tag) — the
/// checkpoint codec's eval form, so both durability layers speak one
/// dialect.
fn decode_eval_line(line: &str) -> Result<(u64, EvaluationResult)> {
    let value =
        golden::parse(line).map_err(|e| Error::Checkpoint(format!("journal eval line: {e}")))?;
    decode_eval(&value)
}

/// The trace slot a journaled sample line occupies.
pub(crate) fn sample_index(value: &Value) -> Result<usize> {
    let Value::Object(members) = value else {
        return Err(Error::Checkpoint(
            "journal sample line is not an object".into(),
        ));
    };
    let index = get_num(members, "index")?;
    Ok(index as usize)
}

/// Durable state merged from a study's snapshot and journal tail, ready
/// for deterministic replay.
#[derive(Debug, Clone)]
pub struct RecoveredStudy {
    /// The journal's header line, verbatim (callers compare it against
    /// their expected canonical encoding).
    pub header_line: String,
    /// Every journaled raw evaluation, keyed by eval seed.
    pub evals: BTreeMap<u64, EvaluationResult>,
    /// The committed samples, as parsed golden-codec values, contiguous
    /// from trace slot 0.
    pub samples: Vec<Value>,
}

/// The write-ahead journal and snapshot writer of one hosted study.
///
/// Implements [`ObservationSink`], so a [`hyperpower::Study`] streams its
/// commits straight through it; see the module docs for the file formats
/// and crash-window analysis.
#[derive(Debug)]
pub struct StudyJournal {
    journal_path: PathBuf,
    file: std::fs::File,
    header_line: String,
    sink: CheckpointSink,
    snapshot_every: usize,
    commits_since_snapshot: usize,
    /// An append failure surfaced by the infallible `record_eval` hook is
    /// parked here and raised at the next fallible call.
    deferred: Option<Error>,
}

/// The two durable files of study `name` under `root`.
pub fn study_paths(root: &Path, name: &str) -> (PathBuf, PathBuf) {
    (
        root.join(format!("{name}.journal")),
        root.join(format!("{name}.snapshot")),
    )
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Checkpoint(format!("{what} {}: {e}", path.display()))
}

impl StudyJournal {
    /// Creates fresh durable state for one study: the journal is truncated
    /// to its header line and the snapshot sink is reset. Orphaned temp
    /// files from crashed predecessors (both the snapshot's `*.tmp` and
    /// the rotation's `*.journal-tmp`) are swept first.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures.
    pub fn create(root: &Path, header: &JournalHeader, snapshot_every: usize) -> Result<Self> {
        std::fs::create_dir_all(root).map_err(|e| io_err("creating", root, e))?;
        let (journal_path, snapshot_path) = study_paths(root, &header.name);
        std::fs::remove_file(journal_path.with_extension("journal-tmp")).ok();
        let header_line = encode_header_line(header);
        std::fs::write(
            &journal_path,
            format!("H {}\n", frame_payload(&header_line)),
        )
        .map_err(|e| io_err("writing", &journal_path, e))?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err("opening", &journal_path, e))?;
        // The inner sink never writes on its own cadence — `StudyJournal`
        // owns the snapshot schedule so it can rotate the journal at the
        // exact moment a snapshot lands.
        let sink = CheckpointSink::new(
            CheckpointConfig {
                path: snapshot_path,
                every_commits: usize::MAX,
            },
            &header.run,
        );
        Ok(StudyJournal {
            journal_path,
            file,
            header_line,
            sink,
            snapshot_every,
            commits_since_snapshot: 0,
            deferred: None,
        })
    }

    /// Loads the durable state of study `name`, or `None` when no journal
    /// exists. Merges the snapshot (if any) with the journal tail, keyed
    /// by sample index, byte-verifying overlapping records; drops a torn
    /// trailing journal line.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures, non-tail corruption, or a
    /// snapshot/journal disagreement.
    pub fn load(root: &Path, name: &str) -> Result<Option<RecoveredStudy>> {
        let (journal_path, snapshot_path) = study_paths(root, name);
        std::fs::remove_file(journal_path.with_extension("journal-tmp")).ok();
        if !journal_path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&journal_path)
            .map_err(|e| io_err("reading", &journal_path, e))?;
        // A crash mid-append leaves a torn final line with no trailing
        // newline; every acknowledged record ends with one.
        let complete = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => "",
        };
        let mut lines = complete.lines();
        let Some(first) = lines.next() else {
            return Err(Error::Checkpoint(format!(
                "journal {} has no header line",
                journal_path.display()
            )));
        };
        let Some(header_rest) = first.strip_prefix("H ") else {
            return Err(Error::Checkpoint(format!(
                "journal {} does not start with a header record",
                journal_path.display()
            )));
        };
        let header_line = unframe_payload(header_rest)
            .map_err(|e| Error::Checkpoint(format!("journal {}: {e}", journal_path.display())))?;
        let mut evals = BTreeMap::new();
        let mut by_index: BTreeMap<usize, Value> = BTreeMap::new();
        if snapshot_path.exists() {
            let snapshot = RunCheckpoint::load(&snapshot_path)?;
            evals.extend(snapshot.evals);
            // Snapshots are complete from trace slot 0 by construction.
            for (index, value) in snapshot.samples.into_iter().enumerate() {
                by_index.insert(index, value);
            }
        }
        for line in lines {
            if let Some(rest) = line.strip_prefix("E ") {
                let payload = unframe_payload(rest).map_err(|e| {
                    Error::Checkpoint(format!("journal {}: {e}", journal_path.display()))
                })?;
                let (seed, result) = decode_eval_line(payload)?;
                evals.insert(seed, result);
            } else if let Some(rest) = line.strip_prefix("S ") {
                let payload = unframe_payload(rest).map_err(|e| {
                    Error::Checkpoint(format!("journal {}: {e}", journal_path.display()))
                })?;
                let value = golden::parse(payload)
                    .map_err(|e| Error::Checkpoint(format!("journal sample line: {e}")))?;
                let index = sample_index(&value)?;
                if let Some(existing) = by_index.get(&index) {
                    // The snapshot-to-rotation crash window duplicates
                    // records; they must agree byte-for-byte.
                    let disagreements = golden::diff(existing, &value);
                    if !disagreements.is_empty() {
                        return Err(Error::Checkpoint(format!(
                            "journal {} disagrees with snapshot at sample {index}: {}",
                            journal_path.display(),
                            disagreements.join("; ")
                        )));
                    }
                }
                by_index.insert(index, value);
            } else {
                return Err(Error::Checkpoint(format!(
                    "journal {} has an unknown record kind: {line:?}",
                    journal_path.display()
                )));
            }
        }
        // Committed state is the contiguous prefix; a gap means a record
        // vanished from the middle, which no crash window can produce.
        let mut merged = Vec::with_capacity(by_index.len());
        for (expect, (index, value)) in by_index.into_iter().enumerate() {
            if index != expect {
                return Err(Error::Checkpoint(format!(
                    "journal {} is missing sample {expect} (found {index})",
                    journal_path.display()
                )));
            }
            merged.push(value);
        }
        Ok(Some(RecoveredStudy {
            header_line: header_line.to_string(),
            evals,
            samples: merged,
        }))
    }

    /// The canonical header line this journal was created with.
    pub fn header_line(&self) -> &str {
        &self.header_line
    }

    /// Writes the snapshot now and rotates the journal down to its header
    /// line (everything journaled so far is inside the snapshot). Called
    /// on the snapshot cadence and when a study finishes.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures (including one deferred from
    /// an earlier infallible append).
    pub fn flush(&mut self) -> Result<()> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        // Snapshot first: its atomic rename is the commit point. Only
        // after it lands is discarding the journal body safe.
        self.sink.flush()?;
        let tmp = self.journal_path.with_extension("journal-tmp");
        std::fs::write(&tmp, format!("H {}\n", frame_payload(&self.header_line)))
            .map_err(|e| io_err("writing", &tmp, e))?;
        std::fs::rename(&tmp, &self.journal_path)
            .map_err(|e| io_err("rotating", &self.journal_path, e))?;
        // The old handle points at the replaced inode; reopen.
        self.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.journal_path)
            .map_err(|e| io_err("reopening", &self.journal_path, e))?;
        self.commits_since_snapshot = 0;
        Ok(())
    }

    fn append(&mut self, tag: char, line: &str) -> Result<()> {
        self.file
            .write_all(format!("{tag} {}\n", frame_payload(line)).as_bytes())
            .map_err(|e| io_err("appending to", &self.journal_path, e))
    }
}

impl ObservationSink for StudyJournal {
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult) {
        // WAL discipline: journal first, then the in-memory snapshot sink.
        // This hook is infallible by trait contract; an append failure is
        // parked and raised at the next fallible call.
        if self.deferred.is_none() {
            if let Err(e) = self.append('E', &encode_eval(eval_seed, result)) {
                self.deferred = Some(e);
            }
        }
        self.sink.record_eval(eval_seed, result);
    }

    fn record_commit(&mut self, sample: &Sample) -> Result<()> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        self.append('S', &golden::encode_sample(sample))?;
        self.sink.record_commit(sample)?;
        self.commits_since_snapshot += 1;
        if self.snapshot_every > 0 && self.commits_since_snapshot >= self.snapshot_every {
            self.flush()?;
        }
        Ok(())
    }
}
