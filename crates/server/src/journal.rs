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
//!   with no checksum at all. Each commit appends its records in one
//!   write, its `E` record (if it trained) and then its `S` record,
//!   before the tell returns and before the snapshot sink may write them
//!   — the WAL discipline — so the journal is never behind the snapshot.
//!   Each record is encoded once, and the sink keeps the same line.
//! * `<name>.snapshot` — a complete [`hyperpower::checkpoint`] file
//!   (schema `hyperpower-checkpoint-v2`, CRC32-framed as a whole by the
//!   checkpoint codec), written atomically (temp + rename) every
//!   `snapshot_every` commits by the [`CheckpointSink`], and once
//!   more when the study finishes unless that write already holds every
//!   commit. After each snapshot the journal **rotates**: it is
//!   atomically rewritten to just its header line, because everything it
//!   held is now inside the snapshot. The steady-state journal is
//!   therefore short — the tail since the last snapshot — while the
//!   snapshot bounds replay work.
//!
//! # One reader
//!
//! The journal has one reader, fsck's scanner ([`crate::fsck`]). It
//! checks every record's frame, decodes every record it accepts, and
//! merges the snapshot under the header's run identity.
//! [`StudyJournal::load`] is that scan, refusing any defect but a torn
//! final line, so it succeeds exactly when `fsck` finds nothing worse.
//! Reading writes nothing: the stale temp files below are swept by
//! [`StudyJournal::create`] and `StudyJournal::reopen`, the two paths
//! that open a study to write.
//!
//! # Crash windows, enumerated
//!
//! A `kill -9` can land anywhere; every window leaves recoverable state:
//!
//! * **mid-create** — between [`StudyJournal::create`] opening the journal
//!   and its header write: an empty (or torn) journal and no snapshot.
//!   Nothing was committed, so `fsck --salvage` removes it.
//! * **mid-append** — the last commit's records are torn at any byte:
//!   the journal ends in a line with no trailing newline, or in that
//!   commit's whole `E` record alone. [`StudyJournal::load`] drops the
//!   torn line, and an evaluation no sample consumed only answers the
//!   replay's proposal again; the commit was not yet acknowledged
//!   anywhere, so losing it is the correct serialization.
//! * **mid-snapshot** — the snapshot write is atomic; a crash strands a
//!   stale `*.tmp` beside it, which the next create or open sweeps. The
//!   journal still holds everything.
//! * **between snapshot and rotation** — the journal duplicates records
//!   the snapshot already holds. Recovery merges the two keyed by sample
//!   index and verifies overlapping records byte-for-byte.
//! * **mid-rotation** — the rotation rewrite is itself atomic
//!   (temp + rename, distinct temp suffix from the snapshot's); a crash
//!   strands `<name>.journal-tmp`, swept on the next create or open.
//! * **mid-reopen** — a reopen writes through the two atomic steps above,
//!   snapshot first, so a crash inside it lands in one of their windows:
//!   the old journal and snapshot, or the new snapshot beside the old
//!   journal. Neither is ever truncated in place.
//!
//! Recovery never trusts the merged state blindly, and writes nothing
//! until it has checked it: the study replays the loaded records
//! ([`hyperpower::Study::replay`]) into its held snapshot sink
//! ([`CheckpointSink::held`]), which keeps them in memory, and
//! byte-verifies every recorded sample. Only then are
//! the snapshot written and the journal rotated to its header line, so a
//! store that fails verification is left as it was, and a reopened
//! journal never grows. A fresh study's journal is written once, as its
//! header line, by [`StudyJournal::create`].

use std::io::Write;
use std::path::{Path, PathBuf};

use hyperpower::checkpoint::{
    encode_eval, get_str, CheckpointConfig, CheckpointHeader, CheckpointSink, RunCheckpoint,
};
use hyperpower::golden;
use hyperpower::integrity::frame;
use hyperpower::{Error, EvaluationResult, ObservationSink, Result, Sample};

/// Wire schema marker of the journal header line.
const JOURNAL_SCHEMA: &str = "hyperpower-study-journal-v2";

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

/// Encodes the header as a single journal line (sans the `H ` tag): the
/// study's name, then the run identity in its one encoding
/// ([`CheckpointHeader::encode_members`]).
pub fn encode_header_line(header: &JournalHeader) -> String {
    format!(
        "{{\"schema\": \"{JOURNAL_SCHEMA}\", \"name\": \"{}\", {}}}",
        header.name,
        header.run.encode_members()
    )
}

impl JournalHeader {
    /// Decodes a header record's payload, the [`encode_header_line`] form.
    pub(crate) fn decode(payload: &str) -> Result<Self> {
        let (run, members) = CheckpointHeader::decode(payload, JOURNAL_SCHEMA)?;
        Ok(JournalHeader {
            name: get_str(&members, "name")?,
            run,
        })
    }
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
    /// Line 1 of the journal, the framed `H` record: written by create and
    /// by every rotation.
    header_record: String,
    /// The snapshot writer, on the snapshot cadence.
    sink: CheckpointSink,
    /// The records of the commit in progress, framed: its `E` record once
    /// `record_eval` has seen it, then its `S` record. `record_commit`
    /// writes them in one append and empties it.
    pending: String,
}

/// The two durable files of study `name` under `root`.
pub fn study_paths(root: &Path, name: &str) -> (PathBuf, PathBuf) {
    (
        root.join(format!("{name}.journal")),
        root.join(format!("{name}.snapshot")),
    )
}

pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Checkpoint(format!("{what} {}: {e}", path.display()))
}

/// Where and how often study `header.name`'s snapshot is written: every
/// `snapshot_every` commits, or only when flushed for `0`.
fn snapshot_config(root: &Path, header: &JournalHeader, snapshot_every: usize) -> CheckpointConfig {
    CheckpointConfig {
        path: study_paths(root, &header.name).1,
        every_commits: snapshot_every,
    }
}

impl StudyJournal {
    /// Creates durable state for a fresh study, one with no journal yet:
    /// the journal starts as its header line, and the snapshot sink starts
    /// empty. Orphaned temp files from crashed predecessors (both the
    /// snapshot's `*.tmp` and the rotation's `*.journal-tmp`) are swept.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures.
    pub fn create(root: &Path, header: &JournalHeader, snapshot_every: usize) -> Result<Self> {
        std::fs::create_dir_all(root).map_err(|e| io_err("creating", root, e))?;
        let sink = CheckpointSink::new(snapshot_config(root, header, snapshot_every), &header.run);
        let mut journal = Self::open(root, header, sink)?;
        journal
            .file
            .write_all(journal.header_record.as_bytes())
            .map_err(|e| io_err("writing", &journal.journal_path, e))?;
        Ok(journal)
    }

    /// Reopens a recovered study: `replay` fills a held snapshot sink,
    /// which writes nothing, and only once it has verified is that state
    /// written as the snapshot and the journal rotated down to its header
    /// line, each step atomic. Sweeps an orphaned snapshot `*.tmp`.
    ///
    /// # Errors
    ///
    /// Whatever `replay` returns, and [`Error::Checkpoint`] on I/O failures.
    pub(crate) fn reopen(
        root: &Path,
        header: &JournalHeader,
        snapshot_every: usize,
        replay: impl FnOnce(&mut CheckpointSink) -> Result<()>,
    ) -> Result<Self> {
        let config = snapshot_config(root, header, snapshot_every);
        let mut snapshot = CheckpointSink::held(config, &header.run);
        replay(&mut snapshot)?;
        let mut journal = Self::open(root, header, snapshot)?;
        journal.flush()?;
        Ok(journal)
    }

    /// Opens the journal for appending, creating it if absent, and sweeps
    /// a stranded rotation temp.
    fn open(root: &Path, header: &JournalHeader, sink: CheckpointSink) -> Result<Self> {
        let (journal_path, _) = study_paths(root, &header.name);
        std::fs::remove_file(journal_path.with_extension("journal-tmp")).ok();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&journal_path)
            .map_err(|e| io_err("opening", &journal_path, e))?;
        let mut header_record = String::new();
        push_record(&mut header_record, 'H', &encode_header_line(header));
        Ok(StudyJournal {
            journal_path,
            file,
            header_record,
            sink,
            pending: String::new(),
        })
    }

    /// Loads the durable state of study `name`, or `None` when no journal
    /// exists: fsck's scan of the journal and snapshot ([`crate::fsck`]),
    /// which refuses any defect but a torn final line and merges the
    /// snapshot with the journal's records by sample index.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures, a defective journal record or
    /// an undecodable snapshot; [`Error::ResumeMismatch`] when another run
    /// wrote the snapshot, naming each field that differs.
    pub fn load(root: &Path, name: &str) -> Result<Option<RunCheckpoint>> {
        let (journal_path, _) = study_paths(root, name);
        if !journal_path.exists() {
            return Ok(None);
        }
        crate::fsck::scan_study(root, name)?
            .into_state(&journal_path)
            .map(Some)
    }

    /// Writes the snapshot now, unless it already holds every commit, and
    /// then rotates the journal down to its header line (everything
    /// journaled so far is inside the snapshot). Called when a study
    /// finishes and on every later request to it, which find nothing to
    /// write.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures.
    pub fn flush(&mut self) -> Result<()> {
        if self.sink.flush()? {
            self.rotate()
        } else {
            Ok(())
        }
    }

    /// Rotates the journal down to its header record, once the snapshot
    /// holds everything journaled so far: the snapshot's atomic rename is
    /// the commit point, so only after it lands is discarding the journal
    /// body safe.
    fn rotate(&mut self) -> Result<()> {
        let tmp = self.journal_path.with_extension("journal-tmp");
        std::fs::write(&tmp, &self.header_record).map_err(|e| io_err("writing", &tmp, e))?;
        std::fs::rename(&tmp, &self.journal_path)
            .map_err(|e| io_err("rotating", &self.journal_path, e))?;
        // The old handle points at the replaced inode; reopen.
        self.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.journal_path)
            .map_err(|e| io_err("reopening", &self.journal_path, e))?;
        Ok(())
    }
}

/// Appends one journal record to `out`: `tag`, a space, the framed
/// `payload` and a newline.
fn push_record(out: &mut String, tag: char, payload: &str) {
    out.push(tag);
    out.push(' ');
    frame(out, ' ', |out| out.push_str(payload));
    out.push('\n');
}

impl ObservationSink for StudyJournal {
    /// Frames the evaluation's `E` record for the commit that consumes it,
    /// which the trait's order makes the next call; no I/O happens here.
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult) {
        let line = encode_eval(eval_seed, result);
        push_record(&mut self.pending, 'E', &line);
        self.sink.record_eval_line(line);
    }

    /// Appends the commit's records, its `E` (if it trained) and `S`, in
    /// one write, and only then hands the sample to the snapshot sink,
    /// whose cadence write rotates the journal: the WAL discipline.
    fn record_commit(&mut self, sample: &Sample) -> Result<()> {
        let line = golden::encode_sample(sample);
        push_record(&mut self.pending, 'S', &line);
        let appended = self.file.write_all(self.pending.as_bytes());
        self.pending.clear();
        appended.map_err(|e| io_err("appending to", &self.journal_path, e))?;
        if self.sink.record_commit_line(line)? {
            self.rotate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpower::Budget;

    /// A header record exactly as releases before the shared identity
    /// encoder wrote it (study `pinned` of the server contract suite).
    const EARLIER_HEADER_RECORD: &str = "H 1e4431ad {\"schema\": \"hyperpower-study-journal-v2\", \
        \"name\": \"pinned\", \"seed\": \"1592591846\", \"method\": \"Rand\", \"mode\": \"HyperPower\", \
        \"budget\": {\"kind\": \"evaluations\", \"value\": 4.0}, \"simulated_gpus\": 1, \
        \"fault_profile\": \"none\", \"max_retries\": 2, \"recalibrate\": false, \
        \"drift_threshold\": 0.15, \"safety_margin\": 0.0}";

    #[test]
    fn the_header_record_is_byte_identical_to_earlier_releases() {
        let header = JournalHeader {
            name: "pinned".into(),
            run: CheckpointHeader {
                seed: 1_592_591_846,
                method: "Rand".into(),
                mode: "HyperPower".into(),
                budget: Budget::Evaluations(4),
                simulated_gpus: 1,
                fault_profile: "none".into(),
                max_retries: 2,
                recalibrate: false,
                drift_threshold: 0.15,
                safety_margin: 0.0,
            },
        };
        let mut record = String::new();
        push_record(&mut record, 'H', &encode_header_line(&header));
        let record = record.strip_suffix('\n').unwrap();
        assert_eq!(record, EARLIER_HEADER_RECORD);
        let payload = record.split_once(' ').unwrap().1.split_once(' ').unwrap().1;
        assert_eq!(JournalHeader::decode(payload).unwrap(), header);
    }
}
