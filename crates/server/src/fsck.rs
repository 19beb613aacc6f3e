//! Offline integrity scanning — and salvage — of a study store.
//!
//! `hyperpower fsck` walks a server root directory and checks every
//! study's durable pair (`<name>.journal`, `<name>.snapshot`) without
//! opening the studies. Its scanner is the journal's only reader:
//! [`crate::StudyJournal::load`] runs the same scan, so a store loads
//! exactly when fsck finds nothing worse than a torn tail. Each journal
//! record's CRC32 frame is verified and every record it accepts is fully
//! decoded: the header names this study and a run identity, evaluations
//! decode, and each sample follows the journal's previous one and agrees
//! with the snapshot where the two overlap. The snapshot is decoded
//! through the checkpoint codec's own integrity frame, and its run
//! identity is compared with the journal header's. Findings are typed as
//! [`StoreDefect`]s:
//!
//! * **corrupt frame** — a record whose checksum disagrees with its
//!   payload (bit-rot), a record that fails any of the checks above, a
//!   journal with no complete header, or an undecodable snapshot;
//! * **truncated tail** — trailing bytes with no newline (a torn
//!   mid-append write);
//! * **stale tmp** — an orphaned `*.tmp` / `*.journal-tmp` from a crash
//!   mid-rename;
//! * **header mismatch** — snapshot and journal disagree about the run
//!   identity they claim to persist.
//!
//! Without `salvage` the scan only reads: it changes no byte and removes
//! no file, stale temps included. With `salvage` on, the scanner repairs
//! what determinism makes safe to repair: the journal is truncated to its
//! **last valid record** (everything after the first defective record is
//! suspect — appends are strictly ordered), stale temp files are removed,
//! a defective snapshot is dropped *only when* the journal still holds
//! the complete sample history from slot 0, and a journal with no complete
//! line (killed before its header landed) is removed when no snapshot
//! exists, since nothing was committed. Because a study's schedule is
//! a pure function of `(spec, journaled evaluations)`, replay from any
//! valid durable prefix reconverges to the exact committed bytes — salvage
//! never invents state, it only discards unacknowledged or unverifiable
//! suffixes. The chaos harness proves the round trip: flip seeded bits,
//! fsck --salvage, reopen, byte-compare against the uninterrupted
//! reference.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use hyperpower::checkpoint::{decode_eval, get_num, RunCheckpoint};
use hyperpower::golden::{self, Value};
use hyperpower::integrity::unframe;
use hyperpower::{Error, Result, StoreDefect};

use crate::journal::{io_err, study_paths, JournalHeader};

/// One study's integrity findings.
#[derive(Debug)]
pub struct StudyFsck {
    /// The study (journal file stem).
    pub name: String,
    /// Typed defects with human-readable locations.
    pub defects: Vec<(StoreDefect, String)>,
    /// Checksum-valid journal records (header included).
    pub valid_records: usize,
    /// Whether the remaining durable state can be reopened and replayed
    /// (after salvage, when salvage is on).
    pub recoverable: bool,
    /// What salvage did to this study's files, if anything.
    pub repairs: Vec<String>,
}

impl StudyFsck {
    /// No defects at all.
    pub fn clean(&self) -> bool {
        self.defects.is_empty()
    }
}

/// The whole store's integrity findings.
#[derive(Debug)]
pub struct FsckReport {
    /// The scanned server root.
    pub root: PathBuf,
    /// Per-study findings, in name order.
    pub studies: Vec<StudyFsck>,
    /// Orphaned temp files found (and removed, when salvaging).
    pub stale_tmps: Vec<PathBuf>,
    /// Whether this scan was allowed to repair.
    pub salvaged: bool,
}

impl FsckReport {
    /// True when every study is defect-free and no stale temps exist.
    pub fn clean(&self) -> bool {
        self.stale_tmps.is_empty() && self.studies.iter().all(StudyFsck::clean)
    }

    /// True when every study is (possibly after salvage) recoverable.
    pub fn recoverable(&self) -> bool {
        self.studies.iter().all(|s| s.recoverable)
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fsck {}", self.root.display())?;
        for tmp in &self.stale_tmps {
            let action = if self.salvaged { "removed" } else { "found" };
            writeln!(f, "  {}: {action} stale temp file", tmp.display())?;
        }
        for study in &self.studies {
            if study.clean() {
                writeln!(
                    f,
                    "  {}: ok ({} checksum-valid records)",
                    study.name, study.valid_records
                )?;
                continue;
            }
            for (defect, detail) in &study.defects {
                writeln!(f, "  {}: {defect}: {detail}", study.name)?;
            }
            for repair in &study.repairs {
                writeln!(f, "  {}: salvage: {repair}", study.name)?;
            }
            writeln!(
                f,
                "  {}: {} ({} checksum-valid records)",
                study.name,
                if study.recoverable {
                    "recoverable"
                } else {
                    "UNRECOVERABLE"
                },
                study.valid_records
            )?;
        }
        let verdict = if self.clean() {
            "clean"
        } else if self.recoverable() {
            "defects found, all studies recoverable"
        } else {
            "defects found, some studies UNRECOVERABLE"
        };
        write!(f, "  store: {verdict}")
    }
}

/// Scans every study under `root`; with `salvage`, also repairs (see the
/// module docs for exactly what is — and is not — repaired).
///
/// # Errors
///
/// [`Error::Checkpoint`] only on I/O failures of the scan itself; store
/// corruption is a *finding*, never an error.
pub fn fsck_store(root: &Path, salvage: bool) -> Result<FsckReport> {
    let mut report = FsckReport {
        root: root.to_path_buf(),
        studies: Vec::new(),
        stale_tmps: Vec::new(),
        salvaged: salvage,
    };
    let mut names = Vec::new();
    let entries = std::fs::read_dir(root).map_err(|e| io_err("reading", root, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("reading", root, e))?;
        let path = entry.path();
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if file_name.ends_with(".tmp") || file_name.ends_with(".journal-tmp") {
            report.stale_tmps.push(path.clone());
            if salvage {
                std::fs::remove_file(&path).map_err(|e| io_err("removing", &path, e))?;
            }
        } else if let Some(stem) = file_name.strip_suffix(".journal") {
            names.push(stem.to_string());
        }
    }
    names.sort();
    report.stale_tmps.sort();
    for name in names {
        report.studies.push(fsck_study(root, &name, salvage)?);
    }
    Ok(report)
}

/// One pass over a study's durable pair by the journal's only reader.
pub(crate) struct StudyScan {
    /// Byte length of the journal's valid prefix.
    valid_prefix_bytes: usize,
    /// Records in the valid prefix, header included.
    valid_records: usize,
    /// The journal's first defect; the scan reads nothing past it.
    journal_defect: Option<(StoreDefect, String)>,
    /// The journal holds no complete line: killed before its header landed.
    headerless: bool,
    /// Why the snapshot was not merged: it does not decode, or another run
    /// wrote it.
    snapshot_defect: Option<Error>,
    /// The header's run identity with the snapshot's evaluations and
    /// samples, then the journal's evaluations, merged in; `None` until the
    /// header record decodes.
    state: Option<RunCheckpoint>,
    /// The journal's samples past the snapshot's, in trace order.
    tail: Vec<Value>,
    /// Trace slots of the journal's first and latest sample records.
    first_sample: Option<usize>,
    last_sample: Option<usize>,
}

/// Scans study `name`'s journal up to its first defect, merging the
/// snapshot under the journal header's run identity.
///
/// # Errors
///
/// [`Error::Checkpoint`] only when the journal cannot be read; defects in
/// what it holds are findings.
pub(crate) fn scan_study(root: &Path, name: &str) -> Result<StudyScan> {
    let (journal_path, snapshot_path) = study_paths(root, name);
    let bytes = std::fs::read(&journal_path).map_err(|e| io_err("reading", &journal_path, e))?;
    let mut scan = StudyScan {
        valid_prefix_bytes: 0,
        valid_records: 0,
        journal_defect: None,
        headerless: false,
        snapshot_defect: None,
        state: None,
        tail: Vec::new(),
        first_sample: None,
        last_sample: None,
    };
    let mut offset = 0usize;
    let mut line_no = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            // Torn mid-append tail: unacknowledged, safe to drop.
            scan.journal_defect = Some((
                StoreDefect::TruncatedTail,
                format!("{} trailing bytes with no newline", bytes.len() - offset),
            ));
            break;
        };
        line_no += 1;
        let line_end = offset + nl + 1;
        if let Err(detail) = scan.read_record(&bytes[offset..offset + nl], name, &snapshot_path) {
            // Appends are strictly ordered: everything past the first
            // bad record is suspect and excluded from the valid prefix.
            scan.journal_defect = Some((
                StoreDefect::CorruptFrame,
                format!("line {line_no}: {detail}"),
            ));
            break;
        }
        scan.valid_prefix_bytes = line_end;
        scan.valid_records += 1;
        offset = line_end;
    }
    // The header binds the journal to a run; without a whole one not even
    // a torn tail is benign.
    if scan.state.is_none() && !matches!(scan.journal_defect, Some((StoreDefect::CorruptFrame, _)))
    {
        scan.headerless = true;
        scan.journal_defect = Some((
            StoreDefect::CorruptFrame,
            "no complete header record".to_string(),
        ));
    }
    Ok(scan)
}

impl StudyScan {
    /// Checks and decodes one journal line; `Err` describes its defect.
    fn read_record(
        &mut self,
        raw: &[u8],
        name: &str,
        snapshot_path: &Path,
    ) -> std::result::Result<(), String> {
        let line = std::str::from_utf8(raw).map_err(|_| "not UTF-8".to_string())?;
        let (tag, framed) = match line.split_once(' ') {
            Some((tag @ ("H" | "E" | "S"), framed)) => (tag, framed),
            _ => return Err("unknown record kind".to_string()),
        };
        let payload = unframe(framed, ' ').map_err(|e| format!("corrupt frame: {e}"))?;
        let Some(state) = self.state.as_mut() else {
            return match tag {
                "H" => self.open(payload, name, snapshot_path),
                _ => Err("missing `H ` header record".to_string()),
            };
        };
        match tag {
            "E" => {
                let (seed, result) = golden::parse(payload)
                    .map_err(Error::Checkpoint)
                    .and_then(|value| decode_eval(&value))
                    .map_err(|e| format!("undecodable evaluation: {e}"))?;
                state.evals.insert(seed, result);
            }
            "S" => {
                let value =
                    golden::parse(payload).map_err(|e| format!("undecodable sample: {e}"))?;
                let index = sample_index(&value)?;
                // Each sample follows the journal's previous one. The first
                // continues the snapshot, or repeats its tail when a crash
                // fell between a snapshot and the rotation after it. Past an
                // unusable snapshot only the journal's own order is known.
                let in_order = match self.last_sample {
                    Some(last) => last.checked_add(1) == Some(index),
                    None => self.snapshot_defect.is_some() || index <= state.samples.len(),
                };
                if !in_order {
                    return Err(format!("sample {index} is out of order"));
                }
                match state.samples.get(index) {
                    Some(recorded) => {
                        let diffs = golden::diff(recorded, &value);
                        if !diffs.is_empty() {
                            return Err(format!(
                                "sample {index} disagrees with the snapshot: {}",
                                diffs.join("; ")
                            ));
                        }
                    }
                    None => self.tail.push(value),
                }
                self.first_sample.get_or_insert(index);
                self.last_sample = Some(index);
            }
            _ => return Err("a second header record".to_string()),
        }
        Ok(())
    }

    /// Decodes the header record and merges the snapshot under its run
    /// identity when the snapshot decodes and that run wrote it.
    fn open(
        &mut self,
        payload: &str,
        name: &str,
        snapshot_path: &Path,
    ) -> std::result::Result<(), String> {
        let header =
            JournalHeader::decode(payload).map_err(|e| format!("undecodable header: {e}"))?;
        if header.name != name {
            return Err(format!("the header names study {:?}", header.name));
        }
        let mut state = RunCheckpoint {
            header: header.run,
            evals: BTreeMap::new(),
            samples: Vec::new(),
        };
        if snapshot_path.exists() {
            let snapshot = RunCheckpoint::load(snapshot_path).and_then(|snapshot| {
                state.header.verify("snapshot", &snapshot.header)?;
                Ok(snapshot)
            });
            match snapshot {
                Ok(snapshot) => {
                    state.evals = snapshot.evals;
                    state.samples = snapshot.samples;
                }
                Err(e) => self.snapshot_defect = Some(e),
            }
        }
        self.state = Some(state);
        Ok(())
    }

    /// The merged durable state, when the scan found nothing worse than a
    /// torn final journal line (which it dropped).
    pub(crate) fn into_state(self, journal_path: &Path) -> Result<RunCheckpoint> {
        if let Some((defect, detail)) = self.journal_defect {
            if defect != StoreDefect::TruncatedTail {
                return Err(Error::Checkpoint(format!(
                    "journal {}: {detail}",
                    journal_path.display()
                )));
            }
        }
        if let Some(e) = self.snapshot_defect {
            return Err(e);
        }
        let mut state = self.state.ok_or_else(|| {
            Error::Checkpoint(format!(
                "journal {} has no header record",
                journal_path.display()
            ))
        })?;
        state.samples.extend(self.tail);
        Ok(state)
    }
}

/// The trace slot a journaled sample occupies.
fn sample_index(value: &Value) -> std::result::Result<usize, String> {
    let Value::Object(members) = value else {
        return Err("the sample is not an object".to_string());
    };
    let index = get_num(members, "index").map_err(|e| format!("undecodable sample: {e}"))?;
    Ok(index as usize)
}

fn fsck_study(root: &Path, name: &str, salvage: bool) -> Result<StudyFsck> {
    let (journal_path, snapshot_path) = study_paths(root, name);
    let scan = scan_study(root, name)?;
    let mut study = StudyFsck {
        name: name.to_string(),
        defects: Vec::new(),
        valid_records: scan.valid_records,
        recoverable: true,
        repairs: Vec::new(),
    };
    // A journal whose header never landed holds nothing committed, so
    // with no snapshot beside it salvage removes it and frees the name.
    let removable = scan.headerless && !snapshot_path.exists();
    if let Some(defect) = scan.journal_defect {
        study.defects.push(defect);
        if salvage && removable {
            std::fs::remove_file(&journal_path)
                .map_err(|e| io_err("removing", &journal_path, e))?;
            study
                .repairs
                .push("removed the journal, whose header never landed".to_string());
        } else if salvage {
            truncate_file(&journal_path, scan.valid_prefix_bytes)?;
            study.repairs.push(format!(
                "truncated journal to its last valid frame ({} bytes, {} records)",
                scan.valid_prefix_bytes, scan.valid_records
            ));
        }
    }
    // Otherwise a journal whose header frame is gone cannot be reopened:
    // the header binds the durable state to a run identity, and fsck will
    // not guess one.
    if scan.state.is_none() {
        study.recoverable = removable;
        return Ok(study);
    }
    let Some(e) = scan.snapshot_defect else {
        return Ok(study);
    };
    study.defects.push(match e {
        Error::ResumeMismatch(_) => (StoreDefect::HeaderMismatch, e.to_string()),
        _ => (
            StoreDefect::CorruptFrame,
            format!("snapshot undecodable: {e}"),
        ),
    });
    // A defective snapshot is only droppable when the journal still holds
    // every sample from slot 0 — otherwise committed history lives nowhere
    // else and the study is unrecoverable. Conservative: a rotated
    // (samples-free) journal cannot prove the snapshot held nothing.
    if scan.first_sample != Some(0) {
        study.recoverable = false;
    } else if salvage {
        std::fs::remove_file(&snapshot_path).map_err(|e| io_err("removing", &snapshot_path, e))?;
        study
            .repairs
            .push("dropped the defective snapshot (journal holds the full history)".to_string());
    }
    Ok(study)
}

fn truncate_file(path: &Path, len: usize) -> Result<()> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("opening", path, e))?;
    file.set_len(len as u64)
        .map_err(|e| io_err("truncating", path, e))
}
