//! Offline integrity scanning — and salvage — of a study store.
//!
//! `hyperpower fsck` walks a server root directory and checks every
//! study's durable pair (`<name>.journal`, `<name>.snapshot`) without
//! opening the studies: each journal record's CRC32 frame is verified,
//! the snapshot is decoded through the checkpoint codec's own integrity
//! frame, and the two headers are cross-checked. Findings are typed as
//! [`StoreDefect`]s:
//!
//! * **corrupt frame** — a record whose checksum disagrees with its
//!   payload (bit-rot), or an undecodable snapshot;
//! * **truncated tail** — trailing bytes with no newline (a torn
//!   mid-append write);
//! * **stale tmp** — an orphaned `*.tmp` / `*.journal-tmp` from a crash
//!   mid-rename;
//! * **header mismatch** — snapshot and journal disagree about the run
//!   identity they claim to persist.
//!
//! With `salvage` on, the scanner repairs what determinism makes safe to
//! repair: the journal is truncated to its **last checksum-valid frame**
//! (everything after the first bad frame is suspect — appends are
//! strictly ordered), stale temp files are removed, and a defective
//! snapshot is dropped *only when* the journal still holds the complete
//! sample history from slot 0. Because a study's schedule is a pure
//! function of `(spec, journaled evaluations)`, replay from any valid
//! durable prefix reconverges to the exact committed bytes — salvage
//! never invents state, it only discards unacknowledged or unverifiable
//! suffixes. The chaos harness proves the round trip: flip seeded bits,
//! fsck --salvage, reopen, byte-compare against the uninterrupted
//! reference.

use std::fmt;
use std::path::{Path, PathBuf};

use hyperpower::checkpoint::RunCheckpoint;
use hyperpower::golden;
use hyperpower::{Error, Result, StoreDefect};

use crate::journal::{
    encode_header_line, sample_index, study_paths, unframe_payload, JournalHeader,
};

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

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Checkpoint(format!("{what} {}: {e}", path.display()))
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

/// A parsed pass over one journal: the byte length of the valid framed
/// prefix, the records inside it, and the first defect (if any).
struct JournalScan {
    valid_prefix_bytes: usize,
    valid_records: usize,
    header_payload: Option<String>,
    sample_indices: Vec<usize>,
    defect: Option<(StoreDefect, String)>,
}

fn scan_journal(path: &Path) -> Result<JournalScan> {
    let bytes = std::fs::read(path).map_err(|e| io_err("reading", path, e))?;
    let mut scan = JournalScan {
        valid_prefix_bytes: 0,
        valid_records: 0,
        header_payload: None,
        sample_indices: Vec::new(),
        defect: None,
    };
    let mut offset = 0usize;
    let mut line_no = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            // Torn mid-append tail: unacknowledged, safe to drop.
            scan.defect = Some((
                StoreDefect::TruncatedTail,
                format!("{} trailing bytes with no newline", bytes.len() - offset),
            ));
            break;
        };
        line_no += 1;
        let line_end = offset + nl + 1;
        let verdict = check_line(&bytes[offset..offset + nl], line_no, &mut scan);
        match verdict {
            Ok(()) => {
                scan.valid_prefix_bytes = line_end;
                scan.valid_records += 1;
            }
            Err(detail) => {
                // Appends are strictly ordered: everything past the first
                // bad frame is suspect and excluded from the valid prefix.
                scan.defect = Some((StoreDefect::CorruptFrame, detail));
                break;
            }
        }
        offset = line_end;
    }
    Ok(scan)
}

/// Verifies one journal line's tag and integrity frame, recording what it
/// holds. Returns a defect detail string on failure.
fn check_line(
    raw: &[u8],
    line_no: usize,
    scan: &mut JournalScan,
) -> std::result::Result<(), String> {
    let line = std::str::from_utf8(raw).map_err(|_| format!("line {line_no}: not UTF-8"))?;
    let (tag, rest) = match (line.strip_prefix("H "), line_no) {
        (Some(rest), 1) => ('H', rest),
        (None, 1) => return Err("line 1: missing `H ` header record".to_string()),
        _ => match (line.strip_prefix("E "), line.strip_prefix("S ")) {
            (Some(rest), _) => ('E', rest),
            (_, Some(rest)) => ('S', rest),
            _ => return Err(format!("line {line_no}: unknown record kind")),
        },
    };
    let payload = unframe_payload(rest).map_err(|e| format!("line {line_no}: {e}"))?;
    match tag {
        'H' => scan.header_payload = Some(payload.to_string()),
        'S' => {
            let value = golden::parse(payload)
                .map_err(|e| format!("line {line_no}: undecodable sample: {e}"))?;
            let index = sample_index(&value).map_err(|e| format!("line {line_no}: {e}"))?;
            scan.sample_indices.push(index);
        }
        _ => {}
    }
    Ok(())
}

fn fsck_study(root: &Path, name: &str, salvage: bool) -> Result<StudyFsck> {
    let (journal_path, snapshot_path) = study_paths(root, name);
    let mut study = StudyFsck {
        name: name.to_string(),
        defects: Vec::new(),
        valid_records: 0,
        recoverable: true,
        repairs: Vec::new(),
    };
    let scan = scan_journal(&journal_path)?;
    study.valid_records = scan.valid_records;
    if let Some(defect) = scan.defect.clone() {
        study.defects.push(defect);
        if salvage {
            truncate_file(&journal_path, scan.valid_prefix_bytes)?;
            study.repairs.push(format!(
                "truncated journal to its last valid frame ({} bytes, {} records)",
                scan.valid_prefix_bytes, scan.valid_records
            ));
        }
    }
    // A journal whose header frame itself is gone cannot be reopened: the
    // header binds the durable state to a run identity, and fsck will not
    // guess one.
    if scan.header_payload.is_none() {
        study.recoverable = false;
        return Ok(study);
    }
    if snapshot_path.exists() {
        check_snapshot(&snapshot_path, &scan, salvage, &mut study)?;
    }
    Ok(study)
}

/// Decodes the snapshot through the checkpoint codec (which verifies its
/// own whole-file integrity frame) and cross-checks its header against
/// the journal's. A defective snapshot is only droppable when the journal
/// still holds every sample from slot 0 — otherwise committed history
/// lives nowhere else and the study is unrecoverable.
fn check_snapshot(
    snapshot_path: &Path,
    scan: &JournalScan,
    salvage: bool,
    study: &mut StudyFsck,
) -> Result<()> {
    let defect = match RunCheckpoint::load(snapshot_path) {
        Err(e) => Some((
            StoreDefect::CorruptFrame,
            format!("snapshot undecodable: {e}"),
        )),
        Ok(snapshot) => {
            let expected = encode_header_line(&JournalHeader {
                name: study.name.clone(),
                run: snapshot.header,
            });
            if scan.header_payload.as_deref() == Some(expected.as_str()) {
                None
            } else {
                Some((
                    StoreDefect::HeaderMismatch,
                    "snapshot and journal disagree about the run identity".to_string(),
                ))
            }
        }
    };
    let Some(defect) = defect else {
        return Ok(());
    };
    study.defects.push(defect);
    // Conservative: a rotated (samples-free) journal cannot prove the
    // defective snapshot held nothing, so it does not count as coverage.
    let journal_covers_zero = {
        let mut sorted = scan.sample_indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        !sorted.is_empty() && sorted[0] == 0 && sorted.windows(2).all(|w| w[1] == w[0] + 1)
    };
    if !journal_covers_zero {
        study.recoverable = false;
        return Ok(());
    }
    if salvage {
        std::fs::remove_file(snapshot_path).map_err(|e| io_err("removing", snapshot_path, e))?;
        study
            .repairs
            .push("dropped the defective snapshot (journal holds the full history)".to_string());
    }
    Ok(())
}

fn truncate_file(path: &Path, len: usize) -> Result<()> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("opening", path, e))?;
    file.set_len(len as u64)
        .map_err(|e| io_err("truncating", path, e))
}
