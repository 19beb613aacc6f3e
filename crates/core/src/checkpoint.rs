//! Crash-resumable runs: periodic trace checkpoints and bit-exact resume.
//!
//! The executor periodically persists its committed [`Sample`]s and every
//! raw objective evaluation to a checkpoint file encoded with the
//! [`crate::golden`] codec (schema `hyperpower-checkpoint-v2`). Resuming
//! *replays* the run ([`crate::Study::replay`], the one resume path, which
//! the study server's journal recovery takes too): the schedule restarts
//! from the run seed — proposals, sensor draws, fault schedules and commit
//! order come out identical by construction — while the checkpoint's
//! recorded [`EvaluationResult`]s answer the expensive objective calls
//! that already ran. Once the replay has committed the recorded samples,
//! they are verified bit-for-bit against it ([`crate::golden::diff`])
//! before the run goes on, so a resume can never silently diverge from
//! the interrupted run.
//!
//! A resume replays into a held sink ([`CheckpointSink::held`]), flushed
//! only once the replay verifies, so it never rewrites a file first.
//!
//! The file is written atomically (temp file + rename) so a crash *during*
//! checkpointing leaves the previous checkpoint intact. A crash between
//! the temp write and the rename can strand a stale `*.tmp` beside the
//! checkpoint. The paths that open a checkpoint to write or resume it
//! sweep such orphans away ([`CheckpointSink::new`] and the executor's
//! resume); decoding ([`RunCheckpoint::load`]) only reads, so a read-only
//! scan of a store changes no file.
//!
//! # Integrity frame (v2)
//!
//! Crashes are not the only way durable state dies: bytes at rest rot.
//! Since codec v2 every checkpoint is *checksum-framed*: line 1 is
//! `C <crc32>` — eight lowercase hex digits of the [`crate::integrity`]
//! CRC32 over everything after that line — and the JSON body follows
//! unchanged. A reader verifies the frame before parsing, so a flipped
//! bit surfaces as a typed [`Error::Checkpoint`] instead of resuming a
//! corrupted run. Files with a broken or missing frame are refused.
//!
//! # Run identity
//!
//! The body opens with the run identity, [`CheckpointHeader`], on one
//! line. [`CheckpointHeader::encode_members`] is its one encoding: the
//! study journal's header record embeds the same members, and
//! [`CheckpointHeader::verify`] compares two identities by it, naming
//! every field that differs. The decoder ignores whitespace, so files
//! that spread the members over one line each still load.
//!
//! The eval-record codec ([`encode_eval`], [`decode_eval`]) and the field
//! accessors are public so the study server's write-ahead journal speaks
//! the same dialect.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::driver::{Budget, Sample};
use crate::golden::{self, Value};
use crate::objective::EvaluationResult;
use crate::{Error, Result};

/// Where and how often the executor checkpoints a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file path (created/overwritten; written atomically).
    pub path: PathBuf,
    /// Write the file every this many committed samples; `0` writes only
    /// when the sink is flushed (the final state is always written when
    /// the run ends).
    pub every_commits: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `path` after every commit.
    pub fn every_commit(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_commits: 1,
        }
    }
}

/// The run identity a checkpoint is bound to. Resume refuses to mix
/// checkpoints across seeds, methods, budgets, schedules or fault setups.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointHeader {
    /// Run seed.
    pub seed: u64,
    /// Method label (wire form, e.g. `"hw-ieci"`).
    pub method: String,
    /// Mode label (wire form).
    pub mode: String,
    /// Stop criterion.
    pub budget: Budget,
    /// Virtual schedule width (semantic knob; worker *threads* are not
    /// part of run identity).
    pub simulated_gpus: usize,
    /// Fault profile name (e.g. `"none"`, `"flaky-sensor"`).
    pub fault_profile: String,
    /// Retry budget in force.
    pub max_retries: u32,
    /// Whether online recalibration was enabled (semantic knob: a
    /// recalibrating run commits different oracles, so its checkpoints are
    /// not interchangeable with a non-recalibrating run's).
    pub recalibrate: bool,
    /// Drift threshold in force.
    pub drift_threshold: f64,
    /// Safety-margin step in force.
    pub safety_margin: f64,
}

/// Schema marker of a checkpoint body.
const CHECKPOINT_SCHEMA: &str = "hyperpower-checkpoint-v2";

impl CheckpointHeader {
    /// The run identity as golden-codec object members on one line, from
    /// `"seed"` to `"safety_margin"`. The checkpoint body and the study
    /// journal's header record both write exactly these bytes.
    pub fn encode_members(&self) -> String {
        let (budget_kind, budget_value) = match self.budget {
            Budget::Evaluations(n) => ("evaluations", n as f64),
            Budget::VirtualHours(h) => ("virtual_hours", h),
        };
        format!(
            "\"seed\": \"{}\", \"method\": \"{}\", \"mode\": \"{}\", \"budget\": {{\"kind\": \
             \"{budget_kind}\", \"value\": {budget_value:?}}}, \"simulated_gpus\": {}, \
             \"fault_profile\": \"{}\", \"max_retries\": {}, \"recalibrate\": {}, \
             \"drift_threshold\": {:?}, \"safety_margin\": {:?}",
            self.seed,
            self.method,
            self.mode,
            self.simulated_gpus,
            self.fault_profile,
            self.max_retries,
            self.recalibrate,
            self.drift_threshold,
            self.safety_margin,
        )
    }

    /// Parses `text` as one golden-codec object whose `schema` member is
    /// `schema`, and decodes the run identity among its members. Returns
    /// the identity and every member, for the caller's own fields.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on malformed text, another schema, or a
    /// missing or mistyped identity member.
    pub fn decode(text: &str, schema: &str) -> Result<(Self, Vec<(String, Value)>)> {
        let value =
            golden::parse(text).map_err(|e| Error::Checkpoint(format!("parse error: {e}")))?;
        let Value::Object(members) = value else {
            return Err(Error::Checkpoint("top level is not an object".into()));
        };
        let found = get_str(&members, "schema")?;
        if found != schema {
            return Err(Error::Checkpoint(format!("unknown schema {found:?}")));
        }
        let budget = match obj_get(&members, "budget") {
            Some(Value::Object(b)) => {
                let value = get_num(b, "value")?;
                match get_str(b, "kind")?.as_str() {
                    "evaluations" => Budget::Evaluations(value as usize),
                    "virtual_hours" => Budget::VirtualHours(value),
                    other => {
                        return Err(Error::Checkpoint(format!("unknown budget kind {other:?}")))
                    }
                }
            }
            _ => return Err(Error::Checkpoint("missing object field `budget`".into())),
        };
        let header = CheckpointHeader {
            seed: get_u64_str(&members, "seed")?,
            method: get_str(&members, "method")?,
            mode: get_str(&members, "mode")?,
            budget,
            simulated_gpus: get_num(&members, "simulated_gpus")? as usize,
            fault_profile: get_str(&members, "fault_profile")?,
            max_retries: get_num(&members, "max_retries")? as u32,
            recalibrate: get_bool(&members, "recalibrate")?,
            drift_threshold: get_num(&members, "drift_threshold")?,
            safety_margin: get_num(&members, "safety_margin")?,
        };
        Ok((header, members))
    }

    /// Verifies that `recorded`, the identity a durable file holds, is
    /// this run's identity. The two compare by their one encoding
    /// ([`CheckpointHeader::encode_members`]), which writes every float in
    /// its shortest round-trip form, so one flipped bit is a mismatch.
    ///
    /// # Errors
    ///
    /// [`Error::ResumeMismatch`]: `{what} was written by a different run`,
    /// then each differing field as [`golden::diff_text`] names it.
    pub fn verify(&self, what: &str, recorded: &CheckpointHeader) -> Result<()> {
        let (expected, recorded) = (self.encode_members(), recorded.encode_members());
        if expected == recorded {
            return Ok(());
        }
        let fields = golden::diff_text(&format!("{{{expected}}}"), &format!("{{{recorded}}}"))
            .iter()
            .map(|d| d.trim_start_matches("$.").to_string())
            .collect::<Vec<_>>()
            .join("; ");
        Err(Error::ResumeMismatch(format!(
            "{what} was written by a different run: {fields}"
        )))
    }
}

/// Encodes one raw evaluation record, keyed by its eval seed (a string:
/// JSON numbers are f64 here and cannot hold every 64-bit seed exactly).
pub fn encode_eval(eval_seed: u64, r: &EvaluationResult) -> String {
    format!(
        "{{\"seed\": \"{}\", \"error\": {:?}, \"diverged\": {}, \"terminated_early\": {}, \"train_secs\": {:?}}}",
        eval_seed, r.error, r.diverged, r.terminated_early, r.train_secs
    )
}

/// Accumulates committed samples and raw evaluations during a run and
/// writes the checkpoint file every `every_commits` commits, unless it is
/// held: a held sink writes nothing until its first flush.
#[derive(Debug)]
pub struct CheckpointSink {
    config: CheckpointConfig,
    header: String,
    eval_lines: Vec<String>,
    sample_lines: Vec<String>,
    commits_since_write: usize,
    held: bool,
    /// Whether the file lacks a commit recorded since the last write. A
    /// fresh or held sink has written nothing yet, so it starts `true`.
    unwritten: bool,
}

impl CheckpointSink {
    /// Creates a sink for one run, sweeping away any orphaned temp file a
    /// crashed predecessor left beside the checkpoint path (a crash
    /// between temp write and rename strands one; it holds no committed
    /// state — the rename is the commit point — so removal is safe).
    pub fn new(config: CheckpointConfig, header: &CheckpointHeader) -> Self {
        clean_orphaned_tmp(&config.path);
        CheckpointSink {
            config,
            header: format!(
                "{{\"schema\": \"{CHECKPOINT_SCHEMA}\", {}",
                header.encode_members()
            ),
            eval_lines: Vec::new(),
            sample_lines: Vec::new(),
            commits_since_write: 0,
            held: false,
            unwritten: true,
        }
    }

    /// A sink held until its first [`CheckpointSink::flush`]: it records
    /// everything but writes nothing on its cadence, so a replay into it
    /// leaves every file as it was until the caller has verified it.
    pub fn held(config: CheckpointConfig, header: &CheckpointHeader) -> Self {
        CheckpointSink {
            held: true,
            ..Self::new(config, header)
        }
    }

    /// Records one raw objective evaluation (keyed by its eval seed). The
    /// executor calls this for every evaluation it *uses*, including cache
    /// hits on a resumed run, so a rewritten checkpoint is always complete.
    pub fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult) {
        self.record_eval_line(encode_eval(eval_seed, result));
    }

    /// Records one raw evaluation already encoded by [`encode_eval`]. It
    /// reaches the file with the commit that consumes it, which the
    /// [`crate::ObservationSink`] order records next.
    pub fn record_eval_line(&mut self, line: String) {
        self.eval_lines.push(line);
    }

    /// Records one committed sample and writes the file if a checkpoint
    /// interval elapsed and the sink is not held. Returns whether it wrote.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-file I/O failures as [`Error::Checkpoint`].
    pub fn record_commit(&mut self, sample: &Sample) -> Result<bool> {
        self.record_commit_line(golden::encode_sample(sample))
    }

    /// [`CheckpointSink::record_commit`] for a sample already encoded by
    /// [`golden::encode_sample`].
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-file I/O failures as [`Error::Checkpoint`].
    pub fn record_commit_line(&mut self, line: String) -> Result<bool> {
        self.sample_lines.push(line);
        self.unwritten = true;
        self.commits_since_write += 1;
        let every = self.config.every_commits;
        if self.held || every == 0 || self.commits_since_write < every {
            return Ok(false);
        }
        self.flush()
    }

    /// Writes the current state now, whatever the interval, unless the
    /// file already holds it: a fresh or held sink has not written yet,
    /// and otherwise only a commit since the last write is news. Releases
    /// a held sink to its cadence. A run calls this when it ends. Returns
    /// whether it wrote.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-file I/O failures as [`Error::Checkpoint`].
    pub fn flush(&mut self) -> Result<bool> {
        if !self.unwritten {
            return Ok(false);
        }
        self.write()?;
        self.commits_since_write = 0;
        self.unwritten = false;
        self.held = false;
        Ok(true)
    }

    /// Writes the framed file, `C <crc32>` on line 1 and then the body,
    /// which is encoded once, straight into the buffer that is written.
    fn write(&self) -> Result<()> {
        let lines = self.eval_lines.iter().chain(&self.sample_lines);
        let mut out = String::with_capacity(
            self.header.len() + 64 + lines.map(|line| line.len() + 6).sum::<usize>(),
        );
        out.push_str("C ");
        crate::integrity::frame(&mut out, '\n', |out| {
            out.push_str(&self.header);
            out.push_str(",\n  \"evals\": [");
            for (i, line) in self.eval_lines.iter().enumerate() {
                out.push_str(if i > 0 { ",\n    " } else { "\n    " });
                out.push_str(line);
            }
            out.push_str(if self.eval_lines.is_empty() {
                "],\n"
            } else {
                "\n  ],\n"
            });
            out.push_str("  \"samples\": [");
            for (i, line) in self.sample_lines.iter().enumerate() {
                out.push_str(if i > 0 { ",\n    " } else { "\n    " });
                out.push_str(line);
            }
            out.push_str(if self.sample_lines.is_empty() {
                "]\n}\n"
            } else {
                "\n  ]\n}\n"
            });
        });
        write_atomic(&self.config.path, &out)
    }
}

fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let describe = |what: &str, e: std::io::Error| {
        Error::Checkpoint(format!("{what} {}: {e}", path.display()))
    };
    std::fs::write(&tmp, contents).map_err(|e| describe("writing", e))?;
    std::fs::rename(&tmp, path).map_err(|e| describe("committing", e))
}

/// Removes the stale `*.tmp` a crash between temp write and rename leaves
/// beside `path`. Best-effort: the orphan never holds committed state (the
/// rename is the commit point), so failing to remove it only means the
/// next atomic write overwrites it anyway.
pub(crate) fn clean_orphaned_tmp(path: &Path) {
    let tmp = path.with_extension("tmp");
    if tmp != path {
        std::fs::remove_file(&tmp).ok();
    }
}

/// A run's durable state: the run identity it was written under, the
/// cached raw evaluations and the committed samples (kept as parsed JSON
/// for bit-exact prefix verification). A checkpoint file decodes to one,
/// and so does a study's journal merged with its snapshot.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The run identity recorded in the file.
    pub header: CheckpointHeader,
    /// Raw objective results keyed by eval seed.
    pub evals: BTreeMap<u64, EvaluationResult>,
    /// Committed samples, as parsed golden-codec values, contiguous from
    /// trace slot 0.
    pub samples: Vec<Value>,
}

fn obj_get<'a>(members: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The string field `key`.
///
/// # Errors
///
/// [`Error::Checkpoint`] when the field is missing or not a string.
pub fn get_str(members: &[(String, Value)], key: &str) -> Result<String> {
    match obj_get(members, key) {
        Some(Value::String(s)) => Ok(s.clone()),
        _ => Err(Error::Checkpoint(format!("missing string field `{key}`"))),
    }
}

/// The numeric field `key`.
///
/// # Errors
///
/// [`Error::Checkpoint`] when the field is missing or not a number.
pub fn get_num(members: &[(String, Value)], key: &str) -> Result<f64> {
    match obj_get(members, key) {
        Some(Value::Number(x)) => Ok(*x),
        _ => Err(Error::Checkpoint(format!("missing numeric field `{key}`"))),
    }
}

fn get_bool(members: &[(String, Value)], key: &str) -> Result<bool> {
    match obj_get(members, key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(Error::Checkpoint(format!("missing boolean field `{key}`"))),
    }
}

fn get_u64_str(members: &[(String, Value)], key: &str) -> Result<u64> {
    // u64 values are stored as strings: JSON numbers are f64 here and
    // cannot hold every 64-bit seed exactly.
    get_str(members, key)?
        .parse::<u64>()
        .map_err(|e| Error::Checkpoint(format!("bad u64 field `{key}`: {e}")))
}

/// Decodes one raw evaluation record (the [`encode_eval`] form).
///
/// # Errors
///
/// [`Error::Checkpoint`] when the record is not an object or misses a
/// field.
pub fn decode_eval(value: &Value) -> Result<(u64, EvaluationResult)> {
    let Value::Object(members) = value else {
        return Err(Error::Checkpoint("eval entry is not an object".into()));
    };
    let result = EvaluationResult {
        error: get_num(members, "error")?,
        diverged: get_bool(members, "diverged")?,
        terminated_early: get_bool(members, "terminated_early")?,
        train_secs: get_num(members, "train_secs")?,
    };
    Ok((get_u64_str(members, "seed")?, result))
}

/// Verifies that `actual` starts with the committed samples `expected`
/// (parsed golden-codec values), bit for bit.
///
/// # Errors
///
/// [`Error::ResumeMismatch`] with the golden differ's per-field report,
/// or when `actual` is shorter than `expected`.
pub(crate) fn verify_sample_prefix(expected: &[Value], actual: &[Sample]) -> Result<()> {
    if actual.len() < expected.len() {
        return Err(Error::ResumeMismatch(format!(
            "the replay committed {} samples, the record holds {}",
            actual.len(),
            expected.len()
        )));
    }
    let mut report = Vec::new();
    for (i, (expected, sample)) in expected.iter().zip(actual).enumerate() {
        let line = golden::encode_sample(sample);
        let actual = golden::parse(&line)
            .map_err(|e| Error::Checkpoint(format!("re-encoding sample {i}: {e}")))?;
        for d in golden::diff(expected, &actual) {
            report.push(format!("samples[{i}]{}", d.trim_start_matches('$')));
        }
    }
    if report.is_empty() {
        Ok(())
    } else {
        Err(Error::ResumeMismatch(report.join("; ")))
    }
}

impl RunCheckpoint {
    /// Loads and validates a checkpoint file. It only reads: a stale
    /// `*.tmp` beside the file is left for the paths that write or resume
    /// to sweep.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failures, a broken integrity frame,
    /// malformed JSON or a wrong schema marker.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Checkpoint(format!("reading {}: {e}", path.display())))?;
        Self::decode(&text)
    }

    /// Parses checkpoint text (see [`RunCheckpoint::load`]).
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on malformed input.
    pub fn decode(text: &str) -> Result<Self> {
        let Some(framed) = text.strip_prefix("C ") else {
            return Err(Error::Checkpoint(
                "checkpoint is missing its integrity frame (truncated head?)".into(),
            ));
        };
        let body = crate::integrity::unframe(framed, '\n')
            .map_err(|e| Error::Checkpoint(format!("corrupt integrity frame: {e}")))?;
        let (header, top) = CheckpointHeader::decode(body, CHECKPOINT_SCHEMA)?;
        let mut evals = BTreeMap::new();
        let Some(Value::Array(eval_items)) = obj_get(&top, "evals") else {
            return Err(Error::Checkpoint("missing array field `evals`".into()));
        };
        for item in eval_items {
            let (seed, result) = decode_eval(item)?;
            evals.insert(seed, result);
        }
        let samples = top
            .into_iter()
            .find_map(|(key, value)| (key == "samples").then_some(value));
        let Some(Value::Array(samples)) = samples else {
            return Err(Error::Checkpoint("missing array field `samples`".into()));
        };
        Ok(RunCheckpoint {
            header,
            evals,
            samples,
        })
    }
}

#[cfg(test)]
// Tests assert exact constructed values; strict float equality intended.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::driver::SampleKind;
    use crate::Config;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            seed: u64::MAX - 7, // not representable as f64: exercises the string encoding
            method: "hw-ieci".into(),
            mode: "hyperpower".into(),
            budget: Budget::VirtualHours(0.1),
            simulated_gpus: 2,
            fault_profile: "flaky-sensor".into(),
            max_retries: 2,
            recalibrate: true,
            drift_threshold: 0.2,
            safety_margin: 0.05,
        }
    }

    fn sample(index: usize) -> Sample {
        Sample {
            index,
            timestamp_s: 100.5 * (index as f64 + 1.0),
            kind: SampleKind::Trained,
            error: Some(0.25),
            power_w: 80.25,
            memory_bytes: Some(123_456),
            latency_s: Some(0.001),
            feasible: true,
            retries: 1,
            faults: vec![crate::recovery::TrialFailure::Crash],
            failure: None,
            drift_events: vec![crate::drift::DriftEvent::MarginTightened],
            degradations: Vec::new(),
            drift_rmspe: Some(0.125),
            hedged: 0,
            reclaimed: 0,
            config: Config::new(vec![0.25, 0.75]).unwrap(),
        }
    }

    /// `body` behind the v2 integrity frame, `C <crc32>` on its own line.
    fn frame_body(body: &str) -> String {
        let mut out = String::from("C ");
        crate::integrity::frame(&mut out, '\n', |out| out.push_str(body));
        out
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hyperpower-ckpt-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_header_evals_and_samples() {
        let path = tmp_path("roundtrip.json");
        let mut sink = CheckpointSink::new(
            CheckpointConfig {
                path: path.clone(),
                every_commits: 2,
            },
            &header(),
        );
        let r = EvaluationResult {
            error: 0.1 + 0.2, // deliberately not 0.3
            diverged: false,
            terminated_early: true,
            train_secs: 1234.5,
        };
        sink.record_eval(42, &r);
        sink.record_eval(u64::MAX, &r);
        sink.record_commit(&sample(0)).unwrap();
        sink.record_commit(&sample(1)).unwrap();
        let ck = RunCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck.header, header());
        assert_eq!(ck.evals.len(), 2);
        assert_eq!(ck.evals[&42].error.to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(ck.evals[&u64::MAX].terminated_early);
        assert_eq!(ck.samples.len(), 2);
        header().verify("checkpoint", &ck.header).unwrap();
        verify_sample_prefix(&ck.samples, &[sample(0), sample(1), sample(2)]).unwrap();
    }

    #[test]
    fn interval_batches_writes_and_flush_forces_one() {
        let path = tmp_path("interval.json");
        std::fs::remove_file(&path).ok();
        let mut sink = CheckpointSink::new(
            CheckpointConfig {
                path: path.clone(),
                every_commits: 3,
            },
            &header(),
        );
        sink.record_commit(&sample(0)).unwrap();
        assert!(!path.exists(), "one commit of three must not write yet");
        sink.flush().unwrap();
        assert!(path.exists());
        let ck = RunCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck.samples.len(), 1);
    }

    #[test]
    fn flush_writes_only_what_the_file_lacks() {
        let path = tmp_path("flush-once.json");
        std::fs::remove_file(&path).ok();
        let config = CheckpointConfig {
            path: path.clone(),
            every_commits: 2,
        };
        let mut sink = CheckpointSink::new(config.clone(), &header());
        assert!(sink.flush().unwrap(), "a fresh sink has never written");
        assert!(!sink.flush().unwrap(), "nothing was recorded since");
        sink.record_commit(&sample(0)).unwrap();
        assert!(
            sink.record_commit(&sample(1)).unwrap(),
            "the cadence writes"
        );
        std::fs::remove_file(&path).unwrap();
        assert!(
            !sink.flush().unwrap(),
            "the cadence write holds every commit"
        );
        assert!(!path.exists());
        sink.record_commit(&sample(2)).unwrap();
        assert!(sink.flush().unwrap());
        assert_eq!(RunCheckpoint::load(&path).unwrap().samples.len(), 3);
        std::fs::remove_file(&path).ok();
        let mut held = CheckpointSink::held(config, &header());
        assert!(held.flush().unwrap(), "a held sink has never written");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_names_the_fields() {
        let path = tmp_path("mismatch.json");
        let mut sink = CheckpointSink::new(CheckpointConfig::every_commit(path.clone()), &header());
        sink.flush().unwrap();
        let ck = RunCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut other = header();
        other.seed ^= 1;
        other.fault_profile = "none".into();
        other.recalibrate = false;
        other.safety_margin = 0.0;
        let err = other.verify("checkpoint", &ck.header).unwrap_err();
        assert!(matches!(err, Error::ResumeMismatch(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("a different run: seed: expected"), "{msg}");
        assert!(msg.contains("fault_profile"), "{msg}");
        assert!(msg.contains("recalibrate"), "{msg}");
        assert!(msg.contains("safety_margin"), "{msg}");
        assert!(!msg.contains("method:"), "{msg}");
        assert!(!msg.contains("drift_threshold:"), "{msg}");
    }

    #[test]
    fn prefix_mismatch_is_bit_exact() {
        let path = tmp_path("prefix.json");
        let mut sink = CheckpointSink::new(CheckpointConfig::every_commit(path.clone()), &header());
        sink.record_commit(&sample(0)).unwrap();
        let ck = RunCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut drifted = sample(0);
        drifted.power_w = f64::from_bits(drifted.power_w.to_bits() + 1);
        let err = verify_sample_prefix(&ck.samples, &[drifted]).unwrap_err();
        assert!(err.to_string().contains("power_w"), "{err}");
        // Too-short final runs are rejected outright.
        assert!(verify_sample_prefix(&ck.samples, &[]).is_err());
    }

    #[test]
    fn decode_rejects_malformed_files() {
        assert!(RunCheckpoint::decode("{").is_err());
        assert!(RunCheckpoint::decode("{\"schema\": \"other\"}").is_err());
        assert!(
            RunCheckpoint::decode("{\"schema\": \"hyperpower-checkpoint-v1\"}").is_err(),
            "missing fields must fail"
        );
        let err = RunCheckpoint::load(Path::new("/nonexistent/ckpt.json")).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)));
    }

    #[test]
    fn bit_rot_is_detected_by_the_integrity_frame() {
        let path = tmp_path("bitrot.json");
        let mut sink = CheckpointSink::new(CheckpointConfig::every_commit(path.clone()), &header());
        sink.record_commit(&sample(0)).unwrap();
        let clean = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(clean.starts_with("C "), "v2 files lead with the frame");
        assert!(RunCheckpoint::decode(&clean).is_ok());
        // Flip one bit in the middle of the body: the frame must catch it.
        let mut rotted = clean.clone().into_bytes();
        let mid = rotted.len() / 2;
        rotted[mid] ^= 0x08;
        let rotted = String::from_utf8(rotted).unwrap();
        let err = RunCheckpoint::decode(&rotted).unwrap_err();
        assert!(err.to_string().contains("integrity frame"), "{err}");
        // Stripping the frame off a v2 body is refused too, and so is the
        // same body relabelled as an unframed legacy v1 file.
        let body = clean.split_once('\n').unwrap().1;
        assert!(RunCheckpoint::decode(body).is_err());
        let v1 = body.replace("hyperpower-checkpoint-v2", "hyperpower-checkpoint-v1");
        let err = RunCheckpoint::decode(&v1).unwrap_err();
        assert!(err.to_string().contains("integrity frame"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        // A correctly framed body nested far past the codec's depth bound:
        // the decoder must answer with an error, not a stack overflow.
        let body = "[".repeat(1_000_000);
        let err = RunCheckpoint::decode(&frame_body(&body)).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}
