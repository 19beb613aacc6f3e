//! The `hyperpower` binary pinned end to end.
//!
//! Each test runs the built binary in its own fresh directory under the
//! target directory, one or more times, and then compares a transcript
//! with the committed fixture `tests/cli_output/<test>.txt`, byte for
//! byte. The transcript holds every invocation's exit status, stdout and
//! stderr, then every file left in the directory, in path order. Each
//! part is preceded by its length in bytes, so two transcripts are equal
//! exactly when every part is. Paths are relative to the test's
//! directory, and no output depends on the worker count, so the fixtures
//! hold for any `HYPERPOWER_WORKERS`.
//!
//! On a mismatch the test writes the transcript it saw to
//! `<test>.actual` beside its directory and names the first line that
//! differs; compare that file with the fixture to review the change.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One test's working directory and the transcript recorded so far.
struct Case {
    name: &'static str,
    dir: PathBuf,
    transcript: Vec<u8>,
}

impl Case {
    fn new(name: &'static str) -> Self {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("cli_output")
            .join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir).expect("clear the case directory");
        }
        // A transcript left by an earlier failure would outlive its cause.
        let _ = fs::remove_file(dir.with_extension("actual"));
        fs::create_dir_all(&dir).expect("create the case directory");
        Case {
            name,
            dir,
            transcript: Vec::new(),
        }
    }

    /// Runs the binary in the case directory with `line`'s
    /// whitespace-separated arguments.
    fn run(mut self, line: &str) -> Self {
        let out = Command::new(env!("CARGO_BIN_EXE_hyperpower"))
            .args(line.split_whitespace())
            .current_dir(&self.dir)
            .output()
            .expect("start hyperpower");
        let status = out
            .status
            .code()
            .map_or_else(|| "signal".to_string(), |c| c.to_string());
        let head = format!("$ hyperpower {line}\nexit {status}\n");
        self.transcript.extend_from_slice(head.as_bytes());
        self.part("stdout", &out.stdout);
        self.part("stderr", &out.stderr);
        self
    }

    /// Appends `bytes` to the file at `path`, as a crash or bit rot would.
    fn append(mut self, path: &str, bytes: &[u8]) -> Self {
        let path_buf = self.dir.join(path);
        fs::create_dir_all(path_buf.parent().unwrap()).expect("create the file's directory");
        let mut content = fs::read(&path_buf).unwrap_or_default();
        content.extend_from_slice(bytes);
        fs::write(&path_buf, content).expect("append to a case file");
        let head = format!("# append to {path}\n");
        self.transcript.extend_from_slice(head.as_bytes());
        self.part("bytes", bytes);
        self
    }

    fn part(&mut self, label: &str, bytes: &[u8]) {
        let head = format!("{label} ({} bytes):\n", bytes.len());
        self.transcript.extend_from_slice(head.as_bytes());
        self.transcript.extend_from_slice(bytes);
        self.transcript.push(b'\n');
    }

    /// Records every file in the case directory and compares the
    /// transcript with the fixture.
    fn check(mut self) {
        let mut files = Vec::new();
        list_files(&self.dir, &mut files);
        files.sort();
        for path in files {
            let rel = path.strip_prefix(&self.dir).unwrap().display().to_string();
            let content = fs::read(&path).expect("read a written file");
            self.part(&format!("file {rel}"), &content);
        }
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/cli_output")
            .join(format!("{}.txt", self.name));
        let expected = fs::read(&fixture).unwrap_or_default();
        if expected != self.transcript {
            let actual = self.dir.with_extension("actual");
            fs::write(&actual, &self.transcript).expect("write the actual transcript");
            let line = expected
                .split(|&b| b == b'\n')
                .zip(self.transcript.split(|&b| b == b'\n'))
                .take_while(|(e, a)| e == a)
                .count()
                + 1;
            panic!(
                "{} differs from {} from line {line} on; the binary's transcript is in {}",
                self.name,
                fixture.display(),
                actual.display()
            );
        }
    }
}

fn list_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("list the case directory") {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() {
            list_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn help() {
    Case::new("help").run("").run("help").check();
}

/// One bad value per message the parser writes; each is followed by the
/// usage text and exits 1.
#[test]
fn parse_errors() {
    Case::new("parse_errors")
        .run("frobnicate")
        .run("run --method rand")
        .run("run --pair mnist-gtx")
        .run("run --pair venus --method rand")
        .run("run --pair mnist-gtx --method sgd")
        .run("run --pair mnist-gtx --method rand --mode x")
        .run("run --pair mnist-gtx --method rand --evals")
        .run("run --pair mnist-gtx --method rand --seed x")
        .run("run --pair mnist-gtx --method rand --hours soon")
        .run("run --pair mnist-gtx --method rand --workers 0")
        .run("run --pair mnist-gtx --method rand --drift-threshold nan")
        .run("run --pair mnist-gtx --method rand --safety-margin 1")
        .run("run --pair mnist-gtx --method rand --verbose")
        .run("profile --pair mnist-gtx --samples 0")
        .run("serve")
        .run("serve --study alpha:rand")
        .run("serve --study a:rand:6 --hedge-after -1")
        .run("serve --study a:rand:6 --tenant-rate inf")
        .run("fsck --root")
        .check();
}

#[test]
fn profile() {
    Case::new("profile")
        .run("profile --pair mnist-gtx")
        .run("profile --pair cifar-tegra --samples 30 --seed 7")
        .check();
}

#[test]
fn run_csv() {
    Case::new("run_csv")
        .run("run --pair cifar-gtx --method hw-ieci --mode default --evals 8 --seed 3 --csv trace.csv")
        .run("run --pair mnist-gtx --method rand --evals 3 --csv missing/trace.csv")
        .run("run --pair mnist-gtx --method rand --evals 3 --csv /dev/full")
        .check();
}

/// A checkpointed run, its resume on three workers (the same summary and
/// checkpoint bytes) and a resume under another seed (refused).
#[test]
fn run_checkpoint_resume() {
    let run = "run --pair mnist-gtx --method hw-ieci --evals 12 --fault-profile flaky-sensor";
    Case::new("run_checkpoint_resume")
        .run(&format!(
            "{run} --seed 5 --checkpoint a.ckpt --checkpoint-every 4"
        ))
        .run(&format!(
            "{run} --seed 5 --resume a.ckpt --checkpoint b.ckpt --workers 3"
        ))
        .run(&format!("{run} --seed 6 --resume a.ckpt"))
        .check();
}

#[test]
fn run_faults_and_healing() {
    Case::new("run_faults_and_healing")
        .run(
            "run --pair mnist-gtx --method hw-ieci --evals 8 --seed 2 --fault-profile drifting-hw \
             --recalibrate --drift-threshold 0.1 --safety-margin 0.05",
        )
        .run("run --pair mnist-tegra --method rand --evals 10 --seed 4 --fault-profile oom-heavy")
        .check();
}

/// A deadline that is not finite would never be reached, and one that is
/// not positive would run nothing.
#[test]
fn run_hours_rejected() {
    Case::new("run_hours_rejected")
        .run("run --pair mnist-gtx --method rand --hours nan")
        .run("run --pair mnist-gtx --method rand --hours inf")
        .run("run --pair mnist-gtx --method rand --hours 0")
        .run("run --pair mnist-gtx --method rand --hours -1")
        .check();
}

#[test]
fn run_unknown_fault_profile() {
    Case::new("run_unknown_fault_profile")
        .run("run --pair mnist-gtx --method rand --fault-profile bogus")
        .check();
}

/// `--hours`, `--workers`, and the pair's paper budget when neither
/// `--evals` nor `--hours` is given (2 h for MNIST, 5 h for CIFAR-10).
#[test]
fn run_budgets_and_workers() {
    Case::new("run_budgets_and_workers")
        .run("run --pair mnist-gtx --method rand-walk --hours 0.5 --seed 1")
        .run("run --pair mnist-tegra --method rand --seed 1")
        .run("run --pair cifar-gtx --method rand --seed 1")
        .run("run --pair cifar-tegra --method hw-cwei --evals 6 --workers 2")
        .check();
}

/// Two studies served to completion, refused when re-created, recovered
/// with `--resume`, and refused when resumed under another seed.
#[test]
fn serve_and_resume() {
    let studies = "--study alpha:rand:6:7 --study beta:hw-cwei:4:3:2";
    Case::new("serve_and_resume")
        .run(&format!("serve --root store {studies}"))
        .run("serve --root store --study alpha:rand:6:7")
        .run(&format!("serve --root store --resume {studies}"))
        .run("serve --root store --resume --study alpha:rand:6:8")
        .check();
}

/// A study name given twice is refused before anything is written, so the
/// corrected command then runs.
#[test]
fn serve_repeated_study_name() {
    Case::new("serve_repeated_study_name")
        .run("serve --study a:rand:3 --study a:rand:3 --root store")
        .run("serve --study a:rand:3 --root store")
        .check();
}

#[test]
fn serve_supervision_flags() {
    Case::new("serve_supervision_flags")
        .run(
            "serve --study a:rand:6:1 --study b:rand-walk:5:2:3 --root store --workers 2 \
             --snapshot-every 2 --hedge-after 30 --tenant-rate 0.05",
        )
        .run(
            "serve --study c:hw-ieci:5:1 --root store --workers 3 --hedge-after 0 \
             --tenant-rate 0",
        )
        .check();
}

/// `--tenant-rate` throttles asks only: a serve that must wait out its
/// eight-ask burst (twelve asks at 0.06 tokens a round) still finishes,
/// and writes the store bytes of the same serve without the flag.
#[test]
fn serve_tenant_rate() {
    let case = Case::new("serve_tenant_rate")
        .run("serve --study a:rand:12:1 --root store --workers 1")
        .run("serve --study a:rand:12:1 --root throttled --workers 1 --tenant-rate 0.001");
    for file in ["a.journal", "a.snapshot"] {
        assert_eq!(
            fs::read(case.dir.join("store").join(file)).unwrap(),
            fs::read(case.dir.join("throttled").join(file)).unwrap(),
            "{file} differs between the unthrottled and the throttled serve"
        );
    }
    case.check();
}

/// `serve` and `fsck` share the default root `target/study-server`.
#[test]
fn default_root() {
    Case::new("default_root")
        .run("fsck")
        .run("serve --study solo:rand:3:9")
        .run("fsck")
        .check();
}

/// A torn journal tail: reported, salvaged, then clean.
#[test]
fn fsck_torn_tail() {
    Case::new("fsck_torn_tail")
        .run("serve --study alpha:rand:6:7 --root store")
        .append("store/alpha.journal", b"S 12345678 {\"torn")
        .run("fsck --root store")
        .run("fsck --root store --salvage")
        .run("fsck --root store")
        .check();
}

/// A journal whose only record is corrupt cannot be salvaged, and a
/// missing root cannot be scanned.
#[test]
fn fsck_unrecoverable() {
    Case::new("fsck_unrecoverable")
        .append(
            "store/alpha.journal",
            b"H 00000000 {\"schema\": \"junk\"}\n",
        )
        .run("fsck --root store --salvage")
        .run("fsck --root nowhere")
        .check();
}
