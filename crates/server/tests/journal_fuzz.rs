//! Fuzzing the journal's one reader: fsck's scanner, which
//! `StudyJournal::load` runs too.
//!
//! Each case damages a small real store (a snapshot of two samples and a
//! journal holding the records of a third) with random truncations,
//! single-bit flips, and appended framed and unframed lines, then checks
//! three things:
//!
//! * nothing panics;
//! * `load` succeeds exactly when fsck's only defect is a torn tail, or it
//!   finds none;
//! * after `fsck --salvage`, `load` succeeds or fsck reported the study
//!   unrecoverable.
//!
//! `PROPTEST_CASES` lengthens a campaign (64 cases by default).

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hyperpower::{
    Budget, Budgets, DriftConfig, EarlyTermination, Method, Mode, Objective, RetryPolicy,
    SearchSpace, StoreDefect, StudySpec,
};
use hyperpower_gpu_sim::{DeviceProfile, FaultProfile, Gpu, TrainingCostModel};
use hyperpower_server::journal::study_paths;
use hyperpower_server::{
    fsck_store, ServerConfig, StudyJournal, StudyServer, StudySetup, SyntheticObjective,
};
use proptest::prelude::*;

const NAME: &str = "fuzz";
const SEED: u64 = 0x5EED_F022;

fn scratch_root(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/server-scratch")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The undamaged store's journal and snapshot bytes, built once.
fn pristine() -> &'static (Vec<u8>, Vec<u8>) {
    static STORE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    STORE.get_or_init(|| {
        let root = scratch_root("journal-fuzz-pristine");
        let mut server = StudyServer::new(ServerConfig {
            root: root.clone(),
            snapshot_every_commits: 2,
            ..ServerConfig::default()
        })
        .expect("server");
        let setup = StudySetup {
            space: SearchSpace::mnist(),
            gpu: Gpu::new(DeviceProfile::gtx_1070(), SEED),
            oracle: None,
            spec: StudySpec {
                method: Method::Rand,
                mode: Mode::HyperPower,
                budget: Budget::Evaluations(6),
                seed: SEED,
                budgets: Budgets::default(),
                cost: TrainingCostModel::default(),
                early_termination: Some(EarlyTermination::default()),
                fault_profile: FaultProfile::none(),
                retry: RetryPolicy::default(),
                drift: DriftConfig::default(),
            },
            priority: 1,
        };
        server.create_study(NAME, setup).expect("create");
        for round in 1..=3 {
            for c in server.ask(NAME, 1, 60.0 * f64::from(round)).expect("ask") {
                let result = SyntheticObjective
                    .evaluate(&c.decoded, None, c.eval_seed)
                    .expect("evaluate");
                server.tell(NAME, c.lease_id, &result).expect("tell");
            }
        }
        drop(server);
        let (journal, snapshot) = study_paths(&root, NAME);
        let journal = std::fs::read(journal).expect("journal");
        let snapshot = std::fs::read(snapshot).expect("snapshot");
        assert!(
            journal.iter().filter(|&&b| b == b'\n').count() >= 3,
            "the journal holds records past its header"
        );
        (journal, snapshot)
    })
}

/// Payloads for appended lines, `{n}` standing for a small number: an
/// evaluation, one with fields missing, the journal's last sample and its
/// header, and some that are not records at all.
fn payloads(journal: &[u8]) -> Vec<String> {
    let text = String::from_utf8(journal.to_vec()).expect("UTF-8 journal");
    let payload_of = |tag: &str| {
        let line = text.lines().rfind(|l| l.starts_with(tag)).unwrap();
        line.splitn(3, ' ').nth(2).unwrap().to_string()
    };
    let sample = payload_of("S ");
    let index = sample
        .split_once(", ")
        .map(|(head, _)| head.to_string())
        .unwrap();
    vec![
        r#"{"seed": "{n}", "error": 0.5, "diverged": false, "terminated_early": false, "train_secs": 1.0}"#.to_string(),
        r#"{"seed": "{n}"}"#.to_string(),
        sample.replacen(&index, r#"{"index": {n}"#, 1),
        payload_of("H "),
        "[1, 2".to_string(),
        "{}".to_string(),
        String::new(),
    ]
}

fn flip_bit(bytes: &mut [u8], at: f64, bit: usize) {
    if !bytes.is_empty() {
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[i] ^= 1 << (bit % 8);
    }
}

fn truncate(bytes: &mut Vec<u8>, at: f64) {
    bytes.truncate((bytes.len() as f64 * at) as usize);
}

/// Applies one damage operation: `kind` picks it, `at` places it in the
/// file, `aux` picks the bit, record tag and payload.
fn damage(journal: &mut Vec<u8>, snapshot: &mut Vec<u8>, (kind, at, aux): (usize, f64, usize)) {
    const TAGS: [&str; 4] = ["H", "E", "S", "X"];
    match kind {
        0 => truncate(journal, at),
        1 => truncate(snapshot, at),
        2 => flip_bit(journal, at, aux),
        3 => flip_bit(snapshot, at, aux),
        _ => {
            let templates = payloads(&pristine().0);
            let payload =
                templates[(aux / 4) % templates.len()].replace("{n}", &(aux % 5).to_string());
            let tag = TAGS[aux % 4];
            let line = if kind == 4 {
                let mut record = format!("{tag} ");
                hyperpower::integrity::frame(&mut record, ' ', |out| out.push_str(&payload));
                record + "\n"
            } else if aux % 2 == 0 {
                format!("{tag} {payload}\n")
            } else {
                format!("{tag} {payload}")
            };
            journal.extend_from_slice(line.as_bytes());
        }
    }
}

fn only_a_torn_tail(root: &Path) -> bool {
    let report = fsck_store(root, false).expect("scan");
    report.studies[0]
        .defects
        .iter()
        .all(|(defect, _)| *defect == StoreDefect::TruncatedTail)
}

proptest! {
    #[test]
    fn load_and_fsck_agree_on_a_damaged_store(
        ops in proptest::collection::vec((0usize..6, 0.0f64..1.0, 0usize..1000), 1usize..4)
    ) {
        let (mut journal, mut snapshot) = pristine().clone();
        for op in &ops {
            damage(&mut journal, &mut snapshot, *op);
        }
        let root = scratch_root("journal-fuzz");
        std::fs::create_dir_all(&root).expect("root");
        let (journal_path, snapshot_path) = study_paths(&root, NAME);
        std::fs::write(&journal_path, &journal).expect("journal");
        std::fs::write(&snapshot_path, &snapshot).expect("snapshot");

        let loaded = StudyJournal::load(&root, NAME);
        let only_torn = only_a_torn_tail(&root);
        prop_assert_eq!(
            loaded.is_ok(),
            only_torn,
            "ops {:?}: load gave {:?}, fsck says:\n{}",
            ops,
            loaded.as_ref().err(),
            fsck_store(&root, false).expect("scan")
        );

        let salvaged = fsck_store(&root, true).expect("salvage");
        let reloaded = StudyJournal::load(&root, NAME);
        prop_assert!(
            reloaded.is_ok() || !salvaged.studies[0].recoverable,
            "ops {:?}: salvage reported a recoverable study that does not load ({:?}):\n{}",
            ops,
            reloaded.err(),
            salvaged
        );
    }
}
