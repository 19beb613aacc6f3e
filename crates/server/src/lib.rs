//! **hyperpower-server** — a crash-safe multi-study ask–tell server.
//!
//! The core crate's [`hyperpower::Study`] turns one optimization run into
//! an explicit ask–tell state machine; this crate hosts *many* of them
//! behind a serving surface built for an unreliable world:
//!
//! * [`StudyServer`] — named concurrent studies; every `ask` hands out
//!   candidates under **leases** with scheduler-clock deadlines, every
//!   `tell` is **idempotent** (duplicates absorbed, late tells after a
//!   lease reclaim rejected with a typed error, state untouched);
//! * [`StudyJournal`] — durability as a **write-ahead journal** plus
//!   atomic **snapshots** on the checkpoint codec, with deterministic
//!   replay recovery: `kill -9` at any instant, including mid-write,
//!   resumes to the exact committed trace bytes;
//! * [`chaos`] — a deterministic chaos harness that kills workers, drops,
//!   duplicates, delays and reorders tells, crashes and tears journals —
//!   then proves every study's final trace is byte-identical to an
//!   uninterrupted run;
//! * graceful degradation — bounded per-study and server-wide outstanding
//!   work, shed-lowest-priority backpressure, per-tenant token-bucket
//!   admission and circuit breakers, and typed [`ServerError`] refusals
//!   instead of silent stalls;
//! * [`health`] — a deterministic worker/tenant supervision state machine
//!   (`Healthy → Suspect → Quarantined → Retired`) gating lease dispatch
//!   and driving hedged re-dispatch of overdue candidates;
//! * [`fsck`] — an offline integrity scanner over a store directory and
//!   the journal's only reader: every journal record and snapshot is
//!   CRC32-framed, and [`fsck_store`] reports (and optionally salvages, by
//!   truncating to the last valid frame) corrupt frames, torn tails, stale
//!   temp files and header mismatches.
//!
//! Nothing the server does can change a committed trace byte: run
//! identity lives entirely in each study's [`hyperpower::StudySpec`]
//! (journaled in its header); leases, queue bounds, priorities, snapshot
//! cadence and crash/recovery cycles are all execution-only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod error;
pub mod fsck;
pub mod health;
pub mod journal;
mod server;

pub use chaos::{
    run_chaos, run_chaos_with, write_mismatch_artifacts, ChaosOutcome, ChaosPlan, ChaosProfile,
    ChaosReport, SyntheticObjective,
};
pub use error::ServerError;
pub use fsck::{fsck_store, FsckReport, StudyFsck};
pub use health::{Fleet, HealthPolicy, HealthState};
pub use journal::{JournalHeader, StudyJournal};
pub use server::{ServerConfig, StudyServer, StudySetup, TickReport};
