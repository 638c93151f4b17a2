//! # odin-store
//!
//! Crash-safe persistence for the ODIN pipeline: a versioned,
//! checksummed binary checkpoint format and an append-only write-ahead
//! log for drift events.
//!
//! The paper's recovery story (§4–§5) assumes the system keeps its
//! learned state — encoder weights, cluster Δ-bands, the specialized
//! model registry. This crate is the substrate that lets a process
//! restart *without* re-learning any of it:
//!
//! * [`checkpoint`] — a sectioned snapshot container
//!   (`magic + version + section table + per-section CRC`), written
//!   atomically (tmp file + fsync + rename) so a crash mid-write never
//!   destroys the previous snapshot,
//! * [`framed`] — the CRC-framed append-only file under both the WAL
//!   and `odin-log`: torn tails truncated, failed appends rolled back,
//! * [`wal`] — a framed record log, so events newer than the last
//!   snapshot survive a crash,
//! * [`codec`] — the little-endian binary encoder/decoder and the
//!   [`Persist`] trait the higher crates implement for their state,
//! * [`crc`] — the CRC-32 (IEEE) used by both containers.
//!
//! The crate is intentionally dependency-free and knows nothing about
//! tensors, clusters, or detectors: higher layers (`odin-drift`,
//! `odin-core`, `odin-bench`) encode their own state through
//! [`codec::Encoder`] and store the bytes in named sections.
//!
//! Corruption is a *value*, not a panic: every reader returns
//! [`StoreError`] so callers can fall back to a cold bootstrap with a
//! logged reason.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod error;
pub mod framed;
pub mod wal;

pub use checkpoint::{Checkpoint, CheckpointBuilder, FORMAT_VERSION, MAGIC};
pub use codec::{Decoder, Encoder, Persist};
pub use crc::crc32;
pub use error::StoreError;
pub use wal::{read_wal, WalReader, WalRecord, WalWriter};
