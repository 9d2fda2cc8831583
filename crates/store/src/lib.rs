//! `predict_store`: the on-disk, versioned, checksummed binary artifact store
//! for PREDIcT stage artifacts.
//!
//! PREDIcT's value proposition is amortization — samples, sample runs and
//! trained models are expensive to produce and cheap to reuse — but without
//! persistence every artifact dies with the process and a restarted
//! [`PredictService`](../predict_core/service/index.html) answers every query
//! cold. This crate is the persistence layer: a directory-backed store that a
//! prediction session writes through on every artifact miss and reads back on
//! restart, pinned by a byte-identity contract (a warm-restarted service
//! returns byte-identical predictions and never re-executes a stored sample
//! run).
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   sample/<fnv64-of-key>.art       one file per artifact, per kind
//!   sample_run/<fnv64-of-key>.art
//!   model/<fnv64-of-key>.art
//!   actual_run/<fnv64-of-key>.art
//!   tmp/                            in-flight writes (cleared on open)
//!   quarantine/                     corrupt files moved aside, never deleted
//! ```
//!
//! # File format
//!
//! Every `.art` file is self-describing (all integers little-endian):
//!
//! ```text
//! magic     "PSTR"                       4 bytes
//! format    u32 = 2                      container layout version
//! mlen      u32                          manifest length in bytes
//! manifest  JSON                         see [`Manifest`]
//! mcheck    u64                          [`checksum`] of the manifest bytes
//! payload   binary Value tree            see [`codec`]; not compressed
//! ```
//!
//! The manifest carries the artifact schema version, kind, the full logical
//! key, the dataset provenance hash, and the checksum + length of the
//! payload, so every read is verified end-to-end before a single byte
//! reaches a deserializer.
//!
//! Payloads are stored uncompressed: the bulk of every large artifact is
//! numeric columns (CSR offsets and targets, per-superstep profiles), which
//! the codec already writes as packed little-endian slabs, and a general
//! byte compressor gains little on those while costing more time than the
//! read itself.
//!
//! # Atomicity and recovery
//!
//! Writes go to `tmp/<unique>.tmp` and are published with a single
//! [`std::fs::rename`] — readers only ever observe absent or complete files;
//! a crash mid-write leaves garbage in `tmp/` that the next [`open`] sweeps.
//! Reads validate magic, format version, manifest checksum, payload length
//! and payload checksum; any integrity failure (truncation, flipped bits, a
//! foreign file) moves the file to `quarantine/` with a [`diag!`] warning
//! and reports a miss, so the caller recomputes and overwrites — the store
//! degrades, it never panics. Stale artifacts (a file of another container
//! format version, or a provenance or schema-version mismatch) are plain
//! misses: they stay in place until the write-through overwrites them, so
//! upgrading the format never floods `quarantine/`.
//!
//! [`open`]: ArtifactStore::open
//! [`diag!`]: predict_obs::diag!

pub mod codec;

pub use codec::{decode_value, encode_value, CodecError};

use predict_obs::metrics::Counter;
use predict_obs::{diag, registry, span};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Container layout version (the file framing, not the artifact schema).
/// Files of any other version read as stale misses.
pub const FORMAT_VERSION: u32 = 2;

/// Artifact schema version: bump when the serialized shape of any artifact
/// changes so older store directories read as stale misses instead of
/// feeding mismatched fields to a deserializer.
pub const SCHEMA_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"PSTR";

/// Largest manifest the reader will allocate for; real manifests are a few
/// hundred bytes, so anything bigger is a corrupt length word.
const MAX_MANIFEST_LEN: usize = 1 << 20;

/// The store's checksum of a byte slice: [`Checksum::write_bytes`] on a
/// fresh state. Covers the manifest and the payload.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.write_bytes(bytes);
    sum.finish()
}

/// FNV-1a 64-bit of a key: the artifact file name. File names keep the hash
/// every earlier format version used, so a build of a newer format finds an
/// older file under the same name, reads it as a stale miss and overwrites
/// it, instead of leaving it orphaned beside the new one.
fn file_hash(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A streaming 64-bit checksum that consumes one 64-bit word per step.
///
/// Each step is `state = rotl((state ^ word) * K, 29)` with `K` odd: for a
/// fixed word it is a bijection of the state, and for a fixed state it is
/// injective in the word. A change to any single word therefore yields a
/// different state after its step, which every later step (and the
/// bijective finalizer) carries through to a different checksum — so a
/// corruption confined to one 8-byte word, a single flipped byte included,
/// is always detected. Not a cryptographic hash; it guards against
/// accidental corruption, not an adversary.
#[derive(Debug, Clone)]
pub struct Checksum {
    state: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
    const K: u64 = 0xFF51_AFD7_ED55_8CCD;

    /// A fresh checksum state.
    pub fn new() -> Self {
        Checksum { state: Self::SEED }
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub fn write_word(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(Self::K).rotate_left(29);
    }

    /// Absorbs a byte slice: its little-endian 8-byte words, the zero-padded
    /// tail, then the length, so consecutive slices never run together.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.write_word(u64::from_le_bytes(w));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_word(u64::from_le_bytes(w));
        }
        self.write_word(bytes.len() as u64);
    }

    /// Absorbs a `u32` slice two elements per word, then its length.
    pub fn write_u32s(&mut self, items: &[u32]) {
        let mut pairs = items.chunks_exact(2);
        for pair in &mut pairs {
            self.write_word(pair[0] as u64 | (pair[1] as u64) << 32);
        }
        if let [last] = pairs.remainder() {
            self.write_word(*last as u64);
        }
        self.write_word(items.len() as u64);
    }

    /// The checksum of everything absorbed so far (a bijective avalanche
    /// of the state, so nearby states give unrelated checksums).
    pub fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        h
    }
}

/// The four kinds of artifact a prediction session persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A sampled subgraph (`SampleArtifact`).
    Sample,
    /// A transformed sample-run profile (`SampleRunArtifact`).
    SampleRun,
    /// A trained cost model (`TrainedModel`).
    Model,
    /// A full-dataset actual run (`WorkloadRun`), cached for evaluation.
    ActualRun,
}

impl ArtifactKind {
    /// Every kind, for sweeps in tests and tooling.
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Sample,
        ArtifactKind::SampleRun,
        ArtifactKind::Model,
        ArtifactKind::ActualRun,
    ];

    /// Stable directory / manifest name for this kind.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Sample => "sample",
            ArtifactKind::SampleRun => "sample_run",
            ArtifactKind::Model => "model",
            ArtifactKind::ActualRun => "actual_run",
        }
    }
}

/// The self-describing header persisted in front of every payload.
///
/// Field semantics are part of the on-disk contract documented in
/// `docs/ARCHITECTURE.md`; extend it only alongside a [`SCHEMA_VERSION`]
/// bump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Artifact schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// [`ArtifactKind::name`] of the stored artifact.
    pub kind: String,
    /// Full logical key (not just its hash), so filename collisions read as
    /// misses instead of wrong artifacts.
    pub key: String,
    /// Provenance hash binding the artifact to the dataset (label + graph
    /// shape) it was computed from; a mismatch is a stale miss.
    pub provenance: u64,
    /// [`checksum`] of the payload bytes.
    pub payload_checksum: u64,
    /// Length of the payload that follows the header.
    pub payload_len: u64,
}

/// Why a [`ArtifactStore::get`] returned nothing; [`ArtifactStore::get_explained`]
/// surfaces this for stats and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissReason {
    /// No file for this key.
    Absent,
    /// File existed but failed validation and was quarantined.
    Quarantined,
    /// File belongs to another container format version, or its manifest
    /// was readable but belongs to a different provenance, schema version,
    /// or (filename-collision case) a different full key.
    Stale,
}

/// Counters the store publishes into the process-global metrics registry.
struct StoreMetrics {
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    hits: Arc<Counter>,
    bytes: Arc<Counter>,
    quarantined: Arc<Counter>,
}

impl StoreMetrics {
    fn new() -> Self {
        let reg = registry();
        StoreMetrics {
            reads: reg.counter("store.reads"),
            writes: reg.counter("store.writes"),
            hits: reg.counter("store.hits"),
            bytes: reg.counter("store.bytes"),
            quarantined: reg.counter("store.quarantined"),
        }
    }
}

/// A directory-backed, checksummed artifact store.
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones to every session.
/// All methods take `&self`; concurrent writers of the *same* key both
/// publish complete files and the last rename wins, which is safe because
/// artifacts are deterministic functions of their key + provenance.
pub struct ArtifactStore {
    root: PathBuf,
    tmp_counter: AtomicU64,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.root)
            .finish()
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root` and sweeps any
    /// in-flight temp files a crashed writer left behind.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root = root.into();
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join(kind.name()))?;
        }
        fs::create_dir_all(root.join("quarantine"))?;
        let tmp = root.join("tmp");
        fs::create_dir_all(&tmp)?;
        // A crash mid-write leaves only unpublished `.tmp` garbage; sweeping
        // it here is the whole recovery story for partial writes.
        if let Ok(entries) = fs::read_dir(&tmp) {
            for entry in entries.flatten() {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(ArtifactStore {
            root,
            tmp_counter: AtomicU64::new(0),
            metrics: StoreMetrics::new(),
        })
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where corrupt files are moved; exposed for tests and operators.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// The path `put` publishes to for `(kind, key)` — exposed so tests and
    /// the CI corruption step can target a specific artifact file.
    pub fn artifact_path(&self, kind: ArtifactKind, key: &str) -> PathBuf {
        self.root
            .join(kind.name())
            .join(format!("{:016x}.art", file_hash(key)))
    }

    /// Number of quarantined files currently parked under `quarantine/`.
    pub fn quarantined_files(&self) -> usize {
        fs::read_dir(self.quarantine_dir())
            .map(|d| d.flatten().count())
            .unwrap_or(0)
    }

    /// Number of published artifacts of `kind`.
    pub fn artifact_count(&self, kind: ArtifactKind) -> usize {
        fs::read_dir(self.root.join(kind.name()))
            .map(|d| d.flatten().count())
            .unwrap_or(0)
    }

    /// Serializes, checksums and atomically publishes one artifact.
    ///
    /// The payload is the binary encoding ([`codec`]) of `value`'s serde
    /// `Value` tree. Publication is write-to-temp + rename, so readers never
    /// observe a partial file. Errors are returned (not panicked) so callers
    /// can degrade to memory-only operation.
    pub fn put<T: Serialize + ?Sized>(
        &self,
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
        value: &T,
    ) -> io::Result<()> {
        let _span = span("store.write");
        let payload = encode_value(&value.serialize_value());

        let manifest = Manifest {
            schema_version: SCHEMA_VERSION,
            kind: kind.name().to_string(),
            key: key.to_string(),
            provenance,
            payload_checksum: checksum(&payload),
            payload_len: payload.len() as u64,
        };
        let manifest_json = serde_json::to_string(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let manifest_bytes = manifest_json.as_bytes();

        let mut header = Vec::with_capacity(4 + 4 + 4 + manifest_bytes.len() + 8);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(manifest_bytes.len() as u32).to_le_bytes());
        header.extend_from_slice(manifest_bytes);
        header.extend_from_slice(&checksum(manifest_bytes).to_le_bytes());

        // Unique within the process via the counter, across processes via
        // the pid; collisions would only race identical content anyway.
        let tmp_name = format!(
            "{:016x}-{}-{}.tmp",
            file_hash(key),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        );
        let tmp_path = self.root.join("tmp").join(tmp_name);
        {
            let mut file = fs::File::create(&tmp_path)?;
            file.write_all(&header)?;
            file.write_all(&payload)?;
            file.sync_all()?;
        }
        let final_path = self.artifact_path(kind, key);
        fs::rename(&tmp_path, &final_path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp_path);
        })?;

        self.metrics.writes.incr();
        self.metrics
            .bytes
            .add((header.len() + payload.len()) as u64);
        Ok(())
    }

    /// Reads one artifact back as a serde `Value` tree, or `None` on miss.
    ///
    /// Every validation failure (bad magic, truncated header, manifest or
    /// payload checksum mismatch, undecodable payload) quarantines the file
    /// and reports a miss; stale provenance/schema and filename-collision
    /// key mismatches report a miss and leave the file for the write-through
    /// to overwrite.
    pub fn get(&self, kind: ArtifactKind, key: &str, provenance: u64) -> Option<Value> {
        self.get_explained(kind, key, provenance).0
    }

    /// [`get`](Self::get), also reporting why a lookup missed.
    pub fn get_explained(
        &self,
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
    ) -> (Option<Value>, Option<MissReason>) {
        let _span = span("store.read");
        self.metrics.reads.incr();
        let path = self.artifact_path(kind, key);
        let mut bytes = Vec::new();
        match fs::File::open(&path) {
            Ok(mut file) => {
                if file.read_to_end(&mut bytes).is_err() {
                    self.quarantine(&path, "unreadable file");
                    return (None, Some(MissReason::Quarantined));
                }
            }
            Err(_) => return (None, Some(MissReason::Absent)),
        }

        match self.parse_file(&bytes, kind, key, provenance) {
            Ok(ParseOutcome::Hit(value)) => {
                self.metrics.hits.incr();
                (Some(value), None)
            }
            Ok(ParseOutcome::Stale) => (None, Some(MissReason::Stale)),
            Err(reason) => {
                self.quarantine(&path, reason);
                (None, Some(MissReason::Quarantined))
            }
        }
    }

    /// Typed convenience over [`get`](Self::get): decodes the `Value` tree
    /// through the artifact's `Deserialize` impl. A tree that no longer
    /// matches the Rust shape (schema drift without a version bump) reads as
    /// a miss with a warning rather than an error.
    pub fn get_typed<T: Deserialize>(
        &self,
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
    ) -> Option<T> {
        let value = self.get(kind, key, provenance)?;
        match T::deserialize_value(&value) {
            Ok(artifact) => Some(artifact),
            Err(err) => {
                diag!(
                    Warn,
                    "store: {} artifact for key `{}` failed typed decode ({}); recomputing",
                    kind.name(),
                    key,
                    err
                );
                None
            }
        }
    }

    fn parse_file(
        &self,
        bytes: &[u8],
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
    ) -> Result<ParseOutcome, &'static str> {
        if bytes.len() < 8 {
            return Err("file shorter than header");
        }
        if bytes[0..4] != MAGIC {
            return Err("bad magic");
        }
        // A store file of another format version (written before an
        // upgrade) is sound, just not readable by this build: a stale miss
        // the write-through overwrites, not corruption.
        let format = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if format != FORMAT_VERSION {
            return Ok(ParseOutcome::Stale);
        }
        if bytes.len() < 12 {
            return Err("file shorter than header");
        }
        let mlen = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        if mlen > MAX_MANIFEST_LEN {
            return Err("manifest length implausibly large");
        }
        let manifest_end = 12usize
            .checked_add(mlen)
            .ok_or("manifest length overflow")?;
        let check_end = manifest_end
            .checked_add(8)
            .ok_or("manifest length overflow")?;
        if check_end > bytes.len() {
            return Err("truncated manifest");
        }
        let manifest_bytes = &bytes[12..manifest_end];
        let stored_check = u64::from_le_bytes(bytes[manifest_end..check_end].try_into().unwrap());
        if checksum(manifest_bytes) != stored_check {
            return Err("manifest checksum mismatch");
        }
        let manifest_json =
            std::str::from_utf8(manifest_bytes).map_err(|_| "manifest not UTF-8")?;
        let manifest: Manifest =
            serde_json::from_str(manifest_json).map_err(|_| "manifest not parseable")?;

        // Staleness checks come after integrity checks: the file is sound,
        // it just is not the artifact the caller wants.
        if manifest.schema_version != SCHEMA_VERSION
            || manifest.kind != kind.name()
            || manifest.key != key
            || manifest.provenance != provenance
        {
            return Ok(ParseOutcome::Stale);
        }

        let payload = &bytes[check_end..];
        if payload.len() as u64 != manifest.payload_len {
            return Err("payload length mismatch (truncated write)");
        }
        if checksum(payload) != manifest.payload_checksum {
            return Err("payload checksum mismatch");
        }
        let value = decode_value(payload).map_err(|_| "payload decode failed")?;
        Ok(ParseOutcome::Hit(value))
    }

    fn quarantine(&self, path: &Path, reason: &str) {
        self.metrics.quarantined.incr();
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unknown.art");
        // Suffix with a counter so repeated corruption of the same key never
        // silently overwrites earlier evidence.
        let dest = self.quarantine_dir().join(format!(
            "{}.{}.quarantined",
            file_name,
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let moved = fs::rename(path, &dest).is_ok();
        if !moved {
            // Cross-device or permission failure: fall back to deletion so a
            // poisoned file cannot wedge every future read of this key.
            let _ = fs::remove_file(path);
        }
        diag!(
            Warn,
            "store: quarantined corrupt artifact {} ({reason}); will recompute",
            path.display()
        );
    }
}

enum ParseOutcome {
    Hit(Value),
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Fresh per-test directory under the target tmpdir; best-effort cleanup
    /// on drop.
    struct TempStoreDir(PathBuf);

    impl TempStoreDir {
        fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "predict_store_test_{}_{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&path).unwrap();
            TempStoreDir(path)
        }
    }

    impl Drop for TempStoreDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn tree() -> Value {
        Value::Map(vec![
            ("iterations".to_string(), Value::UInt(17)),
            ("threshold".to_string(), Value::Float(0.000123)),
            (
                "profile".to_string(),
                Value::Seq(vec![Value::Float(1.5), Value::Float(2.5), Value::Null]),
            ),
        ])
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store
            .put(ArtifactKind::Model, "model-key", 42, &tree())
            .unwrap();
        assert_eq!(
            store.get(ArtifactKind::Model, "model-key", 42),
            Some(tree())
        );
        assert_eq!(store.artifact_count(ArtifactKind::Model), 1);
    }

    #[test]
    fn absent_is_a_plain_miss() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        let (value, reason) = store.get_explained(ArtifactKind::Sample, "nope", 0);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Absent));
        assert_eq!(store.quarantined_files(), 0);
    }

    #[test]
    fn provenance_mismatch_is_stale_not_quarantined() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store.put(ArtifactKind::Sample, "k", 1, &tree()).unwrap();
        let (value, reason) = store.get_explained(ArtifactKind::Sample, "k", 2);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Stale));
        assert_eq!(store.quarantined_files(), 0);
        // The artifact is still present and readable under its own provenance.
        assert!(store.get(ArtifactKind::Sample, "k", 1).is_some());
    }

    #[test]
    fn truncated_file_quarantines_and_recovers() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store
            .put(ArtifactKind::SampleRun, "run", 7, &tree())
            .unwrap();
        let path = store.artifact_path(ArtifactKind::SampleRun, "run");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (value, reason) = store.get_explained(ArtifactKind::SampleRun, "run", 7);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Quarantined));
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert_eq!(store.quarantined_files(), 1);

        // Recompute-and-overwrite restores service.
        store
            .put(ArtifactKind::SampleRun, "run", 7, &tree())
            .unwrap();
        assert_eq!(store.get(ArtifactKind::SampleRun, "run", 7), Some(tree()));
    }

    #[test]
    fn every_single_byte_flip_degrades_cleanly() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store.put(ArtifactKind::Model, "flip", 3, &tree()).unwrap();
        let path = store.artifact_path(ArtifactKind::Model, "flip");
        let original = fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut corrupt = original.clone();
            corrupt[i] ^= 0x20;
            fs::write(&path, &corrupt).unwrap();
            // Must not panic; must never return a value different from the
            // original tree (a flip that survives all checksums could only
            // be inside JSON whitespace, which FNV catches anyway).
            if let Some(v) = store.get(ArtifactKind::Model, "flip", 3) {
                assert_eq!(v, tree(), "flip at byte {i} silently altered the artifact");
            }
        }
        // Restore for hygiene.
        fs::write(&path, &original).ok();
    }

    /// A sample-graph-shaped tree: the store's largest payloads are columns.
    fn column_tree() -> Value {
        Value::Map(vec![
            ("out_offsets".to_string(), Value::U64s(vec![0, 2, 5, 9])),
            ("out_targets".to_string(), Value::U32s((0..9).collect())),
            (
                "out_weights".to_string(),
                Value::F32s(vec![0.5, 1.0, f32::MIN_POSITIVE, 2.0]),
            ),
            ("profile".to_string(), Value::F64s(vec![1.5, -0.0, 1e300])),
        ])
    }

    #[test]
    fn every_truncation_and_flip_of_a_column_file_degrades_cleanly() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store
            .put(ArtifactKind::Sample, "cols", 4, &column_tree())
            .unwrap();
        let path = store.artifact_path(ArtifactKind::Sample, "cols");
        let original = fs::read(&path).unwrap();
        assert_eq!(
            store.get(ArtifactKind::Sample, "cols", 4),
            Some(column_tree())
        );
        for cut in 0..original.len() {
            fs::write(&path, &original[..cut]).unwrap();
            assert_eq!(
                store.get(ArtifactKind::Sample, "cols", 4),
                None,
                "a {cut}-byte prefix read as a hit"
            );
        }
        for i in 0..original.len() {
            for mask in [0x01u8, 0x80] {
                let mut corrupt = original.clone();
                corrupt[i] ^= mask;
                fs::write(&path, &corrupt).unwrap();
                if let Some(v) = store.get(ArtifactKind::Sample, "cols", 4) {
                    assert_eq!(v, column_tree(), "flip at byte {i} altered the artifact");
                }
            }
        }
    }

    #[test]
    fn other_format_version_is_stale_not_quarantined() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        // A hand-built version-1 file: magic, format 1, a manifest with the
        // old compressed/uncompressed length pair, its check word, and an
        // opaque compressed payload.
        let manifest = br#"{"schema_version":1,"kind":"model","key":"old","provenance":5,"payload_checksum":1,"compressed_len":4,"uncompressed_len":9}"#;
        let mut file = Vec::new();
        file.extend_from_slice(b"PSTR");
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&(manifest.len() as u32).to_le_bytes());
        file.extend_from_slice(manifest);
        file.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        file.extend_from_slice(&[9, 0, 0, 0]);
        let path = store.artifact_path(ArtifactKind::Model, "old");
        fs::write(&path, &file).unwrap();

        let (value, reason) = store.get_explained(ArtifactKind::Model, "old", 5);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Stale));
        assert_eq!(store.quarantined_files(), 0);
        assert!(path.exists(), "a stale file stays for the write-through");

        // The write-through overwrites it with a current-format file.
        store.put(ArtifactKind::Model, "old", 5, &tree()).unwrap();
        assert_eq!(store.get(ArtifactKind::Model, "old", 5), Some(tree()));
        assert_eq!(store.quarantined_files(), 0);
    }

    #[test]
    fn checksum_detects_every_single_byte_flip() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let payload: Vec<u8> = (0..64 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let clean = checksum(&payload);
        let mut corrupt = payload.clone();
        for i in 0..payload.len() {
            for mask in [0x01u8, 0xFF] {
                corrupt[i] ^= mask;
                assert_ne!(
                    checksum(&corrupt),
                    clean,
                    "flip {mask:#04x} at byte {i} undetected"
                );
                corrupt[i] ^= mask;
            }
        }
    }

    #[test]
    fn checksum_separates_lengths_and_streams() {
        // Zero padding of the tail word must not make lengths collide.
        assert_ne!(checksum(&[]), checksum(&[0]));
        assert_ne!(checksum(&[0; 7]), checksum(&[0; 8]));
        // Streaming the same words in one call or several agrees.
        let mut a = Checksum::new();
        a.write_u32s(&[1, 2, 3]);
        let mut b = Checksum::new();
        b.write_word(1 | 2 << 32);
        b.write_word(3);
        b.write_word(3);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = TempStoreDir::new();
        {
            let store = ArtifactStore::open(&dir.0).unwrap();
            store.put(ArtifactKind::Sample, "keep", 1, &tree()).unwrap();
        }
        // Simulate a crash mid-write: garbage left in tmp/.
        fs::write(dir.0.join("tmp").join("dead.tmp"), b"partial").unwrap();
        let store = ArtifactStore::open(&dir.0).unwrap();
        assert_eq!(fs::read_dir(dir.0.join("tmp")).unwrap().count(), 0);
        // Published artifacts survive the sweep.
        assert!(store.get(ArtifactKind::Sample, "keep", 1).is_some());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        for i in 0..20u64 {
            let key = format!("key-{i}");
            store
                .put(ArtifactKind::Model, &key, 9, &Value::UInt(i))
                .unwrap();
        }
        for i in 0..20u64 {
            let key = format!("key-{i}");
            assert_eq!(
                store.get(ArtifactKind::Model, &key, 9),
                Some(Value::UInt(i))
            );
        }
    }

    #[test]
    fn concurrent_writers_and_readers_settle() {
        let dir = TempStoreDir::new();
        let store = std::sync::Arc::new(ArtifactStore::open(&dir.0).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let key = format!("k-{}", (t * 25 + i) % 10);
                        store
                            .put(ArtifactKind::ActualRun, &key, 5, &Value::UInt(i))
                            .unwrap();
                        let _ = store.get(ArtifactKind::ActualRun, &key, 5);
                    }
                });
            }
        });
        // All ten keys readable, none quarantined: partial files are never
        // observable.
        for k in 0..10 {
            assert!(store
                .get(ArtifactKind::ActualRun, &format!("k-{k}"), 5)
                .is_some());
        }
        assert_eq!(store.quarantined_files(), 0);
    }
}
