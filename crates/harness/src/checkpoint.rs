//! Per-scenario result journaling with verification and quarantine.
//!
//! A campaign directory holds one `.ckpt` file per completed scenario.
//! Each file is two lines:
//!
//! ```text
//! {"magic":"wavm3-checkpoint","version":1,"key":"...","fingerprint":"...","checksum":"..."}
//! <payload — typically serde_json of the scenario's records>
//! ```
//!
//! The header's **checksum** (FNV-1a 64 over the payload bytes) catches
//! torn or bit-rotted files; the **fingerprint** (caller-supplied, hashed
//! over the runner config + scenario identity) catches files written by
//! a *different* campaign — other seed, other repetition policy, other
//! fault mix — whose records would silently break determinism if merged.
//! Anything that fails verification is renamed to `*.quarantined` (the
//! evidence survives for debugging) and reported so the scenario is
//! recomputed from its deterministic seed.

use crate::error::Wavm3Error;
use crate::fsx::write_atomic_str;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// File-format magic; a header with anything else is foreign.
pub const CHECKPOINT_MAGIC: &str = "wavm3-checkpoint";
/// Format version; bumped on incompatible payload changes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// FNV-1a 64-bit over `bytes` — the same cheap, dependency-free hash the
/// runner already uses for scenario-id seed scoping.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash an ordered list of identity parts into a hex fingerprint. Parts
/// are length-prefixed so `["ab","c"]` and `["a","bc"]` differ.
pub fn fingerprint_of(parts: &[&str]) -> String {
    let mut joined = Vec::new();
    for p in parts {
        joined.extend_from_slice(p.len().to_le_bytes().as_slice());
        joined.extend_from_slice(p.as_bytes());
    }
    format!("{:016x}", fnv1a64(&joined))
}

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    key: String,
    fingerprint: String,
    checksum: String,
}

/// Outcome of a checkpoint lookup.
#[derive(Debug)]
pub enum CheckpointLoad {
    /// No checkpoint for this key (or resume is off).
    Missing,
    /// Verified payload — safe to merge.
    Valid(String),
    /// A file existed but failed verification; it has been renamed to
    /// `*.quarantined` and the scenario must be recomputed.
    Quarantined {
        /// Where the evidence now lives.
        path: PathBuf,
        /// Human-readable verification failure.
        reason: String,
    },
}

/// A campaign checkpoint directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    resume: bool,
}

impl CheckpointStore {
    /// Open (creating if needed) the campaign directory. With `resume`
    /// false, existing checkpoints are ignored by [`CheckpointStore::load`]
    /// — the campaign starts fresh but still journals as it goes.
    pub fn open(dir: impl Into<PathBuf>, resume: bool) -> Result<Self, Wavm3Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| Wavm3Error::io_at(&dir, e))?;
        Ok(CheckpointStore { dir, resume })
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether `load` consults existing files.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// Deterministic per-key file path: a sanitised slug for human
    /// `ls`-ability plus the key's full hash for collision freedom.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let slug: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(80)
            .collect();
        self.dir
            .join(format!("{slug}-{:016x}.ckpt", fnv1a64(key.as_bytes())))
    }

    /// Journal `payload` for `key` atomically under `fingerprint`.
    pub fn save(&self, key: &str, fingerprint: &str, payload: &str) -> Result<(), Wavm3Error> {
        let _perf = wavm3_obs::perf::scope("harness.checkpoint.save");
        let header = Header {
            magic: CHECKPOINT_MAGIC.to_string(),
            version: CHECKPOINT_VERSION,
            key: key.to_string(),
            fingerprint: fingerprint.to_string(),
            checksum: format!("{:016x}", fnv1a64(payload.as_bytes())),
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| Wavm3Error::serde("checkpoint header", e))?;
        let doc = format!("{header_json}\n{payload}");
        write_atomic_str(&self.path_for(key), &doc)?;
        wavm3_obs::metrics::counter_add("harness.checkpoint.saved", 1);
        Ok(())
    }

    /// Look up `key`, verifying UTF-8, magic, version, key, fingerprint
    /// and checksum. Invalid files are quarantined, never deleted. Only I/O
    /// trouble (other than a missing file) is an `Err`.
    pub fn load(&self, key: &str, fingerprint: &str) -> Result<CheckpointLoad, Wavm3Error> {
        if !self.resume {
            return Ok(CheckpointLoad::Missing);
        }
        let _perf = wavm3_obs::perf::scope("harness.checkpoint.load");
        let path = self.path_for(key);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(CheckpointLoad::Missing)
            }
            Err(e) => return Err(Wavm3Error::io_at(&path, e)),
        };
        // A flipped high bit can break UTF-8: that is corruption too.
        let verified = String::from_utf8(raw)
            .map_err(|e| format!("not valid UTF-8: {e}"))
            .and_then(|raw| Self::verify(&raw, key, fingerprint));
        match verified {
            Ok(payload) => {
                wavm3_obs::metrics::counter_add("harness.checkpoint.loaded", 1);
                Ok(CheckpointLoad::Valid(payload))
            }
            Err(reason) => {
                let to = self.quarantine(&path, &reason)?;
                Ok(CheckpointLoad::Quarantined { path: to, reason })
            }
        }
    }

    /// Rename a bad checkpoint to `*.quarantined` so the evidence
    /// survives while the key reads as missing from now on. Public so a
    /// caller that finds a *payload*-level problem (e.g. records that no
    /// longer deserialise) can retire the file through the same path.
    pub fn quarantine(&self, path: &Path, reason: &str) -> Result<PathBuf, Wavm3Error> {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".quarantined");
        let to = path.with_file_name(name);
        fs::rename(path, &to).map_err(|e| Wavm3Error::io_at(path, e))?;
        wavm3_obs::metrics::counter_add("harness.checkpoint.quarantined", 1);
        eprintln!(
            "warning: quarantined checkpoint {} ({reason})",
            to.display()
        );
        Ok(to)
    }

    fn verify(raw: &str, key: &str, fingerprint: &str) -> Result<String, String> {
        let (header_line, payload) = raw
            .split_once('\n')
            .ok_or_else(|| "missing payload line".to_string())?;
        let header: Header =
            serde_json::from_str(header_line).map_err(|e| format!("unparsable header: {e}"))?;
        if header.magic != CHECKPOINT_MAGIC {
            return Err(format!("bad magic {:?}", header.magic));
        }
        if header.version != CHECKPOINT_VERSION {
            return Err(format!(
                "version {} (this build reads {CHECKPOINT_VERSION})",
                header.version
            ));
        }
        if header.key != key {
            return Err(format!("key {:?} does not match {key:?}", header.key));
        }
        if header.fingerprint != fingerprint {
            return Err(format!(
                "fingerprint {} does not match campaign fingerprint {fingerprint}",
                header.fingerprint
            ));
        }
        let checksum = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if header.checksum != checksum {
            return Err(format!(
                "checksum {} does not match payload ({checksum})",
                header.checksum
            ));
        }
        Ok(payload.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str, resume: bool) -> CheckpointStore {
        let d = std::env::temp_dir().join(format!("wavm3-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        CheckpointStore::open(d, resume).expect("open store")
    }

    #[test]
    fn roundtrip() {
        let s = store("roundtrip", true);
        s.save("fam/live/m/0 VM", "fp01", "[1,2,3]").unwrap();
        match s.load("fam/live/m/0 VM", "fp01").unwrap() {
            CheckpointLoad::Valid(p) => assert_eq!(p, "[1,2,3]"),
            other => panic!("expected valid, got {other:?}"),
        }
        assert!(matches!(
            s.load("fam/live/m/1 VM", "fp01").unwrap(),
            CheckpointLoad::Missing
        ));
        fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn resume_off_ignores_existing_files() {
        let s = store("noresume", true);
        s.save("k", "fp", "x").unwrap();
        let fresh = CheckpointStore::open(s.dir(), false).unwrap();
        assert!(matches!(
            fresh.load("k", "fp").unwrap(),
            CheckpointLoad::Missing
        ));
        fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn corruption_is_quarantined() {
        let s = store("corrupt", true);
        s.save("k", "fp", "payload-bytes").unwrap();
        let path = s.path_for("k");
        let mut raw = fs::read_to_string(&path).unwrap();
        raw = raw.replace("payload-bytes", "payload-bytez");
        fs::write(&path, raw).unwrap();
        match s.load("k", "fp").unwrap() {
            CheckpointLoad::Quarantined { path: q, reason } => {
                assert!(reason.contains("checksum"), "{reason}");
                assert!(q.to_string_lossy().ends_with(".quarantined"));
                assert!(q.exists(), "evidence must survive");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The key now reads as missing: the scenario will be recomputed.
        assert!(matches!(
            s.load("k", "fp").unwrap(),
            CheckpointLoad::Missing
        ));
        fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn every_byte_flip_is_quarantined() {
        let s = store("flips", true);
        s.save("fam/live/m/0 VM", "fp01", "[1,2,3]").unwrap();
        let path = s.path_for("fam/live/m/0 VM");
        let clean = fs::read(&path).unwrap();
        for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
            for i in 0..clean.len() {
                let mut flipped = clean.clone();
                flipped[i] ^= mask;
                fs::write(&path, &flipped).unwrap();
                match s.load("fam/live/m/0 VM", "fp01") {
                    Ok(CheckpointLoad::Quarantined { path: q, .. }) => {
                        assert!(q.exists(), "byte {i} ^ {mask:#04x}: evidence must survive")
                    }
                    other => panic!("byte {i} ^ {mask:#04x}: expected quarantine, got {other:?}"),
                }
            }
        }
        fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn truncations_and_multi_byte_flips_are_quarantined() {
        let s = store("damage", true);
        s.save("fam/live/m/0 VM", "fp01", "[1,2,3]").unwrap();
        let path = s.path_for("fam/live/m/0 VM");
        let clean = fs::read(&path).unwrap();
        let expect_quarantine = |damaged: &[u8], what: String| {
            fs::write(&path, damaged).unwrap();
            match s.load("fam/live/m/0 VM", "fp01") {
                Ok(CheckpointLoad::Quarantined { path: q, .. }) => {
                    assert!(q.exists(), "{what}: evidence must survive")
                }
                other => panic!("{what}: expected quarantine, got {other:?}"),
            }
        };
        for len in 0..clean.len() {
            expect_quarantine(&clean[..len], format!("truncated to {len} bytes"));
        }
        // xorshift64 keeps the draws seeded without a dev-dependency.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for flips in 2..=8 {
            for round in 0..256 {
                // Distinct bytes, so no flip undoes another.
                let mut damaged = clean.clone();
                let mut at = Vec::with_capacity(flips);
                while at.len() < flips {
                    let i = draw(clean.len());
                    if !at.contains(&i) {
                        at.push(i);
                        damaged[i] ^= 1 + draw(255) as u8;
                    }
                }
                expect_quarantine(&damaged, format!("{flips} flips ({round}) at {at:?}"));
            }
        }
        fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_quarantined() {
        let s = store("fp", true);
        s.save("k", "fp-old-seed", "x").unwrap();
        match s.load("k", "fp-new-seed").unwrap() {
            CheckpointLoad::Quarantined { reason, .. } => {
                assert!(reason.contains("fingerprint"), "{reason}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn fingerprints_are_order_and_boundary_sensitive() {
        assert_ne!(fingerprint_of(&["ab", "c"]), fingerprint_of(&["a", "bc"]));
        assert_ne!(fingerprint_of(&["a", "b"]), fingerprint_of(&["b", "a"]));
        assert_eq!(fingerprint_of(&["a", "b"]), fingerprint_of(&["a", "b"]));
    }

    #[test]
    fn distinct_keys_do_not_collide_on_disk() {
        let s = store("keys", true);
        // Same sanitised slug, different raw keys.
        assert_ne!(s.path_for("a/b"), s.path_for("a.b"));
        fs::remove_dir_all(s.dir()).ok();
    }
}
