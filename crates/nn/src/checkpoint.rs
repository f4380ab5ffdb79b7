//! Checkpoint codec: a small named-tensor binary format, written
//! crash-safely and verified end-to-end.
//!
//! Layout of the current (v2) format, little-endian:
//!
//! ```text
//! magic   b"PMMCKPT2"
//! u32     format version (2)
//! u32     entry count
//! entry*: u32 name length | name bytes (utf-8)
//!         u32 rank | u64 * rank dims
//!         f32 * numel data
//! u32     CRC32 (IEEE) of every preceding byte
//! ```
//!
//! [`save`] writes to a temporary sibling and renames it into place, so
//! a crash mid-write never destroys the previous checkpoint, and the
//! CRC footer lets [`read_all`] reject truncated or bit-flipped files
//! before any parameter is touched. Legacy `PMMCKPT1` files (no
//! version field, no CRC) are still readable.
//!
//! [`load_filtered`] is the mechanism behind PMMRec's plug-and-play
//! transfer: a fine-tuning run can load only `text_encoder.*` and
//! `user_encoder.*` from a pre-trained checkpoint while leaving the
//! remaining components at their fresh initialisation.
//!
//! [`CheckpointRotation`] layers fault tolerance on top: it keeps a
//! retained window of the N most recent checkpoints and
//! [`CheckpointRotation::load_latest`] falls back across them when the
//! newest is corrupt — the disk half of the anomaly-guard/rollback
//! story.

use crate::param::ParamStore;
use pmm_obs::obs_warn;
use pmm_tensor::Tensor;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC_V2: &[u8; 8] = b"PMMCKPT2";
const MAGIC_V1: &[u8; 8] = b"PMMCKPT1";
const FORMAT_VERSION: u32 = 2;

/// Errors raised by the codec.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a PMMCKPT checkpoint or is corrupt.
    Format(String),
    /// A tensor in the file does not match the destination parameter.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape stored in the file.
        file: Vec<usize>,
        /// Shape registered in the store.
        store: Vec<usize>,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::ShapeMismatch { name, file, store } => write!(
                f,
                "checkpoint shape mismatch for {name}: file {file:?} vs store {store:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven — the integrity footer.
// ----------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes` — exposed so tests and external tooling can
/// verify checkpoint footers independently.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Saves every parameter of `store` to `path` atomically: the encoded
/// bytes (with CRC footer) go to a temporary sibling file which is then
/// renamed over `path`, so an interrupted save leaves any previous
/// checkpoint intact.
pub fn save(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V2);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let n = u32::try_from(store.params().len())
        .map_err(|_| CheckpointError::Format("too many parameters".into()))?;
    buf.extend_from_slice(&n.to_le_bytes());
    for p in store.params() {
        let name = p.name().as_bytes();
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        let value = p.value();
        buf.extend_from_slice(&(value.shape().len() as u32).to_le_bytes());
        for &d in value.shape() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &x in value.data() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let tmp = tmp_sibling(path);
    let write_result = (|| -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write_result {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    Ok(())
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Reads every tensor in a checkpoint into a name-keyed map. The open
/// and read are retried with backoff on transient IO errors; v2 files
/// are CRC-verified before any entry is parsed.
pub fn read_all(path: impl AsRef<Path>) -> Result<HashMap<String, Tensor>, CheckpointError> {
    let path = path.as_ref();
    let bytes = pmm_fault::with_io_retry_notify(
        &format!("read checkpoint {}", path.display()),
        || std::fs::read(path),
        |attempt, e| {
            pmm_obs::counter::IO_RETRIES.add(1);
            pmm_obs::sink::emit_guard("io_retry", u64::from(attempt), &e.to_string());
            obs_warn!("checkpoint", "read {} failed (attempt {}): {e}; retrying", path.display(), attempt + 1);
        },
    )?;
    if bytes.len() < 8 {
        return Err(CheckpointError::Format(format!(
            "file is {} bytes, smaller than the magic header",
            bytes.len()
        )));
    }
    match &bytes[..8] {
        m if m == MAGIC_V2 => read_entries_v2(&bytes),
        m if m == MAGIC_V1 => read_entries(&mut &bytes[8..]),
        _ => Err(CheckpointError::Format("bad magic".into())),
    }
}

fn read_entries_v2(bytes: &[u8]) -> Result<HashMap<String, Tensor>, CheckpointError> {
    if bytes.len() < 16 {
        return Err(CheckpointError::Format("truncated v2 header".into()));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    let actual = crc32(body);
    if stored != actual {
        return Err(CheckpointError::Format(format!(
            "CRC mismatch: footer {stored:#010x} vs computed {actual:#010x} (truncated or corrupt file)"
        )));
    }
    let mut r = &body[8..];
    let version = read_u32(&mut r)?;
    if version > FORMAT_VERSION {
        return Err(CheckpointError::Format(format!(
            "format version {version} is newer than supported {FORMAT_VERSION}"
        )));
    }
    read_entries(&mut r)
}

fn read_entries(r: &mut impl Read) -> Result<HashMap<String, Tensor>, CheckpointError> {
    let n = read_u32(r)? as usize;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let name_len = read_u32(r)? as usize;
        if name_len > 1 << 16 {
            return Err(CheckpointError::Format("implausible name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| CheckpointError::Format("non-utf8 parameter name".into()))?;
        let rank = read_u32(r)? as usize;
        if rank > 8 {
            return Err(CheckpointError::Format(format!("implausible rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            shape.push(u64::from_le_bytes(b) as usize);
        }
        let numel: usize = shape.iter().product();
        if numel > 1 << 28 {
            return Err(CheckpointError::Format("implausible tensor size".into()));
        }
        let mut data = Vec::with_capacity(numel);
        let mut buf = [0u8; 4];
        for _ in 0..numel {
            r.read_exact(&mut buf)?;
            data.push(f32::from_le_bytes(buf));
        }
        let t = Tensor::from_vec(data, &shape)
            .map_err(|e| CheckpointError::Format(e.to_string()))?;
        out.insert(name, t);
    }
    Ok(out)
}

/// Summary of a [`load_filtered`] run.
#[derive(Debug, Default, Clone)]
pub struct LoadReport {
    /// Parameters whose values were replaced.
    pub loaded: Vec<String>,
    /// Store parameters matching the filter with no checkpoint entry.
    pub missing: Vec<String>,
    /// Checkpoint entries matching the filter with no store parameter.
    pub unused: Vec<String>,
}

/// Loads checkpoint values into `store`, restricted to parameters whose
/// name starts with one of `prefixes` (an empty slice loads everything).
///
/// Shape mismatches abort with an error before any partial write beyond
/// already-matching entries (callers treating transfers as atomic should
/// check shapes via a dry run — in this codebase architectures are
/// constructed from the same configs, so mismatch means programmer
/// error).
pub fn load_filtered(
    store: &ParamStore,
    path: impl AsRef<Path>,
    prefixes: &[&str],
) -> Result<LoadReport, CheckpointError> {
    let all = read_all(path)?;
    let wanted = |name: &str| prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p));
    let mut report = LoadReport::default();
    for p in store.params() {
        if !wanted(p.name()) {
            continue;
        }
        match all.get(p.name()) {
            Some(t) => {
                if t.shape() != p.value().shape() {
                    return Err(CheckpointError::ShapeMismatch {
                        name: p.name().to_string(),
                        file: t.shape().to_vec(),
                        store: p.value().shape().to_vec(),
                    });
                }
                p.set_value(t.clone());
                report.loaded.push(p.name().to_string());
            }
            None => report.missing.push(p.name().to_string()),
        }
    }
    for name in all.keys() {
        if wanted(name) && store.get(name).is_none() {
            report.unused.push(name.clone());
        }
    }
    report.unused.sort();
    Ok(report)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

// ----------------------------------------------------------------------
// Retained-window rotation with corrupt-checkpoint fallback.
// ----------------------------------------------------------------------

/// A directory of sequence-numbered checkpoints (`{tag}-{seq:08}.ckpt`)
/// with a bounded retention window. Saves are atomic and prune the
/// oldest generations; [`CheckpointRotation::load_latest`] restores the
/// newest checkpoint that passes integrity checks, falling back across
/// the window when newer ones are corrupt or truncated.
pub struct CheckpointRotation {
    dir: PathBuf,
    tag: String,
    keep: usize,
}

impl CheckpointRotation {
    /// Creates (or reuses) the rotation directory; `keep` is clamped to
    /// at least 1 retained checkpoint.
    pub fn new(
        dir: impl Into<PathBuf>,
        tag: impl Into<String>,
        keep: usize,
    ) -> Result<CheckpointRotation, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointRotation { dir, tag: tag.into(), keep: keep.max(1) })
    }

    /// Path of the checkpoint for sequence number `seq`.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}-{seq:08}.ckpt", self.tag))
    }

    /// Saves `store` as generation `seq` and prunes generations beyond
    /// the retention window. An installed fault plan may corrupt the
    /// written file (simulating a crash mid-write) — deliberately
    /// *after* the save, so recovery via older generations is what gets
    /// exercised.
    pub fn save(&self, store: &ParamStore, seq: u64) -> Result<PathBuf, CheckpointError> {
        let path = self.path_for(seq);
        save(store, &path)?;
        if pmm_fault::trip_corrupt_save() {
            pmm_fault::corrupt_file(&path)?;
            obs_warn!("checkpoint", "fault plan corrupted {}", path.display());
        }
        self.prune();
        Ok(path)
    }

    /// All checkpoints in the directory for this tag, ascending by
    /// sequence number.
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        let prefix = format!("{}-", self.tag);
        let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                let name = path.file_name()?.to_str()?;
                let seq = name
                    .strip_prefix(&prefix)?
                    .strip_suffix(".ckpt")?
                    .parse::<u64>()
                    .ok()?;
                Some((seq, path))
            })
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    /// Loads the newest checkpoint that passes integrity checks into
    /// `store`, returning its sequence number. Corrupt or unreadable
    /// generations are skipped (with a `ckpt_fallback` guard event and
    /// counter bump) until one loads; errors only when the whole window
    /// is exhausted.
    pub fn load_latest(&self, store: &ParamStore) -> Result<(u64, LoadReport), CheckpointError> {
        let mut window = self.list();
        window.reverse();
        if window.is_empty() {
            return Err(CheckpointError::Format(format!(
                "no {}-*.ckpt checkpoints in {}",
                self.tag,
                self.dir.display()
            )));
        }
        let newest = window[0].0;
        for (seq, path) in window {
            match load_filtered(store, &path, &[]) {
                Ok(report) => {
                    if seq != newest {
                        pmm_obs::sink::emit_guard("recovery", seq, "restored older checkpoint generation");
                    }
                    return Ok((seq, report));
                }
                Err(e) => {
                    pmm_obs::counter::CKPT_FALLBACKS.add(1);
                    pmm_obs::sink::emit_guard("ckpt_fallback", seq, &e.to_string());
                    obs_warn!(
                        "checkpoint",
                        "checkpoint {} unusable ({e}); falling back to an older generation",
                        path.display()
                    );
                }
            }
        }
        Err(CheckpointError::Format(format!(
            "every checkpoint in the {}-generation window is corrupt",
            self.keep
        )))
    }

    fn prune(&self) {
        let listed = self.list();
        if listed.len() > self.keep {
            for (_, path) in &listed[..listed.len() - self.keep] {
                std::fs::remove_file(path).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn tmp(name: &str) -> std::path::PathBuf {
        env::temp_dir().join(format!("pmm_ckpt_test_{name}_{}", std::process::id()))
    }

    fn store_with(names: &[(&str, &[usize])]) -> ParamStore {
        let mut s = ParamStore::new();
        for (i, (n, sh)) in names.iter().enumerate() {
            s.register(*n, Tensor::full(sh, i as f32 + 1.0));
        }
        s
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let src = store_with(&[("a.w", &[2, 3]), ("b.w", &[4])]);
        let path = tmp("roundtrip");
        save(&src, &path).unwrap();
        let dst = store_with(&[("a.w", &[2, 3]), ("b.w", &[4])]);
        dst.get("a.w").unwrap().set_value(Tensor::zeros(&[2, 3]));
        let report = load_filtered(&dst, &path, &[]).unwrap();
        assert_eq!(report.loaded.len(), 2);
        assert_eq!(dst.get("a.w").unwrap().value_cloned().data(), &[1.0; 6]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn prefix_filter_limits_loading() {
        let src = store_with(&[("enc.w", &[2]), ("head.w", &[2])]);
        let path = tmp("prefix");
        save(&src, &path).unwrap();
        let dst = store_with(&[("enc.w", &[2]), ("head.w", &[2])]);
        dst.get("enc.w").unwrap().set_value(Tensor::zeros(&[2]));
        dst.get("head.w").unwrap().set_value(Tensor::zeros(&[2]));
        let report = load_filtered(&dst, &path, &["enc."]).unwrap();
        assert_eq!(report.loaded, vec!["enc.w".to_string()]);
        assert_eq!(dst.get("enc.w").unwrap().value_cloned().data(), &[1.0, 1.0]);
        assert_eq!(dst.get("head.w").unwrap().value_cloned().data(), &[0.0, 0.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_and_unused_are_reported() {
        let src = store_with(&[("only_in_file.w", &[1])]);
        let path = tmp("missing");
        save(&src, &path).unwrap();
        let dst = store_with(&[("only_in_store.w", &[1])]);
        let report = load_filtered(&dst, &path, &[]).unwrap();
        assert_eq!(report.missing, vec!["only_in_store.w".to_string()]);
        assert_eq!(report.unused, vec!["only_in_file.w".to_string()]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let src = store_with(&[("w", &[2])]);
        let path = tmp("mismatch");
        save(&src, &path).unwrap();
        let dst = store_with(&[("w", &[3])]);
        assert!(matches!(
            load_filtered(&dst, &path, &[]),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"NOTACKPTxxxx").unwrap();
        assert!(matches!(read_all(&path), Err(CheckpointError::Format(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn truncated_file_fails_crc_not_parse() {
        let src = store_with(&[("w", &[8, 8])]);
        let path = tmp("truncated");
        save(&src, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match read_all(&path) {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("CRC"), "expected CRC rejection, got: {msg}")
            }
            other => panic!("expected Format error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bitflip_fails_crc() {
        let src = store_with(&[("w", &[4])]);
        let path = tmp("bitflip");
        save(&src, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_all(&path), Err(CheckpointError::Format(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn legacy_v1_files_still_load() {
        // Hand-encode a v1 checkpoint: magic, count=1, "w", rank 1, [2], data.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"PMMCKPT1");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(b"w");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&5.0f32.to_le_bytes());
        bytes.extend_from_slice(&6.0f32.to_le_bytes());
        let path = tmp("legacy_v1");
        std::fs::write(&path, &bytes).unwrap();
        let dst = store_with(&[("w", &[2])]);
        let report = load_filtered(&dst, &path, &[]).unwrap();
        assert_eq!(report.loaded, vec!["w".to_string()]);
        assert_eq!(dst.get("w").unwrap().value_cloned().data(), &[5.0, 6.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let src = store_with(&[("w", &[2])]);
        let dir = tmp("atomic_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        save(&src, &path).unwrap();
        save(&src, &path).unwrap(); // overwrite path also atomic
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_prunes_to_window() {
        let dir = tmp("rotation_prune");
        std::fs::remove_dir_all(&dir).ok();
        let rot = CheckpointRotation::new(&dir, "m", 2).unwrap();
        let src = store_with(&[("w", &[2])]);
        for seq in 0..5 {
            rot.save(&src, seq).unwrap();
        }
        let listed = rot.list();
        assert_eq!(listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_falls_back_across_corrupt_generations() {
        let dir = tmp("rotation_fallback");
        std::fs::remove_dir_all(&dir).ok();
        let rot = CheckpointRotation::new(&dir, "m", 3).unwrap();
        let src = store_with(&[("w", &[2])]);
        src.get("w").unwrap().set_value(Tensor::full(&[2], 10.0));
        rot.save(&src, 1).unwrap();
        src.get("w").unwrap().set_value(Tensor::full(&[2], 20.0));
        rot.save(&src, 2).unwrap();
        // Corrupt the newest generation on disk.
        pmm_fault::corrupt_file(&rot.path_for(2)).unwrap();
        let dst = store_with(&[("w", &[2])]);
        let (seq, report) = rot.load_latest(&dst).unwrap();
        assert_eq!(seq, 1, "must fall back to the older good generation");
        assert_eq!(report.loaded, vec!["w".to_string()]);
        assert_eq!(dst.get("w").unwrap().value_cloned().data(), &[10.0, 10.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_errors_when_window_exhausted() {
        let dir = tmp("rotation_exhausted");
        std::fs::remove_dir_all(&dir).ok();
        let rot = CheckpointRotation::new(&dir, "m", 2).unwrap();
        let dst = store_with(&[("w", &[2])]);
        assert!(matches!(rot.load_latest(&dst), Err(CheckpointError::Format(_))));
        let src = store_with(&[("w", &[2])]);
        rot.save(&src, 0).unwrap();
        pmm_fault::corrupt_file(&rot.path_for(0)).unwrap();
        assert!(matches!(rot.load_latest(&dst), Err(CheckpointError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_corrupts_scheduled_save() {
        let dir = tmp("rotation_fault");
        std::fs::remove_dir_all(&dir).ok();
        let rot = CheckpointRotation::new(&dir, "m", 3).unwrap();
        let src = store_with(&[("w", &[4])]);
        pmm_fault::install(pmm_fault::FaultPlan::parse("ckpt@1").unwrap());
        rot.save(&src, 0).unwrap();
        rot.save(&src, 1).unwrap(); // corrupted by the plan
        pmm_fault::clear();
        assert!(read_all(rot.path_for(0)).is_ok());
        assert!(read_all(rot.path_for(1)).is_err());
        let dst = store_with(&[("w", &[4])]);
        let (seq, _) = rot.load_latest(&dst).unwrap();
        assert_eq!(seq, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
