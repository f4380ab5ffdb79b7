//! The append-only write-ahead log.
//!
//! A WAL directory holds numbered segment files (`wal-00000000.seg`,
//! `wal-00000001.seg`, ...). Each segment starts with the magic
//! header [`MAGIC`]; records follow as `[u32 len][u32 crc][payload]`
//! frames (little-endian, CRC32/IEEE over the payload — the same
//! integrity discipline as the checkpoint codec). Segments are
//! created atomically (tmp sibling + rename, like
//! `pmm_nn::checkpoint::save`) and every acknowledged append is
//! fsynced, so:
//!
//! * an append that returned durable **survives any crash**, and
//! * a crash mid-append leaves a torn tail the replayer truncates —
//!   never a half-record that parses as garbage.
//!
//! The injected `wal_corrupt@N` fault ([`pmm_fault::trip_wal_corrupt`])
//! simulates that crash deterministically: the Nth append writes only
//! a torn prefix of its frame, then the writer rotates to a fresh
//! segment so later appends land after the damage, exactly as a
//! restarted process would.

use pmm_data::world::Item;
use pmm_nn::checkpoint::crc32;
use pmm_obs::counter as ctr;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Segment header magic: identifies a PMM WAL segment, version 1.
pub const MAGIC: &[u8; 8] = b"PMMWAL01";

/// Upper bound on one record's payload; a parsed length beyond this
/// is corruption, not a large item.
pub const MAX_RECORD_BYTES: u32 = 1 << 26;

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure, with the path it happened on.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// A record or segment violates the on-disk format.
    Format(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal io error at {}: {source}", path.display())
            }
            WalError::Format(m) => write!(f, "wal format error: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Tag an io::Error with the path it happened on.
pub(crate) fn io_at(path: &Path) -> impl FnOnce(io::Error) -> WalError + '_ {
    move |source| WalError::Io { path: path.to_path_buf(), source }
}

/// WAL tuning.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (header included). Small segments bound how much one
    /// corrupt tail can take down.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { segment_bytes: 64 * 1024 }
    }
}

/// The live segment files of a WAL directory, sorted by segment
/// index (their names embed it zero-padded, so lexicographic order is
/// numeric order). An absent directory is an empty WAL.
pub fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, WalError> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        other => other.map_err(io_at(dir))?,
    };
    let mut segs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    Ok(segs)
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

/// The append side of the log. One writer owns the tail segment;
/// replay and fold operate on the directory independently.
pub struct Wal {
    dir: PathBuf,
    file: File,
    seg_path: PathBuf,
    next_index: u64,
    seg_bytes: u64,
    tail_bytes: u64,
    cfg: WalConfig,
}

impl Wal {
    /// Open a WAL in `dir` (created if absent) with default tuning.
    pub fn open(dir: &Path) -> Result<Wal, WalError> {
        Wal::with_config(dir, WalConfig::default())
    }

    /// Open a WAL in `dir`. Existing segments are left untouched for
    /// replay; appends always start a fresh segment after the highest
    /// existing index, so a writer never extends a file whose tail it
    /// has not validated.
    pub fn with_config(dir: &Path, cfg: WalConfig) -> Result<Wal, WalError> {
        fs::create_dir_all(dir).map_err(io_at(dir))?;
        let existing = segment_paths(dir)?;
        let next_index = existing
            .iter()
            .filter_map(|p| {
                p.file_name()?
                    .to_str()?
                    .strip_prefix("wal-")?
                    .strip_suffix(".seg")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .map_or(0, |last| last + 1);
        let tail_bytes: u64 = existing
            .iter()
            .map(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        let mut wal = Wal {
            dir: dir.to_path_buf(),
            // Placeholder; create_segment installs the real handle.
            file: File::open(dir).map_err(io_at(dir))?,
            seg_path: PathBuf::new(),
            next_index,
            seg_bytes: 0,
            tail_bytes,
            cfg,
        };
        wal.create_segment()?;
        Ok(wal)
    }

    /// Atomically create the next segment: header written and synced
    /// into a tmp sibling, then renamed into place, so a visible
    /// `wal-*.seg` always carries a complete magic header.
    fn create_segment(&mut self) -> Result<(), WalError> {
        let path = self.dir.join(segment_name(self.next_index));
        let tmp = self.dir.join(format!(".{}.tmp.{}", segment_name(self.next_index), std::process::id()));
        {
            let mut f = File::create(&tmp).map_err(io_at(&tmp))?;
            // pmm-audit: allow(wal-durability) — fixed 8-byte magic header, no record payload to checksum; synced below
            f.write_all(MAGIC).map_err(io_at(&tmp))?;
            f.sync_all().map_err(io_at(&tmp))?;
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            fs::remove_file(&tmp).ok();
            return Err(io_at(&path)(e));
        }
        self.file = OpenOptions::new().append(true).open(&path).map_err(io_at(&path))?;
        self.seg_path = path;
        self.next_index += 1;
        self.seg_bytes = MAGIC.len() as u64;
        self.tail_bytes += MAGIC.len() as u64;
        ctr::WAL_SEGMENTS.add(1);
        Ok(())
    }

    /// Append one item. `Ok(true)` means the record is durably on
    /// disk (framed, CRC'd, fsynced) and will be recovered by every
    /// future [`crate::replay`]. `Ok(false)` means the injected
    /// `wal_corrupt` fault tore this write mid-frame — the record was
    /// *not* acknowledged and replay will truncate it; the writer has
    /// already rotated past the damage so later appends are safe.
    pub fn append(&mut self, item: &Item) -> Result<bool, WalError> {
        let payload = crate::codec::encode_item(item);
        if payload.len() as u64 > MAX_RECORD_BYTES as u64 {
            return Err(WalError::Format(format!(
                "record payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        if pmm_fault::trip_wal_corrupt() {
            // A deterministic torn write: the frame header and half
            // the payload land on disk, the rest never does — the
            // shape a real crash mid-append leaves behind.
            let torn = &frame[..8 + payload.len() / 2];
            self.file.write_all(torn).map_err(io_at(&self.seg_path))?;
            self.file.sync_all().map_err(io_at(&self.seg_path))?;
            self.seg_bytes += torn.len() as u64;
            self.tail_bytes += torn.len() as u64;
            ctr::record_wal_tail_bytes(self.tail_bytes);
            // Rotate so subsequent appends land after the damage,
            // exactly as a restarted writer would.
            self.create_segment()?;
            return Ok(false);
        }

        self.file.write_all(&frame).map_err(io_at(&self.seg_path))?;
        // The durability contract: the record is acknowledged only
        // after fsync. (pmm-audit wal-durability rule: every
        // acknowledged WAL write is CRC-framed and synced.)
        self.file.sync_all().map_err(io_at(&self.seg_path))?;
        self.seg_bytes += frame.len() as u64;
        self.tail_bytes += frame.len() as u64;
        ctr::WAL_APPENDS.add(1);
        ctr::record_wal_tail_bytes(self.tail_bytes);
        if self.seg_bytes >= self.cfg.segment_bytes {
            self.create_segment()?;
        }
        Ok(true)
    }

    /// The directory this WAL writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes across every live segment — the unfolded tail the
    /// `wal_tail_peak_bytes` gauge tracks.
    pub fn tail_bytes(&self) -> u64 {
        self.tail_bytes
    }

    /// The path of the segment currently being appended to.
    pub fn current_segment(&self) -> &Path {
        &self.seg_path
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::tests::sample_item;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) fn tmp_dir(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "pmm_wal_test_{name}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn segments_start_with_the_magic_header() {
        let dir = tmp_dir("magic");
        let mut wal = Wal::open(&dir).unwrap();
        assert!(wal.append(&sample_item(0)).unwrap());
        let bytes = fs::read(wal.current_segment()).unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn small_segment_budget_rotates_and_new_writers_never_reuse_indices() {
        let dir = tmp_dir("rotate");
        {
            let mut wal = Wal::with_config(&dir, WalConfig { segment_bytes: 64 }).unwrap();
            for seed in 0..3 {
                wal.append(&sample_item(seed)).unwrap();
            }
        }
        let after_first = segment_paths(&dir).unwrap();
        assert!(after_first.len() >= 3, "64-byte segments hold one record each: {after_first:?}");
        // A reopened writer starts a fresh segment strictly after the
        // highest existing index.
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&sample_item(9)).unwrap();
        let all = segment_paths(&dir).unwrap();
        assert!(all.len() > after_first.len());
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted, "segment names sort in creation order");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_write_is_unacknowledged_and_rotates_past_the_damage() {
        let dir = tmp_dir("torn");
        pmm_fault::install(pmm_fault::FaultPlan::parse("wal_corrupt@1").unwrap());
        let mut wal = Wal::open(&dir).unwrap();
        assert!(wal.append(&sample_item(0)).unwrap(), "append 0 is durable");
        let torn_seg = wal.current_segment().to_path_buf();
        let before = fs::metadata(&torn_seg).unwrap().len();
        assert!(!wal.append(&sample_item(1)).unwrap(), "append 1 is torn");
        assert!(wal.append(&sample_item(2)).unwrap(), "append 2 is durable again");
        let wal_fired = pmm_fault::fired_ingest();
        pmm_fault::clear();
        assert_eq!(wal_fired, 1);
        // The torn frame landed in the old segment (shorter than a
        // full frame would be) and the next append went elsewhere.
        let after = fs::metadata(&torn_seg).unwrap().len();
        assert!(after > before, "the torn prefix did hit the disk");
        assert_ne!(wal.current_segment(), torn_seg.as_path());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_lists_as_an_empty_wal() {
        let dir = tmp_dir("absent");
        assert!(segment_paths(&dir).unwrap().is_empty());
    }
}
