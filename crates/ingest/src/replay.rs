//! Startup replay and post-fold segment retirement.
//!
//! [`replay`] walks every segment in index order and recovers every
//! fully-written record, in append order, exactly once. A torn or
//! corrupt *tail* — a partial frame header, an implausible length, a
//! CRC mismatch, or a payload that no longer decodes — is truncated
//! off the segment file (`set_len` back to the last good frame
//! boundary), counted in the `wal_truncated` counter, and logged; the
//! walk then continues with the **next** segment, so damage in one
//! segment never shadows records that were durably appended after the
//! writer rotated past it. Replay never panics on disk corruption.
//!
//! [`fold`] deletes every segment after the replayed items have been
//! baked into a base snapshot (the serving stack does this under
//! `swap_snapshot`, so the WAL shrinks only once the new snapshot is
//! live).

use crate::codec::decode_item;
use crate::wal::{self, io_at, WalError, MAGIC, MAX_RECORD_BYTES};
use pmm_data::world::Item;
use pmm_nn::checkpoint::crc32;
use pmm_obs::counter as ctr;
use pmm_obs::obs_warn;
use std::fs::{self, OpenOptions};
use std::path::Path;

/// What a replay recovered.
#[derive(Debug)]
pub struct Replay {
    /// Every fully-written item, in append order.
    pub items: Vec<Item>,
    /// Segments visited.
    pub segments: usize,
    /// Segments whose tail was truncated (torn or corrupt).
    pub truncated: usize,
    /// Total bytes cut off across all truncations.
    pub truncated_bytes: u64,
}

/// Parse one segment's bytes. Returns the recovered items and the
/// byte offset of the first damaged frame (`None` when the segment is
/// clean to its end).
fn parse_segment(bytes: &[u8], path: &Path) -> (Vec<Item>, Option<(u64, String)>) {
    let mut items = Vec::new();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return (items, Some((0, format!("bad segment header in {}", path.display()))));
    }
    let mut pos = MAGIC.len();
    loop {
        let rest = bytes.len() - pos;
        if rest == 0 {
            return (items, None);
        }
        if rest < 8 {
            return (items, Some((pos as u64, format!("torn frame header ({rest} bytes)"))));
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let want = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_RECORD_BYTES {
            return (items, Some((pos as u64, format!("implausible record length {len}"))));
        }
        if rest - 8 < len as usize {
            return (
                items,
                Some((pos as u64, format!("torn payload ({} of {len} bytes)", rest - 8))),
            );
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        let got = crc32(payload);
        if got != want {
            return (
                items,
                Some((pos as u64, format!("crc mismatch {got:#010x} != {want:#010x}"))),
            );
        }
        match decode_item(payload) {
            Ok(item) => items.push(item),
            Err(e) => return (items, Some((pos as u64, format!("undecodable payload: {e}")))),
        }
        pos += 8 + len as usize;
    }
}

/// Replay every segment in `dir`. See the module docs for the
/// recovery contract. An absent directory replays as empty.
pub fn replay(dir: &Path) -> Result<Replay, WalError> {
    let segments = wal::segment_paths(dir)?;
    let mut out = Replay {
        items: Vec::new(),
        segments: segments.len(),
        truncated: 0,
        truncated_bytes: 0,
    };
    for seg in &segments {
        let bytes = fs::read(seg).map_err(io_at(seg))?;
        let (mut items, damage) = parse_segment(&bytes, seg);
        ctr::WAL_REPLAYED.add(items.len() as u64);
        out.items.append(&mut items);
        if let Some((good_end, why)) = damage {
            let cut = bytes.len() as u64 - good_end;
            // Truncate the damage off so the next replay (and any
            // future appender that validates tails) sees a clean
            // segment. Damage at offset 0 (a foreign or headerless
            // file) removes the whole file's content.
            let f = OpenOptions::new().write(true).open(seg).map_err(io_at(seg))?;
            f.set_len(good_end).map_err(io_at(seg))?;
            f.sync_all().map_err(io_at(seg))?;
            ctr::WAL_TRUNCATED.add(1);
            out.truncated += 1;
            out.truncated_bytes += cut;
            obs_warn!(
                "ingest",
                "wal replay truncated {} at byte {}: {} ({} bytes cut)",
                seg.display(),
                good_end,
                why,
                cut
            );
        }
    }
    ctr::INGEST_ITEMS.add(out.items.len() as u64);
    Ok(out)
}

/// Retire every segment in `dir` after its items were folded into a
/// base snapshot. Returns how many segment files were removed.
pub fn fold(dir: &Path) -> Result<usize, WalError> {
    let segments = wal::segment_paths(dir)?;
    for seg in &segments {
        fs::remove_file(seg).map_err(io_at(seg))?;
    }
    if !segments.is_empty() {
        ctr::INGEST_FOLDS.add(1);
        ctr::record_wal_tail_bytes(0);
    }
    Ok(segments.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::sample_item;
    use crate::codec::encode_item;
    use crate::wal::tests::tmp_dir;
    use crate::wal::{Wal, WalConfig};

    fn item_bits(i: &Item) -> (usize, Vec<u32>, Vec<usize>, Vec<u32>, bool) {
        (
            i.category,
            i.latent.iter().map(|x| x.to_bits()).collect(),
            i.tokens.clone(),
            i.patches.iter().map(|x| x.to_bits()).collect(),
            i.mismatched,
        )
    }

    #[test]
    fn replay_recovers_every_acknowledged_item_across_rotations() {
        let dir = tmp_dir("roundtrip");
        let written: Vec<Item> = (0..7).map(sample_item).collect();
        {
            let mut wal = Wal::with_config(&dir, WalConfig { segment_bytes: 128 }).unwrap();
            for item in &written {
                assert!(wal.append(item).unwrap());
            }
        }
        let rep = replay(&dir).unwrap();
        assert!(rep.segments > 1, "rotation produced several segments");
        assert_eq!(rep.truncated, 0);
        assert_eq!(
            rep.items.iter().map(item_bits).collect::<Vec<_>>(),
            written.iter().map(item_bits).collect::<Vec<_>>(),
            "every item, in order, bit-exactly"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_later_segments_still_replay() {
        let dir = tmp_dir("torn_tail");
        pmm_fault::install(pmm_fault::FaultPlan::parse("wal_corrupt@2").unwrap());
        let mut wal = Wal::open(&dir).unwrap();
        let mut durable = Vec::new();
        for seed in 0..5 {
            let item = sample_item(seed);
            if wal.append(&item).unwrap() {
                durable.push(item);
            }
        }
        pmm_fault::clear();
        assert_eq!(durable.len(), 4, "exactly the injected append was torn");
        let torn_len_before: u64 = wal::segment_paths(&dir)
            .unwrap()
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        let rep = replay(&dir).unwrap();
        assert_eq!(rep.truncated, 1, "one segment had its tail cut");
        assert!(rep.truncated_bytes > 0);
        assert_eq!(
            rep.items.iter().map(item_bits).collect::<Vec<_>>(),
            durable.iter().map(item_bits).collect::<Vec<_>>(),
            "all durable items recovered exactly once; the torn one is gone"
        );
        // The truncation is persistent: a second replay is clean and
        // recovers the same items from strictly fewer bytes.
        let len_after: u64 = wal::segment_paths(&dir)
            .unwrap()
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        assert!(len_after < torn_len_before);
        let again = replay(&dir).unwrap();
        assert_eq!(again.truncated, 0);
        assert_eq!(again.items.len(), durable.len());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_in_a_middle_segment_loses_only_that_segment_tail() {
        let dir = tmp_dir("bitflip");
        let written: Vec<Item> = (0..6).map(sample_item).collect();
        {
            // Two records per segment.
            let payload_frame = 8 + encode_item(&sample_item(0)).len();
            let seg_budget = (MAGIC.len() + 2 * payload_frame) as u64;
            let mut wal = Wal::with_config(&dir, WalConfig { segment_bytes: seg_budget }).unwrap();
            for item in &written {
                wal.append(item).unwrap();
            }
        }
        let segs = wal::segment_paths(&dir).unwrap();
        assert!(segs.len() >= 3, "{segs:?}");
        // Flip one payload byte in the middle segment's first record.
        let victim = &segs[1];
        let mut bytes = fs::read(victim).unwrap();
        let idx = MAGIC.len() + 8 + 3;
        bytes[idx] ^= 0xFF;
        fs::write(victim, &bytes).unwrap();

        let rep = replay(&dir).unwrap();
        assert_eq!(rep.truncated, 1);
        // Segment 0's two records and segment 2's records all survive;
        // the middle segment contributes nothing past the flip.
        let got: Vec<_> = rep.items.iter().map(item_bits).collect();
        assert!(got.len() == written.len() - 2, "lost exactly the damaged segment's records");
        assert_eq!(got[..2], written[..2].iter().map(item_bits).collect::<Vec<_>>()[..]);
        assert_eq!(got[2..], written[4..].iter().map(item_bits).collect::<Vec<_>>()[..]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn implausible_length_and_bad_header_truncate_without_panicking() {
        let dir = tmp_dir("implausible");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(&sample_item(0)).unwrap();
        }
        let segs = wal::segment_paths(&dir).unwrap();
        let seg = segs.first().unwrap();
        // Append a frame header claiming a multi-gigabyte record.
        let mut bytes = fs::read(seg).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(seg, &bytes).unwrap();
        let rep = replay(&dir).unwrap();
        assert_eq!((rep.items.len(), rep.truncated), (1, 1));

        // A segment with a foreign header contributes nothing.
        let alien = dir.join("wal-00000009.seg");
        fs::write(&alien, b"NOTAWAL!junk").unwrap();
        let rep2 = replay(&dir).unwrap();
        assert_eq!(rep2.items.len(), 1);
        assert_eq!(rep2.truncated, 1, "the alien segment was cut to empty");
        assert_eq!(fs::metadata(&alien).unwrap().len(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_retires_every_segment() {
        let dir = tmp_dir("fold");
        {
            let mut wal = Wal::with_config(&dir, WalConfig { segment_bytes: 64 }).unwrap();
            for seed in 0..4 {
                wal.append(&sample_item(seed)).unwrap();
            }
        }
        let n = wal::segment_paths(&dir).unwrap().len();
        assert!(n >= 2);
        assert_eq!(fold(&dir).unwrap(), n);
        assert!(wal::segment_paths(&dir).unwrap().is_empty());
        assert_eq!(replay(&dir).unwrap().items.len(), 0, "a folded wal replays empty");
        assert_eq!(fold(&dir).unwrap(), 0, "folding an empty wal is a no-op");
        fs::remove_dir_all(&dir).ok();
    }
}
