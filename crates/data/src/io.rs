//! Dataset persistence and external-data ingestion.
//!
//! * [`save_dataset`] / [`load_dataset`] — a self-contained binary
//!   format so generated corpora can be archived and shared (the
//!   synthetic analogue of publishing the preprocessed datasets, as the
//!   paper does).
//! * [`DatasetBuilder`] — constructs a [`Dataset`] from *external*
//!   interaction logs and item content (pre-tokenised text + patch
//!   features), the adoption path for using this library on real data.

use crate::dataset::{ContentSpec, Dataset};
use crate::style::Platform;
use crate::world::Item;
use pmm_obs::obs_warn;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Opens a file via `op` with bounded retry/backoff (and fault-plan
/// awareness), counting retries in `pmm-obs`.
fn open_with_retry(
    what: &str,
    path: &Path,
    mut op: impl FnMut() -> io::Result<File>,
) -> io::Result<File> {
    pmm_fault::with_io_retry_notify(
        &format!("{what} {}", path.display()),
        &mut op,
        |attempt, e| {
            pmm_obs::counter::IO_RETRIES.add(1);
            pmm_obs::sink::emit_guard("io_retry", u64::from(attempt), &e.to_string());
            obs_warn!("data_io", "{what} {} failed (attempt {}): {e}; retrying", path.display(), attempt + 1);
        },
    )
}

const MAGIC: &[u8; 8] = b"PMMDATA1";

/// Errors from the dataset codec and builder.
#[derive(Debug)]
pub enum DataError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a PMMDATA1 file or corrupt.
    Format(String),
    /// Builder input violates the content spec.
    Invalid(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "dataset io error: {e}"),
            DataError::Format(m) => write!(f, "dataset format error: {m}"),
            DataError::Invalid(m) => write!(f, "invalid dataset input: {m}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<io::Error> for DataError {
    fn from(e: io::Error) -> Self {
        DataError::Io(e)
    }
}

fn platform_tag(p: Platform) -> u8 {
    match p {
        Platform::Bili => 0,
        Platform::Kwai => 1,
        Platform::Hm => 2,
        Platform::Amazon => 3,
    }
}

fn platform_from(tag: u8) -> Result<Platform, DataError> {
    Ok(match tag {
        0 => Platform::Bili,
        1 => Platform::Kwai,
        2 => Platform::Hm,
        3 => Platform::Amazon,
        other => return Err(DataError::Format(format!("unknown platform tag {other}"))),
    })
}

/// Serialises a dataset (items with full content + sequences).
pub fn save_dataset(ds: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    let path = path.as_ref();
    let mut w = BufWriter::new(open_with_retry("create dataset", path, || File::create(path))?);
    w.write_all(MAGIC)?;
    write_str(&mut w, &ds.name)?;
    w.write_all(&[platform_tag(ds.platform)])?;
    for v in [
        ds.content.vocab,
        ds.content.text_len,
        ds.content.n_patches,
        ds.content.patch_dim,
    ] {
        write_u64(&mut w, v as u64)?;
    }
    write_u64(&mut w, ds.items.len() as u64)?;
    for item in &ds.items {
        write_u64(&mut w, item.category as u64)?;
        write_f32s(&mut w, &item.latent)?;
        write_u64(&mut w, item.tokens.len() as u64)?;
        for &t in &item.tokens {
            write_u64(&mut w, t as u64)?;
        }
        write_f32s(&mut w, &item.patches)?;
        w.write_all(&[u8::from(item.mismatched)])?;
    }
    write_u64(&mut w, ds.sequences.len() as u64)?;
    for s in &ds.sequences {
        write_u64(&mut w, s.len() as u64)?;
        for &i in s {
            write_u64(&mut w, i as u64)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Loads a dataset saved by [`save_dataset`].
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset, DataError> {
    let path = path.as_ref();
    let mut r = BufReader::new(open_with_retry("open dataset", path, || File::open(path))?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(DataError::Format("bad magic".into()));
    }
    let name = read_str(&mut r)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let platform = platform_from(tag[0])?;
    let content = ContentSpec {
        vocab: read_u64(&mut r)? as usize,
        text_len: read_u64(&mut r)? as usize,
        n_patches: read_u64(&mut r)? as usize,
        patch_dim: read_u64(&mut r)? as usize,
    };
    let n_items = read_u64(&mut r)? as usize;
    if n_items > 1 << 24 {
        return Err(DataError::Format("implausible item count".into()));
    }
    let mut items = Vec::with_capacity(n_items);
    for _ in 0..n_items {
        let category = read_u64(&mut r)? as usize;
        let latent = read_f32s(&mut r)?;
        let n_tok = read_u64(&mut r)? as usize;
        if n_tok > 1 << 16 {
            return Err(DataError::Format("implausible token count".into()));
        }
        let mut tokens = Vec::with_capacity(n_tok);
        for _ in 0..n_tok {
            tokens.push(read_u64(&mut r)? as usize);
        }
        let patches = read_f32s(&mut r)?;
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        items.push(Item {
            category,
            latent,
            tokens,
            patches,
            mismatched: flag[0] != 0,
        });
    }
    let n_seq = read_u64(&mut r)? as usize;
    if n_seq > 1 << 24 {
        return Err(DataError::Format("implausible sequence count".into()));
    }
    let mut sequences = Vec::with_capacity(n_seq);
    for _ in 0..n_seq {
        let len = read_u64(&mut r)? as usize;
        if len > 1 << 20 {
            return Err(DataError::Format("implausible sequence length".into()));
        }
        let mut s = Vec::with_capacity(len);
        for _ in 0..len {
            let i = read_u64(&mut r)? as usize;
            if i >= items.len() {
                return Err(DataError::Format(format!("item id {i} out of range")));
            }
            s.push(i);
        }
        sequences.push(s);
    }
    Ok(Dataset {
        name,
        platform,
        content,
        items,
        sequences,
    })
}

/// Builds a [`Dataset`] from external interaction logs and item content.
///
/// External items carry no ground-truth latent (that field exists only
/// for the synthetic generator); it is stored as an empty vector and
/// never read by models.
pub struct DatasetBuilder {
    name: String,
    platform: Platform,
    content: ContentSpec,
    items: Vec<Item>,
    sequences: Vec<Vec<usize>>,
}

impl DatasetBuilder {
    /// Starts a builder with the content geometry models will be sized
    /// from.
    pub fn new(name: impl Into<String>, platform: Platform, content: ContentSpec) -> Self {
        DatasetBuilder {
            name: name.into(),
            platform,
            content,
            items: Vec::new(),
            sequences: Vec::new(),
        }
    }

    /// Adds an item from pre-tokenised text and flat patch features;
    /// returns its id. Text shorter than `text_len` is padded with the
    /// PAD token; longer text is an error (tokenise upstream).
    pub fn add_item(&mut self, tokens: &[usize], patches: &[f32]) -> Result<usize, DataError> {
        if tokens.len() > self.content.text_len {
            return Err(DataError::Invalid(format!(
                "item text has {} tokens, spec allows {}",
                tokens.len(),
                self.content.text_len
            )));
        }
        if let Some(&bad) = tokens.iter().find(|&&t| t >= self.content.vocab) {
            return Err(DataError::Invalid(format!(
                "token {bad} out of vocabulary {}",
                self.content.vocab
            )));
        }
        let expected = self.content.n_patches * self.content.patch_dim;
        if patches.len() != expected {
            return Err(DataError::Invalid(format!(
                "item has {} patch values, spec requires {expected}",
                patches.len()
            )));
        }
        let mut padded = tokens.to_vec();
        padded.resize(self.content.text_len, crate::world::PAD_TOKEN);
        self.items.push(Item {
            category: 0,
            latent: Vec::new(),
            tokens: padded,
            patches: patches.to_vec(),
            mismatched: false,
        });
        Ok(self.items.len() - 1)
    }

    /// Adds a chronological interaction sequence of item ids.
    pub fn add_sequence(&mut self, items: &[usize]) -> Result<(), DataError> {
        if let Some(&bad) = items.iter().find(|&&i| i >= self.items.len()) {
            return Err(DataError::Invalid(format!(
                "sequence references unknown item {bad}"
            )));
        }
        self.sequences.push(items.to_vec());
        Ok(())
    }

    /// Finalises the dataset (callers may still apply
    /// [`Dataset::five_core`] afterwards, as the paper does).
    pub fn build(self) -> Result<Dataset, DataError> {
        if self.items.is_empty() {
            return Err(DataError::Invalid("no items added".into()));
        }
        Ok(Dataset {
            name: self.name,
            platform: self.platform,
            content: self.content,
            items: self.items,
            sequences: self.sequences,
        })
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut impl Read) -> Result<String, DataError> {
    let len = read_u64(r)? as usize;
    if len > 1 << 16 {
        return Err(DataError::Format("implausible string length".into()));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| DataError::Format("non-utf8 string".into()))
}

fn write_f32s(w: &mut impl Write, v: &[f32]) -> io::Result<()> {
    write_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s(r: &mut impl Read) -> Result<Vec<f32>, DataError> {
    let len = read_u64(r)? as usize;
    if len > 1 << 24 {
        return Err(DataError::Format("implausible float array".into()));
    }
    let mut out = Vec::with_capacity(len);
    let mut b = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{build_dataset, DatasetId, Scale};
    use crate::world::{World, WorldConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pmm_data_io_{name}_{}", std::process::id()))
    }

    #[test]
    fn dataset_roundtrips_exactly() {
        let world = World::new(WorldConfig::default());
        let ds = build_dataset(&world, DatasetId::BiliFood, Scale::Tiny, 42);
        let path = tmp("roundtrip");
        save_dataset(&ds, &path).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.platform, ds.platform);
        assert_eq!(back.content, ds.content);
        assert_eq!(back.sequences, ds.sequences);
        assert_eq!(back.items.len(), ds.items.len());
        for (a, b) in back.items.iter().zip(&ds.items) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.patches, b.patches);
            assert_eq!(a.category, b.category);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_file_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"garbagegarbage").unwrap();
        assert!(matches!(load_dataset(&path), Err(DataError::Format(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn builder_validates_and_pads() {
        let spec = ContentSpec {
            vocab: 50,
            text_len: 6,
            n_patches: 2,
            patch_dim: 3,
        };
        let mut b = DatasetBuilder::new("ext", Platform::Amazon, spec);
        let i0 = b.add_item(&[1, 2, 3], &[0.0; 6]).unwrap();
        assert_eq!(i0, 0);
        // Padded to text_len.
        assert!(b.add_item(&[1; 7], &[0.0; 6]).is_err(), "too-long text");
        assert!(b.add_item(&[99], &[0.0; 6]).is_err(), "token out of vocab");
        assert!(b.add_item(&[1], &[0.0; 5]).is_err(), "wrong patch size");
        let i1 = b.add_item(&[4], &[1.0; 6]).unwrap();
        b.add_sequence(&[i0, i1, i0]).unwrap();
        assert!(b.add_sequence(&[7]).is_err(), "unknown item");
        let ds = b.build().unwrap();
        assert_eq!(ds.items[0].tokens.len(), 6);
        assert_eq!(ds.sequences, vec![vec![0, 1, 0]]);
    }

    #[test]
    fn built_dataset_trains_a_model() {
        // External data with zero latents must still train (latents are
        // generator-internal).
        let spec = ContentSpec {
            vocab: 30,
            text_len: 4,
            n_patches: 2,
            patch_dim: 3,
        };
        let mut b = DatasetBuilder::new("ext", Platform::Hm, spec);
        for i in 0..12usize {
            let toks = [i % 30, (i * 7) % 30];
            let patches: Vec<f32> = (0..6).map(|j| ((i + j) % 5) as f32 / 5.0).collect();
            b.add_item(&toks, &patches).unwrap();
        }
        for u in 0..8usize {
            let seq: Vec<usize> = (0..5).map(|t| (u + t * 3) % 12).collect();
            b.add_sequence(&seq).unwrap();
        }
        let ds = b.build().unwrap();
        let stats = ds.stats();
        assert_eq!(stats.users, 8);
        assert_eq!(stats.items, 12);
    }

    #[test]
    fn injected_io_failure_is_retried_transparently() {
        let world = World::new(WorldConfig::default());
        let ds = build_dataset(&world, DatasetId::KwaiFood, Scale::Tiny, 42);
        let path = tmp("retry");
        save_dataset(&ds, &path).unwrap();
        pmm_fault::install(pmm_fault::FaultPlan::parse("io@0").unwrap());
        let back = load_dataset(&path);
        pmm_fault::clear();
        let back = back.expect("one injected IO failure must be absorbed by retry");
        assert_eq!(back.sequences, ds.sequences);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_builder_is_an_error() {
        let spec = ContentSpec {
            vocab: 10,
            text_len: 2,
            n_patches: 1,
            patch_dim: 2,
        };
        assert!(DatasetBuilder::new("e", Platform::Hm, spec).build().is_err());
    }
}
