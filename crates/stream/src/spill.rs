//! [`SpillSink`] — the spill format: labeled tiles on disk.
//!
//! The labeler emits each tile's labels exactly once through
//! [`TileSink`], carrying the [`ComponentId`]s known at emission time;
//! components still open may later merge, and every such event is
//! reported through [`TileSink::merge`] *before* the next tile.
//! [`SpillSink`] is the out-of-core sink: tiles are **spilled to disk**
//! as raw little-endian `u32` rasters or 16-bit PGM (`P5`, maxval
//! 65535), each written once with its emission-time ids, and a sidecar
//! manifest records the geometry and the merge table — output memory
//! stays O(tile), matching the labeler's input bound. A strip run spills
//! the same way, one full-width tile per band.
//!
//! A tile's raw samples are provisional ids: they resolve to components
//! only through the manifest's merge table, which is the one place ids
//! resolve (the paper's second pass, kept out of the tile files). The
//! sidecar is a line-oriented text format (`manifest.txt`) so it
//! round-trips without a JSON parser; [`read_manifest`] and
//! [`read_spilled_label_image`] reconstruct the exact partition from the
//! spilled tiles plus the merge table.
//!
//! The manifest is the spill's **commit point**: [`SpillSink::close`]
//! syncs every tile file, writes the manifest under a temporary name,
//! syncs it, renames it into place and syncs the directory. A spill that
//! never reached the commit has no manifest (a leftover one is removed
//! by [`SpillSink::create`]), so reading it fails with a typed
//! [`StreamError`].
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::bernoulli_stream;
//! use ccl_stream::{
//!     label_tiles, read_spilled_label_image, temp_spill_dir, GridSource, SpillFormat,
//!     SpillSink, StripConfig,
//! };
//!
//! // A 96 × 4096 noise raster in 32×32 tiles: the labeler never holds
//! // more than 33 pixel rows (one tile row + the carry row), and the
//! // labels go to disk tile by tile.
//! let mut grid = GridSource::new(bernoulli_stream(96, 4096, 0.4, 7), 32, 32);
//! let dir = temp_spill_dir("doc");
//! let mut spill = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
//! let mut components = Vec::new();
//! let stats =
//!     label_tiles(&mut grid, StripConfig::default(), &mut components, Some(&mut spill)).unwrap();
//! spill.close().unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert!(stats.peak_resident_rows <= 33);
//! let labels = read_spilled_label_image(&dir).unwrap();
//! assert_eq!(labels.num_components() as u64, stats.components);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use ccl_core::label::LabelImage;
use ccl_image::io::pgm;

use crate::analysis::{reconcile, ComponentId, TileMeta, TileSink};
use crate::error::StreamError;

/// On-disk encoding of a spilled tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFormat {
    /// Raw little-endian `u32` samples, row-major, no header (geometry
    /// lives in the manifest). Ids up to `u32::MAX`.
    RawU32,
    /// 16-bit binary PGM (`P5`, maxval 65535, big-endian samples) — a
    /// standard format any Netpbm tool can open. Ids up to 65535.
    Pgm16,
}

impl SpillFormat {
    /// Largest representable component id.
    pub fn limit(self) -> u64 {
        match self {
            SpillFormat::RawU32 => u32::MAX as u64,
            SpillFormat::Pgm16 => u16::MAX as u64,
        }
    }

    /// Byte length of a tile file as this format writes it, or `None`
    /// if it does not fit a `u64`.
    fn file_len(self, meta: &TileMeta) -> Option<u64> {
        let samples = (meta.width as u64).checked_mul(meta.height as u64)?;
        match self {
            SpillFormat::RawU32 => samples.checked_mul(4),
            SpillFormat::Pgm16 => samples
                .checked_mul(2)?
                .checked_add(pgm::binary16_header(meta.width, meta.height).len() as u64),
        }
    }

    fn extension(self) -> &'static str {
        match self {
            SpillFormat::RawU32 => "u32",
            SpillFormat::Pgm16 => "pgm",
        }
    }

    fn name(self) -> &'static str {
        match self {
            SpillFormat::RawU32 => "raw-u32",
            SpillFormat::Pgm16 => "pgm16",
        }
    }

    fn parse(s: &str) -> Result<Self, StreamError> {
        match s {
            "raw-u32" => Ok(SpillFormat::RawU32),
            "pgm16" => Ok(SpillFormat::Pgm16),
            other => Err(StreamError::Manifest(format!("unknown format {other:?}"))),
        }
    }
}

/// Geometry + merge table of a finished spill, as written to / read from
/// the sidecar `manifest.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillManifest {
    /// Tile encoding.
    pub format: SpillFormat,
    /// Grid width in pixels.
    pub width: usize,
    /// Pixel rows covered by the spilled tiles.
    pub rows: usize,
    /// Placement of every spilled tile, in emission (row-major) order.
    pub tiles: Vec<TileMeta>,
    /// The merge table: every `(kept, absorbed)` id unification, in
    /// emission order, with `0 < kept < absorbed`. The tile files keep
    /// their emission-time ids; this table is the only place they
    /// resolve to components.
    pub merges: Vec<(ComponentId, ComponentId)>,
}

const MANIFEST_NAME: &str = "manifest.txt";
/// The manifest's first line: the format's name and version since its
/// first release, kept so every spill written under it reads back.
const MANIFEST_MAGIC: &str = "ccl-tiles spill v1";

/// The out-of-core [`TileSink`]: spills each labeled tile to `dir` as it
/// is emitted, once, and commits the manifest on
/// [`close`](SpillSink::close). See the module docs for the file layout.
#[derive(Debug)]
pub struct SpillSink {
    dir: PathBuf,
    format: SpillFormat,
    tiles: Vec<TileMeta>,
    merges: Vec<(ComponentId, ComponentId)>,
}

impl SpillSink {
    /// Creates the spill directory (and parents) and an empty sink,
    /// removing the manifest of an earlier spill into the same directory
    /// until this one commits.
    pub fn create(dir: impl Into<PathBuf>, format: SpillFormat) -> Result<Self, StreamError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        match fs::remove_file(dir.join(MANIFEST_NAME)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        Ok(SpillSink {
            dir,
            format,
            tiles: Vec::new(),
            merges: Vec::new(),
        })
    }

    fn tile_path(dir: &Path, format: SpillFormat, meta: &TileMeta) -> PathBuf {
        dir.join(format!(
            "tile_{:05}_{:05}.{}",
            meta.tile_row,
            meta.tile_col,
            format.extension()
        ))
    }

    /// Commits the spill: syncs every tile file, then writes, syncs and
    /// renames the manifest into place and syncs the directory. Writes
    /// no tile. Returns the manifest.
    pub fn close(self) -> Result<SpillManifest, StreamError> {
        let (width, rows) = TileMeta::extent(&self.tiles);
        let manifest = SpillManifest {
            format: self.format,
            width,
            rows,
            tiles: self.tiles,
            merges: self.merges,
        };
        for meta in &manifest.tiles {
            fs::File::open(Self::tile_path(&self.dir, self.format, meta))?.sync_all()?;
        }
        write_manifest(&self.dir, &manifest)?;
        Ok(manifest)
    }
}

impl TileSink for SpillSink {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.merges.push((kept, absorbed));
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), StreamError> {
        let path = Self::tile_path(&self.dir, self.format, meta);
        fs::write(path, encode_tile(self.format, meta, gids)?)?;
        self.tiles.push(*meta);
        Ok(())
    }
}

/// Encodes one tile's ids in the spill format, in one pass over them:
/// each id is narrowed (a raw tile's straight into its slot of the
/// pre-sized buffer) while the ids' bits are OR-ed together, and only a
/// tile whose OR overflows is searched again, for its first offending
/// id. Both limits are all-ones (`2^k − 1`), so an id exceeds the limit
/// exactly when the OR does; an OR, unlike a 64-bit maximum, vectorizes.
fn encode_tile(format: SpillFormat, meta: &TileMeta, gids: &[u64]) -> Result<Vec<u8>, StreamError> {
    let mut bits = 0;
    let out = match format {
        SpillFormat::RawU32 => {
            let mut out = vec![0u8; gids.len() * 4];
            for (dst, &g) in out.chunks_exact_mut(4).zip(gids) {
                bits |= g;
                dst.copy_from_slice(&(g as u32).to_le_bytes());
            }
            out
        }
        SpillFormat::Pgm16 => {
            let samples: Vec<u16> = gids
                .iter()
                .map(|&g| {
                    bits |= g;
                    g as u16
                })
                .collect();
            pgm::write_binary16(meta.width, meta.height, &samples)
        }
    };
    let limit = format.limit();
    debug_assert!(limit.wrapping_add(1).is_power_of_two());
    if bits > limit {
        let gid = gids.iter().copied().find(|&g| g > limit).unwrap_or(bits);
        return Err(StreamError::LabelOverflow { gid, limit });
    }
    Ok(out)
}

/// Checks a tile file's byte length against the size its manifest entry
/// declares.
fn check_tile_len(
    path: &Path,
    format: SpillFormat,
    meta: &TileMeta,
    len: u64,
) -> Result<(), StreamError> {
    let expected = format.file_len(meta);
    if expected != Some(len) {
        return Err(StreamError::Manifest(format!(
            "tile {} has {len} bytes, expected {expected:?}",
            path.display()
        )));
    }
    Ok(())
}

/// Reads one spilled tile back into component ids.
fn read_tile(path: &Path, format: SpillFormat, meta: &TileMeta) -> Result<Vec<u64>, StreamError> {
    let bytes = fs::read(path)?;
    check_tile_len(path, format, meta, bytes.len() as u64)?;
    match format {
        SpillFormat::RawU32 => Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64)
            .collect()),
        SpillFormat::Pgm16 => {
            let (w, h, samples) = pgm::read_binary16(&bytes)?;
            if (w, h) != (meta.width, meta.height) {
                return Err(StreamError::Manifest(format!(
                    "tile {} is {w}x{h}, expected {}x{}",
                    path.display(),
                    meta.width,
                    meta.height
                )));
            }
            Ok(samples.into_iter().map(u64::from).collect())
        }
    }
}

fn write_manifest(dir: &Path, manifest: &SpillManifest) -> Result<(), StreamError> {
    let mut out = String::new();
    out.push_str(MANIFEST_MAGIC);
    out.push('\n');
    out.push_str(&format!("format {}\n", manifest.format.name()));
    out.push_str(&format!("width {}\n", manifest.width));
    out.push_str(&format!("rows {}\n", manifest.rows));
    out.push_str(&format!("tiles {}\n", manifest.tiles.len()));
    for m in &manifest.tiles {
        out.push_str(&format!(
            "tile {} {} {} {} {} {}\n",
            m.tile_row, m.tile_col, m.row0, m.col0, m.width, m.height
        ));
    }
    out.push_str(&format!("merges {}\n", manifest.merges.len()));
    for &(kept, absorbed) in &manifest.merges {
        out.push_str(&format!("merge {kept} {absorbed}\n"));
    }
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(out.as_bytes())?;
    file.sync_all()?;
    fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Parses the sidecar manifest of a spill directory.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<SpillManifest, StreamError> {
    let path = dir.as_ref().join(MANIFEST_NAME);
    let file = fs::File::open(&path)
        .map_err(|e| StreamError::Manifest(format!("{}: {e}", path.display())))?;
    let mut lines = BufReader::new(file).lines();
    let mut next_line = || -> Result<String, StreamError> {
        lines
            .next()
            .transpose()?
            .ok_or_else(|| StreamError::Manifest("unexpected end of manifest".into()))
    };
    if next_line()? != MANIFEST_MAGIC {
        return Err(StreamError::Manifest("bad magic line".into()));
    }
    let field = |line: &str, key: &str| -> Result<String, StreamError> {
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| StreamError::Manifest(format!("expected {key:?}, got {line:?}")))
    };
    let parse_usize = |s: &str| -> Result<usize, StreamError> {
        s.parse()
            .map_err(|_| StreamError::Manifest(format!("invalid number {s:?}")))
    };
    let format = SpillFormat::parse(&field(&next_line()?, "format")?)?;
    let width = parse_usize(&field(&next_line()?, "width")?)?;
    let rows = parse_usize(&field(&next_line()?, "rows")?)?;
    // the vectors grow line by line: a declared count is not trusted
    // with an allocation
    let ntiles = parse_usize(&field(&next_line()?, "tiles")?)?;
    let mut tiles = Vec::new();
    for _ in 0..ntiles {
        let line = next_line()?;
        let body = field(&line, "tile")?;
        let nums: Vec<usize> = body
            .split_ascii_whitespace()
            .map(parse_usize)
            .collect::<Result<_, _>>()?;
        if nums.len() != 6 {
            return Err(StreamError::Manifest(format!(
                "malformed tile line {line:?}"
            )));
        }
        tiles.push(TileMeta {
            tile_row: nums[0],
            tile_col: nums[1],
            row0: nums[2],
            col0: nums[3],
            width: nums[4],
            height: nums[5],
        });
    }
    let nmerges = parse_usize(&field(&next_line()?, "merges")?)?;
    let mut merges = Vec::new();
    for _ in 0..nmerges {
        let line = next_line()?;
        let body = field(&line, "merge")?;
        let nums: Vec<u64> = body
            .split_ascii_whitespace()
            .map(|s| {
                s.parse()
                    .map_err(|_| StreamError::Manifest(format!("invalid id {s:?}")))
            })
            .collect::<Result<_, _>>()?;
        // the writer always keeps the smaller id, which is what makes
        // resolution terminate
        if nums.len() != 2 || nums[0] == 0 || nums[0] >= nums[1] {
            return Err(StreamError::Manifest(format!(
                "malformed merge line {line:?}"
            )));
        }
        merges.push((nums[0], nums[1]));
    }
    // Self-consistency: every declared placement must fit the declared
    // extent, and the tile areas must sum to it exactly, so a reader
    // allocates only what the tiles cover and blits without bounds
    // surprises.
    let area = width
        .checked_mul(rows)
        .ok_or_else(|| StreamError::Manifest(format!("extent {width}x{rows} overflows")))?;
    let covered = tiles.iter().try_fold(0usize, |sum, m| {
        sum.checked_add(m.width.checked_mul(m.height)?)
    });
    if covered != Some(area) {
        return Err(StreamError::Manifest(format!(
            "tile areas sum to {covered:?}, declared extent {width}x{rows} is {area}"
        )));
    }
    for m in &tiles {
        let fits = m
            .col0
            .checked_add(m.width)
            .is_some_and(|right| right <= width)
            && m.row0
                .checked_add(m.height)
                .is_some_and(|bottom| bottom <= rows);
        if !fits {
            return Err(StreamError::Manifest(format!(
                "tile {}x{} at ({}, {}) exceeds declared extent {width}x{rows}",
                m.width, m.height, m.row0, m.col0
            )));
        }
    }
    // The placements must also be disjoint — with the areas summing to
    // the extent, that makes them cover it exactly — and the file names
    // unique. A sweep down the rows keeps the column spans of the tiles
    // crossing the current row, keyed by left edge; a tile entering the
    // sweep overlaps one of them iff it overlaps the span starting last
    // before its right edge.
    let mut events: Vec<(usize, bool, usize)> = (tiles.iter().enumerate())
        .filter(|(_, m)| m.width > 0 && m.height > 0)
        .flat_map(|(i, m)| [(m.row0, true, i), (m.row0 + m.height, false, i)])
        .collect();
    events.sort_unstable(); // a row's exits before its entries
    let mut open: BTreeMap<usize, usize> = BTreeMap::new();
    for (_, enters, i) in events {
        let m = &tiles[i];
        let (start, end) = (m.col0, m.col0 + m.width);
        let last_before_end = open.range(..end).next_back();
        if !enters {
            open.remove(&start);
        } else if last_before_end.is_some_and(|(_, &e)| e > start) {
            return Err(StreamError::Manifest(format!(
                "tile {}x{} at ({}, {}) overlaps another tile",
                m.width, m.height, m.row0, m.col0
            )));
        } else {
            open.insert(start, end);
        }
    }
    let mut names: Vec<_> = tiles.iter().map(|m| (m.tile_row, m.tile_col)).collect();
    names.sort_unstable();
    if let Some(p) = names.windows(2).find(|p| p[0] == p[1]) {
        let msg = format!("tile ({}, {}) is listed twice", p[0].0, p[0].1);
        return Err(StreamError::Manifest(msg));
    }
    Ok(SpillManifest {
        format,
        width,
        rows,
        tiles,
        merges,
    })
}

/// A fresh scratch directory under the system temp dir for spills that
/// do not outlive the run (demos, tests): unique per `tag`, process and
/// thread, and removed first if a previous run left it behind.
pub fn temp_spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ccl_spill_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Reconstructs the exact labeling from a spill directory: reads the
/// manifest, checks every tile file's size against it, loads the tiles,
/// resolves their raw ids through the merge table and canonically
/// renumbers into a [`LabelImage`]. The *reader* holds the whole image —
/// the spill itself was produced in O(tile) memory — and allocates it
/// only once the files on disk account for every declared pixel.
pub fn read_spilled_label_image(dir: impl AsRef<Path>) -> Result<LabelImage, StreamError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let paths: Vec<PathBuf> = manifest
        .tiles
        .iter()
        .map(|meta| {
            let path = SpillSink::tile_path(dir, manifest.format, meta);
            let len = fs::metadata(&path)
                .map_err(|e| StreamError::Manifest(format!("{}: {e}", path.display())))?
                .len();
            check_tile_len(&path, manifest.format, meta, len)?;
            Ok(path)
        })
        .collect::<Result<_, StreamError>>()?;
    let mut gids = vec![0u64; manifest.width * manifest.rows];
    for (meta, path) in manifest.tiles.iter().zip(&paths) {
        let tile = read_tile(path, manifest.format, meta)?;
        meta.blit(&mut gids, manifest.width, &tile);
    }
    Ok(reconcile(
        manifest.width,
        manifest.rows,
        &gids,
        &manifest.merges,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        label_stream, label_tiles, CountComponents, GridSource, MemorySource, StripConfig,
    };
    use ccl_core::seq::aremsp;
    use ccl_core::verify::labelings_equivalent;
    use ccl_image::BinaryImage;

    fn temp_dir(tag: &str) -> PathBuf {
        temp_spill_dir(tag)
    }

    fn meta(tr: usize, tc: usize, r0: usize, c0: usize, w: usize, h: usize) -> TileMeta {
        TileMeta {
            tile_row: tr,
            tile_col: tc,
            row0: r0,
            col0: c0,
            width: w,
            height: h,
        }
    }

    #[test]
    fn spill_round_trip_raw_u32() {
        let dir = temp_dir("raw");
        let mut sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        sink.tile(&meta(0, 0, 0, 0, 2, 2), &[1, 0, 1, 2]).unwrap();
        sink.tile(&meta(0, 1, 0, 2, 2, 2), &[0, 3, 2, 0]).unwrap();
        sink.merge(2, 3);
        sink.tile(&meta(1, 0, 2, 0, 2, 1), &[0, 2]).unwrap();
        sink.tile(&meta(1, 1, 2, 2, 2, 1), &[2, 0]).unwrap();
        let manifest = sink.close().unwrap();
        assert_eq!(manifest.tiles.len(), 4);
        assert_eq!(manifest.width, 4);
        assert_eq!(manifest.rows, 3);
        assert_eq!(manifest.merges, vec![(2, 3)]);

        // tiles keep their emission-time ids: absorbed id 3 is on disk
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back, manifest);
        let raw = read_tile(
            &SpillSink::tile_path(&dir, SpillFormat::RawU32, &back.tiles[1]),
            SpillFormat::RawU32,
            &back.tiles[1],
        )
        .unwrap();
        assert_eq!(raw, vec![0, 3, 2, 0]);

        let li = read_spilled_label_image(&dir).unwrap();
        assert_eq!(li.num_components(), 2);
        assert_eq!(li.as_slice(), &[1, 0, 0, 2, 1, 2, 2, 0, 0, 2, 2, 0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_round_trip_pgm16() {
        let dir = temp_dir("pgm");
        let mut sink = SpillSink::create(&dir, SpillFormat::Pgm16).unwrap();
        sink.tile(&meta(0, 0, 0, 0, 3, 1), &[1, 0, 2]).unwrap();
        // a tile holding only an id that is absorbed later
        sink.tile(&meta(0, 1, 0, 3, 2, 1), &[2, 2]).unwrap();
        sink.merge(1, 2);
        let manifest = sink.close().unwrap();
        assert_eq!(manifest.format, SpillFormat::Pgm16);
        // the spilled tiles are well-formed 16-bit PGMs holding the
        // emission-time ids
        let samples: Vec<Vec<u16>> = manifest
            .tiles
            .iter()
            .map(|m| {
                let bytes = fs::read(SpillSink::tile_path(&dir, SpillFormat::Pgm16, m)).unwrap();
                let (w, h, samples) = pgm::read_binary16(&bytes).unwrap();
                assert_eq!((w, h), (m.width, m.height));
                samples
            })
            .collect();
        assert_eq!(samples, vec![vec![1, 0, 2], vec![2, 2]]);
        // the merge table alone resolves them
        let li = read_spilled_label_image(&dir).unwrap();
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 0, 1, 1, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The overflow check runs in the encoding pass: an id over the limit
    /// at a tile's last pixel is still caught, and the first offending
    /// id is the one reported.
    #[test]
    fn overflow_is_reported_for_both_formats() {
        for format in [SpillFormat::RawU32, SpillFormat::Pgm16] {
            let limit = format.limit();
            let dir = temp_dir("overflow");
            let mut sink = SpillSink::create(&dir, format).unwrap();
            let mut gids = vec![1; 12];
            gids[11] = limit + 1;
            let err = sink.tile(&meta(0, 0, 0, 0, 4, 3), &gids).unwrap_err();
            assert!(
                matches!(err, StreamError::LabelOverflow { gid, limit: l } if gid == limit + 1 && l == limit),
                "{format:?}: {err:?}"
            );
            gids[5] = limit + 7;
            let err = sink.tile(&meta(0, 0, 0, 0, 4, 3), &gids).unwrap_err();
            assert!(
                matches!(err, StreamError::LabelOverflow { gid, .. } if gid == limit + 7),
                "{format:?}: {err:?}"
            );
            // the limit itself still fits
            gids[5] = limit;
            gids[11] = limit;
            sink.tile(&meta(0, 0, 0, 0, 4, 3), &gids).unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn manifest_rejects_garbage() {
        let dir = temp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&dir).is_err()); // missing file
        fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").unwrap();
        assert!(read_manifest(&dir).is_err());
        fs::write(
            dir.join(MANIFEST_NAME),
            format!("{MANIFEST_MAGIC}\nformat raw-u32\nwidth x\n"),
        )
        .unwrap();
        assert!(read_manifest(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_spill_is_a_typed_error() {
        // tile files plus only the temporary manifest a crash mid-commit
        // leaves behind: no committed spill to read
        let dir = temp_dir("uncommitted");
        let mut sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        sink.tile(&meta(0, 0, 0, 0, 2, 1), &[1, 1]).unwrap();
        sink.tile(&meta(0, 1, 0, 2, 2, 1), &[2, 2]).unwrap();
        sink.merge(1, 2);
        sink.close().unwrap();
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        fs::rename(dir.join(MANIFEST_NAME), &tmp).unwrap();
        assert!(matches!(read_manifest(&dir), Err(StreamError::Manifest(_))));
        assert!(matches!(
            read_spilled_label_image(&dir),
            Err(StreamError::Manifest(_))
        ));
        // a new spill into the directory withdraws the old commit
        fs::rename(&tmp, dir.join(MANIFEST_NAME)).unwrap();
        assert!(read_manifest(&dir).is_ok());
        let sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        assert!(matches!(read_manifest(&dir), Err(StreamError::Manifest(_))));
        let manifest = sink.close().unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), manifest);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_tiles_exceeding_declared_extent() {
        // a 4-wide tile in a declared 2x1 grid must be Err, not a panic
        // in the reader's blit
        let dir = temp_dir("oob");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{MANIFEST_MAGIC}\nformat raw-u32\nwidth 2\nrows 1\ntiles 1\n\
                 tile 0 0 0 0 4 1\nmerges 0\n"
            ),
        )
        .unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Manifest(_)), "{err}");
        assert!(read_spilled_label_image(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Spills `#..# #..#` in 2×2 tiles, then rewrites the manifest's
    /// line for the second tile to `edited`: its placement and name.
    fn spill_with_second_tile(tag: &str, edited: &str) -> PathBuf {
        let dir = temp_dir(tag);
        let img = BinaryImage::parse("#..# #..#");
        let mut spill = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        let mut grid = GridSource::from_image(&img, 2, 2);
        let mut comps = CountComponents::default();
        let cfg = StripConfig::default();
        label_tiles(&mut grid, cfg, &mut comps, Some(&mut spill)).unwrap();
        spill.close().unwrap();
        assert_eq!(read_spilled_label_image(&dir).unwrap().num_components(), 2);
        let path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("tile 0 1 0 2 2 2\n"), "{text}");
        fs::write(&path, text.replace("tile 0 1 0 2 2 2\n", edited)).unwrap();
        dir
    }

    #[test]
    fn manifest_rejects_overlapping_tiles_and_repeated_names() {
        // the second tile moved onto the first: areas still sum to the
        // extent and both fit it
        let dir = spill_with_second_tile("overlap", "tile 0 1 0 0 2 2\n");
        let err = read_manifest(&dir).unwrap_err();
        assert!(err.to_string().contains("overlaps"), "{err}");
        assert!(read_spilled_label_image(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
        // the second placement named after the first tile's file
        let dir = spill_with_second_tile("renamed", "tile 0 0 0 2 2 2\n");
        let err = read_manifest(&dir).unwrap_err();
        assert!(err.to_string().contains("listed twice"), "{err}");
        assert!(read_spilled_label_image(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_dropped_before_close_is_a_typed_error() {
        // the in-process stand-in for a writer killed before its commit:
        // tiles on disk, no manifest
        let dir = temp_dir("dropped");
        let mut sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        sink.tile(&meta(0, 0, 0, 0, 2, 1), &[1, 1]).unwrap();
        sink.tile(&meta(0, 1, 0, 2, 2, 1), &[2, 2]).unwrap();
        sink.merge(1, 2);
        drop(sink);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);
        assert!(matches!(read_manifest(&dir), Err(StreamError::Manifest(_))));
        assert!(matches!(
            read_spilled_label_image(&dir),
            Err(StreamError::Manifest(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes `body` after the magic line as the manifest of a fresh
    /// directory and returns what both readers make of it.
    fn read_hostile(tag: &str, body: &str) -> (StreamError, StreamError) {
        let dir = temp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), format!("{MANIFEST_MAGIC}\n{body}")).unwrap();
        let errs = (
            read_manifest(&dir).unwrap_err(),
            read_spilled_label_image(&dir).unwrap_err(),
        );
        fs::remove_dir_all(&dir).unwrap();
        errs
    }

    #[test]
    fn hostile_counts_and_merges_are_typed_errors() {
        let header = "format raw-u32\nwidth 2\nrows 1\n";
        for (tag, body) in [
            // a declared count is never an allocation
            ("tiles_count", format!("{header}tiles 1000000000000000\n")),
            (
                "merges_count",
                format!("{header}tiles 1\ntile 0 0 0 0 2 1\nmerges 1000000000000000\n"),
            ),
            // a self-merge would make resolution loop forever
            (
                "self_merge",
                format!("{header}tiles 1\ntile 0 0 0 0 2 1\nmerges 1\nmerge 1 1\n"),
            ),
            (
                "upward_merge",
                format!("{header}tiles 1\ntile 0 0 0 0 2 1\nmerges 1\nmerge 2 1\n"),
            ),
            (
                "zero_merge",
                format!("{header}tiles 1\ntile 0 0 0 0 2 1\nmerges 1\nmerge 0 1\n"),
            ),
        ] {
            let (a, b) = read_hostile(tag, &body);
            assert!(matches!(a, StreamError::Manifest(_)), "{tag}: {a}");
            assert!(matches!(b, StreamError::Manifest(_)), "{tag}: {b}");
        }
    }

    #[test]
    fn reader_allocates_only_what_the_spill_holds() {
        // an extent no tile covers
        let (a, b) = read_hostile(
            "huge_extent",
            "format raw-u32\nwidth 1000000000\nrows 1000000000\ntiles 0\nmerges 0\n",
        );
        assert!(matches!(a, StreamError::Manifest(_)), "{a}");
        assert!(matches!(b, StreamError::Manifest(_)), "{b}");
        // a covering tile whose file is missing, or shorter than declared
        for format in [SpillFormat::RawU32, SpillFormat::Pgm16] {
            let dir = temp_dir("short_tile");
            let mut sink = SpillSink::create(&dir, format).unwrap();
            sink.tile(&meta(0, 0, 0, 0, 2, 2), &[1, 0, 0, 1]).unwrap();
            let manifest = sink.close().unwrap();
            let path = SpillSink::tile_path(&dir, format, &manifest.tiles[0]);
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
            let err = read_spilled_label_image(&dir).unwrap_err();
            assert!(matches!(err, StreamError::Manifest(_)), "{err}");
            fs::remove_file(&path).unwrap();
            let err = read_spilled_label_image(&dir).unwrap_err();
            assert!(matches!(err, StreamError::Manifest(_)), "{err}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn spill_sink_end_to_end() {
        let dir = temp_spill_dir("driver");
        let img = BinaryImage::parse(
            "#.#.#
             #.#.#
             #####",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let mut spill = SpillSink::create(&dir, SpillFormat::Pgm16).unwrap();
        let mut comps = CountComponents::default();
        let stats = label_tiles(
            &mut src,
            StripConfig::default(),
            &mut comps,
            Some(&mut spill),
        )
        .unwrap();
        let manifest = spill.close().unwrap();
        assert_eq!(stats.components, 1);
        assert_eq!(manifest.width, 5);
        assert_eq!(manifest.rows, 3);
        let li = read_spilled_label_image(&dir).unwrap();
        let reference = aremsp(&img);
        assert!(labelings_equivalent(&li, &reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A strip run spills through the same sink: one full-width tile per
    /// band, the last band short, at every thread count and in both
    /// driver modes.
    #[test]
    fn strip_run_spills_one_full_width_tile_per_band() {
        let images = [
            ccl_datasets::synth::noise::bernoulli(23, 19, 0.5, 5),
            ccl_datasets::synth::shapes::text_page(41, 30, 1, 2),
        ];
        for img in &images {
            let (w, h) = (img.width(), img.height());
            let reference = aremsp(img);
            for band in [1, 7, h + 3] {
                let expected: Vec<TileMeta> = (0..h)
                    .step_by(band)
                    .enumerate()
                    .map(|(tile_row, row0)| TileMeta {
                        tile_row,
                        tile_col: 0,
                        row0,
                        col0: 0,
                        width: w,
                        height: band.min(h - row0),
                    })
                    .collect();
                for threads in 1..=3 {
                    for pipelined in [false, true] {
                        let dir = temp_spill_dir("strips");
                        let mut spill = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
                        let cfg = StripConfig { threads, pipelined };
                        let stats = label_stream(
                            &mut MemorySource::new(img),
                            band,
                            cfg,
                            &mut CountComponents::default(),
                            Some(&mut spill),
                        )
                        .unwrap();
                        let manifest = spill.close().unwrap();
                        let ctx = format!("{w}x{h}, band {band}, {cfg:?}");
                        assert_eq!(manifest.tiles, expected, "{ctx}");
                        assert_eq!((stats.bands, stats.tiles), (expected.len(), expected.len()));
                        let li = read_spilled_label_image(&dir).unwrap();
                        assert!(labelings_equivalent(&li, &reference), "{ctx}");
                        fs::remove_dir_all(&dir).unwrap();
                    }
                }
            }
        }
    }
}
