//! Fuzzing the spill readers: whatever bytes sit in a spill directory —
//! an arbitrary or byte-mutated manifest, a truncated or padded tile —
//! `read_manifest` and `read_spilled_label_image` return a value or a
//! typed error. They never panic, abort on an allocation or hang.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use ccl_core::label::LabelImage;
use ccl_datasets::synth::noise::bernoulli;
use ccl_stream::CountComponents;
use ccl_tiles::{
    label_tiles, read_manifest, read_spilled_label_image, temp_spill_dir, GridSource, SpillFormat,
    SpillSink, TileGridConfig,
};

/// The sidecar's file name inside a spill directory.
const MANIFEST: &str = "manifest.txt";

/// A valid spill held in memory: its files as `(name, bytes)` and the
/// labeling it reads back as.
struct Spill {
    files: Vec<(String, Vec<u8>)>,
    labels: LabelImage,
}

impl Spill {
    fn build(format: SpillFormat, tag: &str) -> Spill {
        let img = bernoulli(20, 12, 0.55, 5);
        let dir = temp_spill_dir(tag);
        let mut sink = SpillSink::create(&dir, format).unwrap();
        let mut grid = GridSource::from_image(&img, 8, 5);
        let cfg = TileGridConfig::default();
        label_tiles(
            &mut grid,
            cfg,
            &mut CountComponents::default(),
            Some(&mut sink),
        )
        .unwrap();
        let manifest = sink.close().unwrap();
        assert!(
            !manifest.merges.is_empty(),
            "the fixture should cross seams"
        );
        let labels = read_spilled_label_image(&dir).unwrap();
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        fs::remove_dir_all(&dir).unwrap();
        Spill { files, labels }
    }

    /// The spill in format `0` (raw `u32`) or `1` (16-bit PGM).
    fn get(which: usize) -> &'static Spill {
        static SPILLS: OnceLock<[Spill; 2]> = OnceLock::new();
        &SPILLS.get_or_init(|| {
            [
                Spill::build(SpillFormat::RawU32, "fuzz_fixture_raw"),
                Spill::build(SpillFormat::Pgm16, "fuzz_fixture_pgm"),
            ]
        })[which]
    }

    fn manifest(&self) -> &[u8] {
        &self.files.iter().find(|(n, _)| n == MANIFEST).unwrap().1
    }

    fn tiles(&self) -> impl Iterator<Item = &(String, Vec<u8>)> {
        self.files.iter().filter(|(n, _)| n != MANIFEST)
    }

    /// Writes the spill's tiles plus `manifest` into a fresh directory.
    fn materialize(&self, tag: &str, manifest: &[u8]) -> PathBuf {
        let dir = temp_spill_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in self.tiles() {
            fs::write(dir.join(name), bytes).unwrap();
        }
        fs::write(dir.join(MANIFEST), manifest).unwrap();
        dir
    }
}

/// Runs both readers; a result that is not an error must be a labeling
/// of the extent the manifest declares.
fn read_both(dir: &Path) -> Option<LabelImage> {
    let manifest = read_manifest(dir);
    let labels = read_spilled_label_image(dir);
    match (&manifest, &labels) {
        (Ok(m), Ok(li)) => assert_eq!((li.width(), li.height()), (m.width, m.rows)),
        (Err(_), Ok(_)) => panic!("the image read past a rejected manifest"),
        _ => {}
    }
    labels.ok()
}

/// Values a hostile manifest puts where a number belongs.
const HOSTILE: [&str; 8] = [
    "0",
    "1",
    "2",
    "65536",
    "4294967296",
    "1000000000000000",
    "18446744073709551615",
    "18446744073709551616",
];

/// Applies one edit to `bytes`: replace, insert or delete the byte at
/// `pos`, insert a digit, or — where hostile values live — replace a
/// numeric token with a [`HOSTILE`] value or with the number before it
/// (which turns `merge a b` into the self-merge `merge a a`).
fn edit(bytes: &mut Vec<u8>, pos: usize, byte: u8, op: u8) {
    if op >= 4 {
        let text = String::from_utf8_lossy(bytes).into_owned();
        let mut lines: Vec<Vec<String>> = text
            .split('\n')
            .map(|l| l.split(' ').map(str::to_string).collect())
            .collect();
        let numeric: Vec<(usize, usize)> = (0..lines.len())
            .flat_map(|l| (0..lines[l].len()).map(move |t| (l, t)))
            .filter(|&(l, t)| lines[l][t].parse::<u64>().is_ok())
            .collect();
        if numeric.len() < 2 {
            return;
        }
        let k = 1 + pos % (numeric.len() - 1);
        let (at, prev) = (numeric[k], numeric[k - 1]);
        lines[at.0][at.1] = if op == 4 {
            HOSTILE[byte as usize % HOSTILE.len()].to_string()
        } else {
            lines[prev.0][prev.1].clone()
        };
        let lines: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
        *bytes = lines.join("\n").into_bytes();
        return;
    }
    let pos = pos % (bytes.len() + 1);
    match op {
        0 if pos < bytes.len() => bytes[pos] = byte,
        1 => bytes.insert(pos, byte),
        2 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        3 => bytes.insert(pos, b'0' + byte % 10),
        _ => {}
    }
}

#[test]
fn unmodified_spill_reads_back() {
    for which in 0..2 {
        let spill = Spill::get(which);
        let dir = spill.materialize("fuzz_clean", spill.manifest());
        assert_eq!(read_both(&dir).as_ref(), Some(&spill.labels));
        fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_manifests_never_panic(
        which in 0usize..2,
        with_header in proptest::bool::ANY,
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
    ) {
        let spill = Spill::get(which);
        let mut manifest = Vec::new();
        if with_header {
            // keep the magic and format lines so the parser gets further
            let valid = spill.manifest();
            let second_line = valid.iter().enumerate().filter(|(_, &b)| b == b'\n').nth(1);
            manifest.extend_from_slice(&valid[..=second_line.unwrap().0]);
        }
        manifest.extend_from_slice(&bytes);
        let dir = spill.materialize("fuzz_arbitrary", &manifest);
        read_both(&dir);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutated_manifests_never_panic(
        which in 0usize..2,
        edits in proptest::collection::vec((0usize..1 << 16, proptest::num::u8::ANY, 0u8..6), 1..8),
    ) {
        let spill = Spill::get(which);
        let mut manifest = spill.manifest().to_vec();
        for &(pos, byte, op) in &edits {
            edit(&mut manifest, pos, byte, op);
        }
        let dir = spill.materialize("fuzz_mutated", &manifest);
        read_both(&dir);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_padded_tiles_are_errors(
        which in 0usize..2,
        tile in 0usize..1 << 16,
        len in 0usize..1 << 16,
    ) {
        let spill = Spill::get(which);
        let dir = spill.materialize("fuzz_tile", spill.manifest());
        let tiles: Vec<_> = spill.tiles().collect();
        let (name, bytes) = tiles[tile % tiles.len()];
        let len = len % (2 * bytes.len() + 1);
        let mut damaged = bytes.clone();
        damaged.resize(len, 0);
        fs::write(dir.join(name), &damaged).unwrap();
        prop_assert!(read_manifest(&dir).is_ok());
        let labels = read_both(&dir);
        if len == bytes.len() {
            prop_assert_eq!(labels.as_ref(), Some(&spill.labels));
        } else {
            prop_assert!(labels.is_none(), "a {len}-byte {name} was accepted");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
