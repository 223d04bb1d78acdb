//! The out-of-core labeler at its carried-id bound.
//!
//! Each unit's scan reserves one carried id per run on the previous
//! unit's last pixel row, so the components open on that row must never
//! outnumber its runs. A comb — every other column foreground — meets
//! the bound with equality: every tooth is a run of one pixel and a
//! component open across every band seam, `⌈w/2⌉` of each. Closed by a
//! bar on its last row, the comb also folds all `⌈w/2⌉` carried ids into
//! one component within a single unit.
//!
//! Every entry point — `push_band`, `push_tile_row`, `label_stream` and
//! `label_tiles`, at 1 and 2 threads, synchronous and pipelined — must
//! emit the records of whole-image AREMSP plus a whole-image analysis,
//! ids included (a component's id is the raster rank of its anchor).

use paremsp::core::analysis::{count_holes_per_label, region_properties};
use paremsp::core::seq::aremsp;
use paremsp::core::verify::labelings_equivalent;
use paremsp::image::BinaryImage;
use paremsp::stream::{
    label_stream, label_tiles, CollectTiles, ComponentRecord, GridSource, MemorySource,
    StripConfig, StripLabeler, TileRow,
};

/// A record's fields as compared: id, anchor, area, bbox, centroid,
/// perimeter, holes.
type Fields = (
    u64,
    (usize, usize),
    u64,
    (usize, usize, usize, usize),
    (f64, f64),
    u64,
    u64,
);

fn fields(records: &[ComponentRecord]) -> Vec<Fields> {
    let mut out: Vec<Fields> = records
        .iter()
        .map(|r| {
            let (id, anchor, area, bbox) = (r.id, r.anchor, r.area, r.bbox);
            (id, anchor, area, bbox, r.centroid, r.perimeter, r.holes)
        })
        .collect();
    out.sort_unstable_by_key(|f| f.0);
    out
}

/// Whole-image AREMSP plus analysis: every component's fields, with the
/// 4-neighbourhood perimeter counted pixel by pixel and ids numbered in
/// raster order of the anchors.
fn whole_image(img: &BinaryImage) -> Vec<Fields> {
    let labels = aremsp(img);
    let n = labels.num_components() as usize;
    let mut anchors = vec![None; n + 1];
    let mut perimeter = vec![0u64; n + 1];
    for r in 0..img.height() {
        for c in 0..img.width() {
            let l = labels.get(r, c) as usize;
            if l == 0 {
                continue;
            }
            anchors[l].get_or_insert((r, c));
            perimeter[l] += [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
                .iter()
                .filter(|&&(dr, dc)| img.get_or_bg(r as isize + dr, c as isize + dc) == 0)
                .count() as u64;
        }
    }
    let holes = count_holes_per_label(&labels);
    let mut out: Vec<Fields> = region_properties(&labels)
        .into_iter()
        .map(|region| {
            let l = region.label as usize;
            let anchor = anchors[l].expect("every component has a pixel");
            let (area, bbox, centroid) = (region.area as u64, region.bbox, region.centroid);
            (0, anchor, area, bbox, centroid, perimeter[l], holes[l - 1])
        })
        .collect();
    out.sort_unstable_by_key(|f| f.1);
    for (id, f) in (1..).zip(&mut out) {
        f.0 = id;
    }
    out
}

/// Every other column foreground, optionally closed by a bar on the last
/// row.
fn comb(width: usize, height: usize, closed: bool) -> BinaryImage {
    BinaryImage::from_fn(width, height, |r, c| {
        c % 2 == 0 || (closed && r == height - 1)
    })
}

fn modes() -> impl Iterator<Item = StripConfig> {
    (1..=2).flat_map(|threads| [false, true].map(|pipelined| StripConfig { threads, pipelined }))
}

#[test]
fn every_entry_point_matches_whole_image_analysis_at_the_bound() {
    for width in [1usize, 2, 7, 8, 63, 64, 65, 130] {
        let open = width.div_ceil(2);
        for closed in [false, true] {
            let img = comb(width, 12, closed);
            let expected = whole_image(&img);
            let reference = aremsp(&img);
            for rows in [1, 3, 5] {
                for cfg in modes() {
                    let ctx = format!("width {width}, closed {closed}, {rows}-row units, {cfg:?}");
                    // a unit that ends above the last row leaves every
                    // tooth open: as many open components as runs
                    let at_bound = |labeler: &StripLabeler, r: usize| {
                        if r < img.height() - 1 {
                            assert_eq!(labeler.open_components(), open, "{ctx}, row {r}");
                        }
                    };

                    let mut records: Vec<ComponentRecord> = Vec::new();
                    let mut labeler = StripLabeler::with_config(width, cfg);
                    for r in (0..img.height()).step_by(rows) {
                        let band = img.crop(r, 0, width, rows.min(img.height() - r));
                        labeler.push_band(&band, &mut records).unwrap();
                        at_bound(&labeler, r + band.height() - 1);
                    }
                    labeler.finish(&mut records);
                    assert_eq!(fields(&records), expected, "{ctx}, push_band");

                    for tile_width in [1, 3, width] {
                        let mut records: Vec<ComponentRecord> = Vec::new();
                        let mut labeler = StripLabeler::with_config(width, cfg);
                        for r in (0..img.height()).step_by(rows) {
                            let band = img.crop(r, 0, width, rows.min(img.height() - r));
                            let last = r + band.height() - 1;
                            let row = TileRow::new(band, tile_width);
                            labeler.push_tile_row(&row, &mut records).unwrap();
                            at_bound(&labeler, last);
                        }
                        labeler.finish(&mut records);
                        let ctx = format!("{ctx}, {tile_width}-wide tiles");
                        assert_eq!(fields(&records), expected, "{ctx}, push_tile_row");

                        let (mut records, mut tiles) = (Vec::new(), CollectTiles::default());
                        let mut grid = GridSource::from_image(&img, tile_width, rows);
                        label_tiles(&mut grid, cfg, &mut records, Some(&mut tiles)).unwrap();
                        assert_eq!(fields(&records), expected, "{ctx}, label_tiles");
                        let labels = tiles.into_label_image();
                        assert!(labelings_equivalent(&labels, &reference), "{ctx}");
                    }

                    let (mut records, mut strips) = (Vec::new(), CollectTiles::default());
                    let mut source = MemorySource::new(&img);
                    label_stream(&mut source, rows, cfg, &mut records, Some(&mut strips)).unwrap();
                    assert_eq!(fields(&records), expected, "{ctx}, label_stream");
                    let labels = strips.into_label_image();
                    assert!(labelings_equivalent(&labels, &reference), "{ctx}");
                }
            }
        }
    }
}
