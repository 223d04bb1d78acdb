//! Correctness oracles: every output of the timed phase is compared with
//! whole-image `aremsp` outside the timed phase.
//!
//! Component records are checked through an order-independent digest:
//! each record's anchor, area, bounding box, centroid and hole count are
//! hashed and the hashes summed, so the digest does not depend on the
//! order in which components close. The reference digest comes from
//! `region_properties` and `count_holes_per_label` of whole-image
//! `aremsp`, with each component keyed by its raster-first pixel exactly
//! as the records are. Centroids are integer sums divided once, so they
//! agree bit for bit.

use ccl_core::analysis::{count_holes_per_label, region_properties};
use ccl_core::LabelImage;
use ccl_stream::{ComponentRecord, ComponentSink};

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Count and order-independent digest of a set of components.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Number of components.
    pub count: u64,
    /// Wrapping sum of the per-component feature hashes.
    pub sum: u64,
}

impl Digest {
    /// Adds one component's features.
    pub fn add(
        &mut self,
        anchor: (usize, usize),
        area: u64,
        bbox: (usize, usize, usize, usize),
        centroid: (f64, f64),
        holes: u64,
    ) {
        let mut h = Fnv::default();
        for v in [anchor.0, anchor.1, bbox.0, bbox.1, bbox.2, bbox.3] {
            h.write(&(v as u64).to_le_bytes());
        }
        for v in [area, centroid.0.to_bits(), centroid.1.to_bits(), holes] {
            h.write(&v.to_le_bytes());
        }
        // finalize with a splitmix step so that sums of hashes spread
        let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.sum = self.sum.wrapping_add(z ^ (z >> 31));
        self.count += 1;
    }
}

/// A [`ComponentSink`] that keeps only the [`Digest`] of what it receives:
/// O(1) memory, so the bounded-memory engines stay bounded.
#[derive(Debug, Default)]
pub struct DigestSink(pub Digest);

impl ComponentSink for DigestSink {
    fn component(&mut self, r: &ComponentRecord) {
        self.0.add(r.anchor, r.area, r.bbox, r.centroid, r.holes);
    }
}

/// The reference digest of `labels` (a labeling of an image of the same
/// size): features from `region_properties` and `count_holes_per_label`.
pub fn labels_digest(labels: &LabelImage) -> Digest {
    let w = labels.width();
    let mut anchors = vec![usize::MAX; labels.num_components() as usize + 1];
    for (i, &l) in labels.as_slice().iter().enumerate() {
        if l != 0 && anchors[l as usize] == usize::MAX {
            anchors[l as usize] = i;
        }
    }
    let holes = count_holes_per_label(labels);
    let mut digest = Digest::default();
    for region in region_properties(labels) {
        let a = anchors[region.label as usize];
        digest.add(
            (a / w, a % w),
            region.area as u64,
            region.bbox,
            region.centroid,
            holes[region.label as usize - 1],
        );
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_core::seq::aremsp;
    use ccl_image::BinaryImage;
    use ccl_stream::{analyze_stream, MemorySource, StripConfig};

    fn reference_digest(image: &BinaryImage) -> Digest {
        labels_digest(&aremsp(image))
    }

    #[test]
    fn streamed_records_match_the_whole_image_reference() {
        let img = ccl_datasets::synth::noise::bernoulli(37, 53, 0.45, 9);
        let mut src = MemorySource::new(&img);
        let (records, _) = analyze_stream(&mut src, 7, StripConfig::parallel(2)).unwrap();
        let mut sink = DigestSink::default();
        // the digest ignores emission order
        for r in records.iter().rev() {
            sink.component(r);
        }
        assert_eq!(sink.0, reference_digest(&img));
        assert_eq!(sink.0.count, records.len() as u64);
    }

    #[test]
    fn digest_sees_a_changed_feature() {
        let img = ccl_datasets::synth::noise::bernoulli(16, 16, 0.5, 1);
        let mut src = MemorySource::new(&img);
        let (mut records, _) = analyze_stream(&mut src, 4, StripConfig::sequential()).unwrap();
        let reference = reference_digest(&img);
        records[0].holes += 1;
        let mut sink = DigestSink::default();
        for r in &records {
            sink.component(r);
        }
        assert_eq!(sink.0.count, reference.count);
        assert_ne!(sink.0, reference);
    }
}
