//! Pixel connectivity definitions (§III of the paper).
//!
//! Two foreground pixels belong to the same connected component when a path
//! of adjacent foreground pixels joins them. "Adjacent" is defined by the
//! chosen [`Connectivity`]: 4-connectedness admits the N/S/E/W neighbours,
//! 8-connectedness additionally admits the diagonals. The paper (and all of
//! its algorithms) uses 8-connectedness exclusively; the flood-fill oracle
//! in `ccl-core` supports both so the distinction can be tested.

/// Neighbourhood definition for connected components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Connectivity {
    /// Edge-adjacency only: offsets (±1, 0) and (0, ±1).
    Four,
    /// Edge and corner adjacency: all eight surrounding offsets.
    Eight,
}

impl Connectivity {
    /// Row/column offsets of every neighbour under this connectivity.
    ///
    /// Offsets are returned in raster order (top-left to bottom-right).
    pub fn offsets(self) -> &'static [(isize, isize)] {
        match self {
            Connectivity::Four => &[(-1, 0), (0, -1), (0, 1), (1, 0)],
            Connectivity::Eight => &[
                (-1, -1),
                (-1, 0),
                (-1, 1),
                (0, -1),
                (0, 1),
                (1, -1),
                (1, 0),
                (1, 1),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_has_four_offsets() {
        assert_eq!(Connectivity::Four.offsets().len(), 4);
    }

    #[test]
    fn eight_has_eight_offsets() {
        assert_eq!(Connectivity::Eight.offsets().len(), 8);
    }

    #[test]
    fn no_duplicate_offsets() {
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let offs = conn.offsets();
            for (i, a) in offs.iter().enumerate() {
                for b in &offs[i + 1..] {
                    assert_ne!(a, b);
                }
            }
            assert!(!offs.contains(&(0, 0)), "self offset must be absent");
        }
    }
}
