//! Error type for the tile-grid pipeline.

use std::fmt;

use ccl_image::ImageError;
use ccl_stream::StreamError;

/// Errors produced while pulling, labeling or spilling tiles.
#[derive(Debug)]
pub enum TilesError {
    /// The underlying row/tile source failed (I/O or malformed stream),
    /// or a pipeline stage died: a panicking source, behind a
    /// `ccl-pipeline` prefetcher or in the pipelined driver's scan stage,
    /// arrives as [`StreamError::Worker`] with the panic message.
    Stream(StreamError),
    /// An image decode or encode failed.
    Image(ImageError),
    /// A filesystem operation of the spill sink failed.
    Io(std::io::Error),
    /// A tile row arrived whose width differs from the labeler's.
    WidthMismatch {
        /// Width the labeler was constructed with.
        expected: usize,
        /// Width of the offending tile row.
        got: usize,
    },
    /// A component id exceeds what the spill format can represent.
    LabelOverflow {
        /// The offending component id.
        gid: u64,
        /// The format's largest representable id.
        limit: u64,
    },
    /// The spill sidecar manifest is missing or malformed.
    Manifest(String),
}

impl fmt::Display for TilesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilesError::Stream(e) => write!(f, "source error: {e}"),
            TilesError::Image(e) => write!(f, "image error: {e}"),
            TilesError::Io(e) => write!(f, "spill I/O error: {e}"),
            TilesError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "tile row width {got} does not match grid width {expected}"
                )
            }
            TilesError::LabelOverflow { gid, limit } => {
                write!(f, "component id {gid} exceeds spill format limit {limit}")
            }
            TilesError::Manifest(msg) => write!(f, "spill manifest error: {msg}"),
        }
    }
}

impl std::error::Error for TilesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TilesError::Stream(e) => Some(e),
            TilesError::Image(e) => Some(e),
            TilesError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for TilesError {
    fn from(e: StreamError) -> Self {
        TilesError::Stream(e)
    }
}

impl From<ImageError> for TilesError {
    fn from(e: ImageError) -> Self {
        TilesError::Image(e)
    }
}

impl From<std::io::Error> for TilesError {
    fn from(e: std::io::Error) -> Self {
        TilesError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = TilesError::WidthMismatch {
            expected: 8,
            got: 9,
        };
        assert!(e.to_string().contains("width 9"));
        assert!(e.source().is_none());
        let e = TilesError::LabelOverflow {
            gid: 70_000,
            limit: 65_535,
        };
        assert!(e.to_string().contains("70000"));
        let e: TilesError = ImageError::Parse("bad".into()).into();
        assert!(e.source().is_some());
        let e: TilesError = std::io::Error::other("disk full").into();
        assert!(e.to_string().contains("disk full"));
        let e: TilesError = StreamError::Worker("boom".into()).into();
        assert!(e.to_string().contains("boom"));
        assert!(e.source().is_some());
    }
}
