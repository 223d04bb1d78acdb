//! The one error type of the out-of-core labeler, its drivers and the
//! `ccl-tiles` spill format.

use std::fmt;

use ccl_image::ImageError;

/// Errors produced while pulling, labeling or spilling bands and tiles.
#[derive(Debug)]
pub enum StreamError {
    /// An image decode or encode failed: a source's (I/O or malformed
    /// stream) or a spilled tile's.
    Image(ImageError),
    /// A filesystem operation of the spill sink failed.
    Io(std::io::Error),
    /// A band or tile row arrived with a width different from the
    /// labeler's.
    WidthMismatch {
        /// Width the labeler was constructed with.
        expected: usize,
        /// Width of the offending band.
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
    /// A pipeline stage died without producing its unit: the pipelined
    /// executor's scan stage ([`crate::pipeline`]) or a `ccl-pipeline`
    /// prefetcher, typically through a panic in the wrapped source; the
    /// payload is the panic message.
    Worker(String),
}

impl StreamError {
    /// Builds [`StreamError::Worker`] from a caught panic payload:
    /// `&str`/`String` payloads pass through, anything else becomes a
    /// generic message.
    pub fn worker_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked".to_string()
        };
        StreamError::Worker(msg)
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Image(e) => write!(f, "image error: {e}"),
            StreamError::Io(e) => write!(f, "spill I/O error: {e}"),
            StreamError::WidthMismatch { expected, got } => {
                write!(f, "band width {got} does not match stream width {expected}")
            }
            StreamError::LabelOverflow { gid, limit } => {
                write!(f, "component id {gid} exceeds spill format limit {limit}")
            }
            StreamError::Manifest(msg) => write!(f, "spill manifest error: {msg}"),
            StreamError::Worker(msg) => write!(f, "pipeline worker failed: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Image(e) => Some(e),
            StreamError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImageError> for StreamError {
    fn from(e: ImageError) -> Self {
        StreamError::Image(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e: StreamError = ImageError::Parse("bad".into()).into();
        assert_eq!(e.to_string(), "image error: netpbm parse error: bad");
        assert!(e.source().is_some());
        let e: StreamError = std::io::Error::other("disk full").into();
        assert_eq!(e.to_string(), "spill I/O error: disk full");
        assert!(e.source().is_some());
        let e = StreamError::WidthMismatch {
            expected: 4,
            got: 5,
        };
        assert_eq!(e.to_string(), "band width 5 does not match stream width 4");
        assert!(e.source().is_none());
        let e = StreamError::LabelOverflow {
            gid: 70_000,
            limit: 65_535,
        };
        assert_eq!(
            e.to_string(),
            "component id 70000 exceeds spill format limit 65535"
        );
        assert!(e.source().is_none());
        let e = StreamError::Manifest("bad magic line".into());
        assert_eq!(e.to_string(), "spill manifest error: bad magic line");
        assert!(e.source().is_none());
        let e = StreamError::Worker("boom".into());
        assert_eq!(e.to_string(), "pipeline worker failed: boom");
        assert!(e.source().is_none());
    }
}
