//! Error type for the streaming pipeline.

use std::fmt;

use ccl_image::ImageError;

/// Errors produced while pulling or labeling row bands.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying source failed to decode (I/O or malformed stream).
    Image(ImageError),
    /// A band arrived with a width different from the labeler's.
    WidthMismatch {
        /// Width the labeler was constructed with.
        expected: usize,
        /// Width of the offending band.
        got: usize,
    },
    /// A pipeline stage died without producing its unit: the pipelined
    /// executor's scan stage ([`crate::pipeline`]) or a `ccl-pipeline`
    /// prefetcher, typically through a panic in the wrapped source; the
    /// payload is the panic message. Every engine reports a panicking
    /// stage as this error (`ccl-tiles` wraps it in `TilesError::Stream`).
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
            StreamError::Image(e) => write!(f, "source error: {e}"),
            StreamError::WidthMismatch { expected, got } => {
                write!(f, "band width {got} does not match stream width {expected}")
            }
            StreamError::Worker(msg) => write!(f, "pipeline worker failed: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImageError> for StreamError {
    fn from(e: ImageError) -> Self {
        StreamError::Image(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = StreamError::WidthMismatch {
            expected: 4,
            got: 5,
        };
        assert!(e.to_string().contains("width 5"));
        assert!(e.source().is_none());
        let e: StreamError = ImageError::Parse("bad".into()).into();
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_some());
        let e = StreamError::Worker("boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(e.source().is_none());
    }
}
