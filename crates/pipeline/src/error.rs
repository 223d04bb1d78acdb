//! [`PipelineError`] — the typed failure of a prefetch worker.

use std::fmt;

use ccl_stream::StreamError;

/// What went wrong behind a prefetcher. Every failure mode of the worker
/// thread is represented — a source error is forwarded as-is, a panic is
/// caught at the join and carried as its message — so a failing source
/// always surfaces to the consumer as a typed error, never a hang.
#[derive(Debug)]
pub enum PipelineError {
    /// The wrapped [`RowSource`](ccl_stream::RowSource) failed.
    Stream(StreamError),
    /// The worker thread panicked; the payload is the panic message.
    WorkerPanicked(String),
}

impl PipelineError {
    /// Builds [`PipelineError::WorkerPanicked`] from a caught panic
    /// payload ([`panic_message`](ccl_stream::error::panic_message)).
    pub fn worker_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        PipelineError::WorkerPanicked(ccl_stream::error::panic_message(payload))
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Stream(e) => write!(f, "prefetched row source failed: {e}"),
            PipelineError::WorkerPanicked(msg) => write!(f, "prefetch worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Stream(e) => Some(e),
            PipelineError::WorkerPanicked(_) => None,
        }
    }
}

impl From<StreamError> for PipelineError {
    fn from(e: StreamError) -> Self {
        PipelineError::Stream(e)
    }
}

/// Surfacing through the [`RowSource`](ccl_stream::RowSource) trait: the
/// source's own error passes through unchanged; a worker panic becomes
/// [`StreamError::Worker`].
impl From<PipelineError> for StreamError {
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Stream(e) => e,
            PipelineError::WorkerPanicked(msg) => StreamError::Worker(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccl_image::ImageError;

    #[test]
    fn display_source_and_conversions() {
        use std::error::Error as _;
        let e: PipelineError = StreamError::Image(ImageError::Parse("bad header".into())).into();
        assert!(e.to_string().contains("bad header"));
        assert!(e.source().is_some());

        let e = PipelineError::WorkerPanicked("index out of bounds".into());
        assert!(e.to_string().contains("index out of bounds"));
        assert!(e.source().is_none());
        let s: StreamError = e.into();
        assert!(matches!(s, StreamError::Worker(_)));
    }
}
