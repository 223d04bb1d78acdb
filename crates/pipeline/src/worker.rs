//! Worker-thread plumbing behind the prefetch adapter.

use std::sync::mpsc;
use std::thread::JoinHandle;

use crate::error::PipelineError;

/// The prefetcher's thread state: a bounded queue of prefetched items,
/// the producer thread's join handle, and the bookkeeping that turns
/// join outcomes into typed errors exactly once.
/// [`PrefetchRows`](crate::PrefetchRows) adds only its source-trait
/// surface (dimensions, row accounting, band splitting) on top.
///
/// Dropping the worker disconnects the channel first — the producer's
/// next send fails and the thread exits — then joins, so a partially
/// consumed stream never leaks a thread and a blocked producer never
/// hangs the drop.
pub(crate) struct PrefetchWorker<T, S> {
    rx: Option<mpsc::Receiver<T>>,
    handle: Option<JoinHandle<S>>,
    /// Source recovered from a clean producer exit (for `into_inner`).
    recovered: Option<S>,
    /// Panic message captured at the join, kept so `into_inner` can
    /// still report it after the adapter surfaced the error.
    panicked: Option<String>,
}

impl<T: Send + 'static, S: Send + 'static> PrefetchWorker<T, S> {
    /// Spawns `run` — the producer loop: pull from the source, send into
    /// the queue (a failed send means the consumer hung up), return the
    /// source when done — behind a `depth`-bounded channel.
    ///
    /// # Panics
    /// Panics when `depth` is 0.
    pub(crate) fn spawn(
        name: &str,
        depth: usize,
        run: impl FnOnce(mpsc::SyncSender<T>) -> S + Send + 'static,
    ) -> Self {
        assert!(depth > 0, "prefetch depth must be positive");
        let (tx, rx) = mpsc::sync_channel(depth);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || run(tx))
            .expect("spawn prefetch worker");
        PrefetchWorker {
            rx: Some(rx),
            handle: Some(handle),
            recovered: None,
            panicked: None,
        }
    }

    /// Next prefetched item; `None` once the producer hung up (cleanly
    /// or by panicking — [`Self::join`] tells which).
    pub(crate) fn recv(&mut self) -> Option<T> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }

    /// Joins a finished producer, distinguishing clean exit from panic.
    pub(crate) fn join(&mut self) -> Result<(), PipelineError> {
        if let Some(h) = self.handle.take() {
            match h.join() {
                Ok(source) => self.recovered = Some(source),
                Err(p) => {
                    let e = PipelineError::worker_panic(p.as_ref());
                    if let PipelineError::WorkerPanicked(msg) = &e {
                        self.panicked = Some(msg.clone());
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Stops the producer (disconnect, then join) and returns the
    /// source. Errors if the producer panicked — including a panic that
    /// was already surfaced through the adapter earlier.
    pub(crate) fn into_inner(mut self) -> Result<S, PipelineError> {
        self.rx = None; // disconnect: the producer's next send fails
        let handle = self.handle.take();
        let recovered = self.recovered.take();
        let panicked = self.panicked.take();
        match (handle, recovered) {
            (Some(h), _) => h
                .join()
                .map_err(|p| PipelineError::worker_panic(p.as_ref())),
            (None, Some(source)) => Ok(source),
            // already joined, source lost to a panic
            (None, None) => Err(PipelineError::WorkerPanicked(
                panicked.unwrap_or_else(|| "worker panicked".to_string()),
            )),
        }
    }
}

impl<T, S> Drop for PrefetchWorker<T, S> {
    fn drop(&mut self) {
        self.rx = None; // disconnect first so the producer cannot block
        if let Some(h) = self.handle.take() {
            // A panic not yet surfaced through the adapter is swallowed
            // here — propagating from Drop would abort the process.
            let _ = h.join();
        }
    }
}
