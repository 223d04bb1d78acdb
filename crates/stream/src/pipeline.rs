//! The one driver loop of the out-of-core labeler — synchronous, or
//! pipelined to overlap unit *k*'s merge with unit *k + 1*'s scan.
//!
//! The labeler's units — strip bands and tile rows — split their work
//! into two stages:
//!
//! * **scan stage** — pull the next unit from the source and scan it as
//!   a row of column tiles ([`crate::scan`]: vertical seams between the
//!   tiles and the partial accumulator tables included). It depends on
//!   the units before it only through its own state, the global row and
//!   the carried pixel row, which it updates itself;
//! * **merge stage** — the carry seam, the per-label fold, compaction,
//!   component emission and label output ([`crate::labeler`]):
//!   inherently sequential, because each unit's carried labels feed the
//!   next.
//!
//! Nothing flows from the merge stage back to the scan stage but the
//! order of the units, so [`run`] only owns the loop around the two.
//! Synchronously it scans and merges each unit inline. Pipelined, it
//! runs the scan stage on a worker thread and the merge stage on the
//! caller's, handing scanned units across a **rendezvous channel**
//! (capacity 0): the scanner cannot run more than one unit ahead, so at
//! any instant at most *two* units are alive — unit *k* (labels, under
//! merge) and unit *k + 1* (pixels + labels, under scan) — plus the
//! carried boundary row, the residency bound `2 × unit rows + 1` the
//! labeler counts.
//!
//! Errors never hang the pipeline: a failing source or scan surfaces
//! through the channel disconnect + join, a failing merge drops the
//! receiver so the scanner's blocked send aborts, and a panicking scan
//! stage becomes [`StreamError::Worker`].

use std::sync::mpsc;

use crate::error::StreamError;

/// Drives the labeler over its units (see the module docs): `scan`
/// pulls and scans the next unit, or returns `Ok(None)` at the end of
/// the stream, and `merge` consumes the units in order. `pipelined` runs
/// the scan stage one unit ahead on a worker thread.
pub(crate) fn run<T: Send>(
    pipelined: bool,
    mut scan: impl FnMut() -> Result<Option<T>, StreamError> + Send,
    mut merge: impl FnMut(T) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    if !pipelined {
        while let Some(unit) = scan()? {
            merge(unit)?;
        }
        return Ok(());
    }

    let (tx, rx) = mpsc::sync_channel(0);
    std::thread::scope(|s| {
        let scanner = s.spawn(move || -> Result<(), StreamError> {
            while let Some(unit) = scan()? {
                if tx.send(unit).is_err() {
                    break; // merge stage stopped early (error): unblock and exit
                }
            }
            Ok(())
        });

        let mut merged = Ok(());
        while let Ok(unit) = rx.recv() {
            if let Err(e) = merge(unit) {
                merged = Err(e);
                break;
            }
        }
        // A merge error leaves units queued: drop the receiver so the
        // scanner's blocked send fails and the thread exits.
        drop(rx);
        let scanned = scanner
            .join()
            .unwrap_or_else(|payload| Err(StreamError::worker_panic(payload.as_ref())));
        merged.and(scanned)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_merge_in_stream_order_in_both_modes() {
        for pipelined in [false, true] {
            for units in [&[4, 4, 4, 1][..], &[3], &[0, 0, 0], &[]] {
                let mut next = units.iter().copied();
                let mut merged = Vec::new();
                run(
                    pipelined,
                    || Ok(next.next()),
                    |unit| {
                        merged.push(unit);
                        Ok(())
                    },
                )
                .unwrap();
                assert_eq!(merged, units, "pipelined: {pipelined}");
            }
        }
    }

    #[test]
    fn panicking_scan_stage_surfaces_as_worker_error() {
        let mut left = 3;
        let err = run(
            true,
            || {
                if left == 0 {
                    panic!("generator exploded mid-stream");
                }
                left -= 1;
                Ok(Some(2))
            },
            |_| Ok(()),
        )
        .unwrap_err();
        match err {
            StreamError::Worker(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }

    #[test]
    fn merge_error_does_not_hang_the_scanner() {
        // an endless source: the scanner only stops because the merge
        // stage's failure disconnects the channel
        let mut merged = 0;
        let err = run(
            true,
            || Ok(Some(2)),
            |_| {
                merged += 1;
                if merged == 3 {
                    Err(StreamError::Worker("sink refused".into()))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Worker(msg) if msg == "sink refused"));
        assert_eq!(merged, 3);
    }
}
