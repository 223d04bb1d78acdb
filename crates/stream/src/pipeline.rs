//! The one driver loop of the out-of-core labeler — synchronous, or
//! pipelined to overlap unit *k*'s merge with unit *k + 1*'s scan.
//!
//! The labeler's units — strip bands and tile rows — split their work
//! the same way, with one dependency between consecutive units:
//!
//! * **scan stage** — pull the next unit from the source and scan it as
//!   a row of column tiles ([`crate::scan`]: vertical seams between the
//!   tiles and the partial accumulator tables included): independent of
//!   everything before it once its carried ids are reserved;
//! * **merge stage** — the carry seam, the per-label fold, compaction,
//!   component emission and label output ([`crate::labeler`]):
//!   inherently sequential, because each unit's carry feeds the next.
//!
//! [`run`] takes the two stages as closures and owns the loop around
//! them: the global row `r0` of each unit's first line and the
//! carried-id reservation. Synchronously it scans and merges each unit
//! inline, reserving exactly the open components the previous merge
//! left. Pipelined, it runs the scan stage on a worker thread and the
//! merge stage on the caller's, handing scanned units across a
//! **rendezvous channel** (capacity 0): the scanner cannot run more than
//! one unit ahead, so at any instant at most *two* units are alive —
//! unit *k* (labels, under merge) and unit *k + 1* (pixels + labels,
//! under scan) — plus the carried boundary row, the residency bound
//! `2 × unit rows + 1` the labeler counts. The scanner cannot know the
//! open-component count of a merge still running, so it reserves the
//! width bound `⌈w/2⌉` instead: no carry row can hold more open
//! components, adjacent foreground pixels sharing one.
//!
//! Errors never hang the pipeline: a failing source or scan surfaces
//! through the channel disconnect + join, a failing merge drops the
//! receiver so the scanner's blocked send aborts, and a panicking scan
//! stage becomes [`StreamError::Worker`].

use std::sync::mpsc;

use crate::error::StreamError;
use crate::scan::ScannedRow;

/// A unit handed from the scan stage to the merge stage.
pub(crate) trait Rows {
    /// The unit's pixel rows: how far it advances `r0`.
    fn rows(&self) -> usize;
}

impl Rows for ScannedRow {
    fn rows(&self) -> usize {
        self.rows
    }
}

/// Drives the labeler over its units (see the module docs).
///
/// * `scan(carry_cap, r0)` pulls and scans the next unit with carried
///   ids reserved in slots `1..=carry_cap` and its first line at global
///   row `r0`, or returns `Ok(None)` at the end of the stream.
/// * `merge` consumes the units in order and returns the components it
///   left open — the synchronous reservation for the next unit.
/// * `pipelined` runs the scan stage one unit ahead on a worker thread.
pub(crate) fn run<T: Rows + Send>(
    width: usize,
    pipelined: bool,
    mut scan: impl FnMut(u32, usize) -> Result<Option<T>, StreamError> + Send,
    mut merge: impl FnMut(T) -> Result<u32, StreamError>,
) -> Result<(), StreamError> {
    let mut r0 = 0;
    let mut next = move |carry_cap: u32| -> Result<Option<T>, StreamError> {
        let unit = scan(carry_cap, r0)?;
        r0 += unit.as_ref().map_or(0, T::rows);
        Ok(unit)
    };

    if !pipelined {
        let mut carry_cap = 0;
        while let Some(unit) = next(carry_cap)? {
            carry_cap = merge(unit)?;
        }
        return Ok(());
    }

    let carry_cap = width.div_ceil(2) as u32;
    let (tx, rx) = mpsc::sync_channel(0);
    std::thread::scope(|s| {
        let scanner = s.spawn(move || -> Result<(), StreamError> {
            while let Some(unit) = next(carry_cap)? {
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

    /// A unit of the given height.
    impl Rows for usize {
        fn rows(&self) -> usize {
            *self
        }
    }

    /// Drives [`run`] pipelined over units of the given heights, merging
    /// them into a list.
    fn run_units(width: usize, heights: &[usize]) -> (Result<(), StreamError>, Vec<usize>) {
        let mut next = heights.iter().copied();
        let mut merged = Vec::new();
        let done = run(
            width,
            true,
            |_, _| Ok(next.next()),
            |h| {
                merged.push(h);
                Ok(0)
            },
        );
        (done, merged)
    }

    #[test]
    fn pipelined_units_merge_in_stream_order() {
        for (width, heights) in [(8, &[4, 4, 4, 1][..]), (8, &[3]), (0, &[0, 0, 0])] {
            let (done, merged) = run_units(width, heights);
            done.unwrap();
            assert_eq!(merged, heights);
        }
    }

    #[test]
    fn carried_ids_are_reserved_by_the_width_bound() {
        for (width, cap) in [(0, 0), (1, 1), (4, 2), (7, 4)] {
            let mut seen = Vec::new();
            let mut left = 2;
            run(
                width,
                true,
                |carry_cap, _| {
                    seen.push(carry_cap);
                    left -= 1;
                    Ok((left >= 0).then_some(1))
                },
                |_| Ok(0),
            )
            .unwrap();
            assert!(seen.iter().all(|&c| c == cap), "width {width}: {seen:?}");
        }
    }

    /// Synchronously each unit reserves what the previous merge left
    /// open, and both modes number rows from 0 in unit order.
    #[test]
    fn both_modes_count_rows_and_sync_reserves_the_open_count() {
        for pipelined in [false, true] {
            let mut next = [3, 2, 4].into_iter();
            let mut scanned = Vec::new();
            run(
                8,
                pipelined,
                |carry_cap, r0| {
                    scanned.push((carry_cap, r0));
                    Ok(next.next())
                },
                |h| Ok(h as u32 + 10),
            )
            .unwrap();
            let r0s: Vec<usize> = scanned.iter().map(|&(_, r0)| r0).collect();
            assert_eq!(r0s, [0, 3, 5, 9]);
            let caps: Vec<u32> = scanned.iter().map(|&(cap, _)| cap).collect();
            if pipelined {
                assert_eq!(caps, [4; 4]);
            } else {
                assert_eq!(caps, [0, 13, 12, 14]);
            }
        }
    }

    #[test]
    fn panicking_scan_stage_surfaces_as_worker_error() {
        let mut left = 3;
        let err = run(
            4,
            true,
            |_, _| {
                if left == 0 {
                    panic!("generator exploded mid-stream");
                }
                left -= 1;
                Ok(Some(2))
            },
            |_| Ok(0),
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
            4,
            true,
            |_, _| Ok(Some(2)),
            |_| {
                merged += 1;
                if merged == 3 {
                    Err(StreamError::Worker("sink refused".into()))
                } else {
                    Ok(0)
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Worker(msg) if msg == "sink refused"));
        assert_eq!(merged, 3);
    }
}
