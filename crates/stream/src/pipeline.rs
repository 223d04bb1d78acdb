//! The pipelined executor — overlap unit *k*'s merge with unit *k + 1*'s
//! scan, for both out-of-core engines.
//!
//! The strip labeler's bands and the `ccl-tiles` grid labeler's tile rows
//! split their per-unit work the same way, with one dependency between
//! consecutive units:
//!
//! * **scan stage** — pull the next unit from the source and scan it as
//!   a row of column tiles ([`crate::scan`]: vertical seams between the
//!   tiles and the partial accumulator tables included): independent of
//!   everything before it, because carried ids are reserved by the width
//!   bound `⌈w/2⌉` rather than the actual open-component count;
//! * **merge stage** — the carry seam, the per-label fold, compaction,
//!   component emission and label output ([`crate::carry`]): inherently
//!   sequential, because each unit's carry feeds the next.
//!
//! [`run`] takes the two stages as closures. It runs the scan stage on a
//! worker thread and the merge stage on the caller's, handing scanned
//! units across a **rendezvous channel** (capacity 0): the scanner cannot
//! run more than one unit ahead, so at any instant at most *two* units
//! are alive — unit *k* (labels, under merge) and unit *k + 1* (pixels +
//! labels, under scan) — plus the carried boundary row. That is the
//! pipelined residency bound `2 × unit rows + 1`, which [`run`] returns.
//!
//! Errors never hang the pipeline: a failing source or scan surfaces
//! through the channel disconnect + join, a failing merge drops the
//! receiver so the scanner's blocked send aborts, and a panicking scan
//! stage is converted into the engine's `Worker` error.

use std::any::Any;
use std::sync::mpsc;

/// Runs `scan` on a worker thread and `merge` on the caller's thread,
/// one unit apart, and returns the peak resident pixel rows.
///
/// * `scan(carry_cap)` pulls and scans the next unit with carried ids
///   reserved in slots `1..=carry_cap` (`⌈width/2⌉`: no carry row can
///   hold more open components, adjacent foreground pixels sharing one),
///   or returns `Ok(None)` at the end of the stream.
/// * `merge` consumes the units in order.
/// * `rows` is a unit's pixel rows, 0 for a unit without pixels.
/// * `worker_panic` turns a panicking scan stage into an error.
pub fn run<T, E>(
    width: usize,
    mut scan: impl FnMut(u32) -> Result<Option<T>, E> + Send,
    mut merge: impl FnMut(T) -> Result<(), E>,
    rows: fn(&T) -> usize,
    worker_panic: fn(&(dyn Any + Send)) -> E,
) -> Result<usize, E>
where
    T: Send,
    E: Send,
{
    let carry_cap = width.div_ceil(2) as u32;

    // Residency: while the merge stage holds unit k, the scan stage holds
    // at most unit k + 1 (rendezvous channel — the send blocks until the
    // merge stage takes the unit). Deterministic accounting: the max over
    // consecutive unit-height pairs, plus the carry row once two or more
    // units hold pixels.
    let mut prev_h = 0usize;
    let mut max_pair = 0usize;
    let mut units = 0usize;

    let (tx, rx) = mpsc::sync_channel(0);
    std::thread::scope(|s| {
        let scanner = s.spawn(move || -> Result<(), E> {
            while let Some(unit) = scan(carry_cap)? {
                if tx.send(unit).is_err() {
                    break; // merge stage stopped early (error): unblock and exit
                }
            }
            Ok(())
        });

        let mut merged: Result<(), E> = Ok(());
        while let Ok(unit) = rx.recv() {
            let h = rows(&unit);
            if h > 0 {
                units += 1;
                max_pair = max_pair.max(prev_h + h);
                prev_h = h;
            }
            if let Err(e) = merge(unit) {
                merged = Err(e);
                break;
            }
        }
        // A merge error leaves units queued: drop the receiver so the
        // scanner's blocked send fails and the thread exits.
        drop(rx);
        let scanned = match scanner.join() {
            Ok(r) => r,
            Err(payload) => Err(worker_panic(payload.as_ref())),
        };
        merged.and(scanned)
    })?;
    Ok(max_pair + usize::from(units >= 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StreamError;

    /// Drives [`run`] over units of the given heights, merging them into
    /// a list.
    fn run_units(width: usize, heights: &[usize]) -> (Result<usize, StreamError>, Vec<usize>) {
        let mut next = heights.iter().copied();
        let mut merged = Vec::new();
        let peak = run(
            width,
            |_| Ok(next.next()),
            |h| {
                merged.push(h);
                Ok(())
            },
            |&h| h,
            StreamError::worker_panic,
        );
        (peak, merged)
    }

    #[test]
    fn residency_is_the_tallest_consecutive_pair_plus_carry() {
        let (peak, merged) = run_units(8, &[4, 4, 4, 1]);
        assert_eq!(merged, [4, 4, 4, 1]);
        assert_eq!(peak.unwrap(), 2 * 4 + 1);
        // one unit: no second unit alive, no carry row
        assert_eq!(run_units(8, &[3]).0.unwrap(), 3);
        // units without pixels (a zero-width stream) hold nothing
        assert_eq!(run_units(0, &[0, 0, 0]).0.unwrap(), 0);
    }

    #[test]
    fn carried_ids_are_reserved_by_the_width_bound() {
        for (width, cap) in [(0, 0), (1, 1), (4, 2), (7, 4)] {
            let mut seen = Vec::new();
            let mut left = 2;
            run(
                width,
                |carry_cap| {
                    seen.push(carry_cap);
                    left -= 1;
                    Ok::<_, StreamError>((left >= 0).then_some(1))
                },
                |_| Ok(()),
                |&h| h,
                StreamError::worker_panic,
            )
            .unwrap();
            assert!(seen.iter().all(|&c| c == cap), "width {width}: {seen:?}");
        }
    }

    #[test]
    fn panicking_scan_stage_surfaces_as_worker_error() {
        let mut left = 3;
        let err = run(
            4,
            |_| {
                if left == 0 {
                    panic!("generator exploded mid-stream");
                }
                left -= 1;
                Ok(Some(2))
            },
            |_| Ok(()),
            |&h| h,
            StreamError::worker_panic,
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
            |_| Ok(Some(2)),
            |_| {
                merged += 1;
                if merged == 3 {
                    Err(StreamError::Worker("sink refused".into()))
                } else {
                    Ok(())
                }
            },
            |&h| h,
            StreamError::worker_panic,
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Worker(msg) if msg == "sink refused"));
        assert_eq!(merged, 3);
    }
}
