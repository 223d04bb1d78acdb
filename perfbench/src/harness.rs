//! The measurement loop shared by every workload: repeated set-up, the
//! timed passes with per-pass CPU time and peak RSS, verification of
//! every pass outside its timed interval, and the metrics derived from
//! them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats::{highest_supported, median, percentile};
use crate::sys;
use crate::trace::{Trace, Tracer};

/// Set-up replicates `setup_s` is the median of: the least disturbed
/// ones (see [`CLEAN_STEAL`]).
pub const SETUP_REPS: usize = 3;

/// Most set-up replicates a run makes while fewer than [`SETUP_REPS`]
/// were undisturbed, and only while set-up has taken under
/// [`SETUP_EXTRA_SECONDS`].
pub const SETUP_MAX_REPS: usize = 6;

/// Set-up time after which no extra replicate starts.
pub const SETUP_EXTRA_SECONDS: f64 = 5.0;

/// How far past `--seconds` a timed run may go while fewer than
/// [`MIN_ITEMS`] items came from undisturbed passes.
pub const EXTEND: f64 = 1.5;

/// Items a timed run must measure so that p90 has ten samples beyond it.
pub const MIN_ITEMS: usize = 100;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one timed pass produced.
pub struct PassRun<O> {
    /// The output to verify after the pass.
    pub output: O,
    /// Per-item latency in milliseconds, from the pull of the item's
    /// input to the return of its label call.
    pub latencies_ms: Vec<f64>,
}

/// A workload: inputs made from a seed, and one pass over them.
pub trait Workload: Sized {
    /// Output of one pass, checked by [`Workload::verify`].
    type Output;

    /// Digest of the generated inputs; replicates must agree on it.
    fn input_digest(&self) -> u64;

    /// Prepares what verification needs, outside any timed interval.
    fn prepare_reference(&mut self) -> Result<(), String>;

    /// Megapixels labeled by one pass.
    fn mpx_per_pass(&self) -> f64;

    /// Items one pass attempts.
    fn items_per_pass(&self) -> usize;

    /// One timed pass over the inputs.
    fn pass(&mut self, tracer: &Tracer) -> Result<PassRun<Self::Output>, String>;

    /// Checks a pass's output against the reference; returns the number of
    /// failed items and prints what failed.
    fn verify(&mut self, output: Self::Output) -> usize;

    /// Input sizes for the result record, as `(key, JSON value)`.
    fn sizes(&self) -> Vec<(&'static str, String)>;

    /// Per-layer metrics from the traced passes.
    fn layer_metrics(&mut self, trace: &Trace, traced_passes: usize) -> Vec<Metric>;
}

/// Measurements of one pass.
pub struct PassStat {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Process CPU time (user + system) during the pass.
    pub cpu: Duration,
    /// Peak RSS during the pass, in bytes.
    pub peak_rss: u64,
    /// Item latencies (empty if the pass failed).
    pub latencies_ms: Vec<f64>,
    /// Items attempted.
    pub attempted: usize,
    /// Items failed.
    pub failed: usize,
    /// Share of the host's CPU ticks stolen by the hypervisor during the pass.
    pub steal: f64,
}

/// Steal share at or below which a pass counts as undisturbed.
pub const CLEAN_STEAL: f64 = 0.02;

/// The passes the timing metrics use. On a shared virtual machine the
/// hypervisor's steal time, not the program, explains most of the
/// pass-to-pass spread, so timings come from the least disturbed passes:
/// every pass with steal share at most [`CLEAN_STEAL`], topped up in order
/// of increasing steal until they hold at least [`MIN_ITEMS`] items. Failed
/// passes are never used.
pub fn timing_passes(passes: &[PassStat]) -> Vec<&PassStat> {
    let mut ok: Vec<&PassStat> = passes
        .iter()
        .filter(|p| p.failed == 0 && !p.latencies_ms.is_empty())
        .collect();
    ok.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut items = 0;
    let used = ok
        .iter()
        .take_while(|p| {
            let take = items < MIN_ITEMS || p.steal <= CLEAN_STEAL;
            items += p.latencies_ms.len();
            take
        })
        .count();
    ok.truncate(used);
    ok
}

/// Runs passes until `seconds` of wall time have gone and at least
/// `min_items` items were measured in undisturbed passes, or until
/// [`EXTEND`] times the budget. Each pass is verified right after its
/// timed interval.
pub fn measure<W: Workload>(
    w: &mut W,
    tracer: &Tracer,
    seconds: f64,
    min_items: usize,
    first_run: u32,
) -> Vec<PassStat> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut stats: Vec<PassStat> = Vec::new();
    let mut clean_items = 0;
    let mut run = first_run;
    loop {
        let elapsed = start.elapsed();
        if (elapsed >= budget && clean_items >= min_items) || elapsed >= budget.mul_f64(EXTEND) {
            break;
        }
        tracer.set_run(run);
        sys::release_free_memory();
        sys::reset_peak_rss();
        let steal = sys::StealWatch::start();
        let cpu0 = sys::cpu_time();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| w.pass(tracer)));
        let wall = t0.elapsed();
        let cpu = sys::cpu_time().saturating_sub(cpu0);
        let steal = steal.share();
        let peak_rss = sys::peak_rss_bytes().unwrap_or(0);
        let attempted = w.items_per_pass();
        let (latencies_ms, failed) = match result {
            Ok(Ok(pass)) => {
                let failed = w.verify(pass.output);
                (pass.latencies_ms, failed)
            }
            Ok(Err(e)) => {
                eprintln!("pass {run} failed: {e}");
                (Vec::new(), attempted)
            }
            Err(_) => {
                eprintln!("pass {run} panicked");
                (Vec::new(), attempted)
            }
        };
        if steal <= CLEAN_STEAL && failed == 0 {
            clean_items += latencies_ms.len();
        }
        run += 1;
        stats.push(PassStat {
            wall,
            cpu,
            peak_rss,
            latencies_ms,
            attempted,
            failed,
            steal,
        });
    }
    stats
}

/// Result of one benchmark invocation.
pub struct Outcome {
    /// Every metric of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Items attempted over all passes.
    pub attempted: usize,
    /// Items failed over all passes.
    pub failed: usize,
    /// False when any check failed (including set-up determinism).
    pub correct: bool,
    /// Facts for the result record, as `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
    /// Spans of the traced phase, if any.
    pub trace: Option<Trace>,
}

/// Runs a workload end to end: set-up replicates (each a call of `setup`,
/// which generates the inputs, encodes them and warms up), reference, then either
/// the untraced timed phase (`trace == false`, end-to-end metrics) or an
/// untraced and a traced half (`trace == true`, per-layer metrics).
pub fn run<W: Workload>(
    setup: impl Fn(&Tracer) -> Result<W, String>,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    // One recording covers the set-up replicates (the first runs) and
    // the traced passes, so span ids stay unique.
    let tracer = if trace { Tracer::on() } else { Tracer::off() };
    let setup_start = Instant::now();
    let mut setups: Vec<(f64, f64)> = Vec::new(); // (steal share, seconds)
    let mut digests = Vec::new();
    let mut workload = None;
    loop {
        let clean = setups.iter().filter(|r| r.0 <= CLEAN_STEAL).count();
        let reps = setups.len();
        if reps >= SETUP_MAX_REPS
            || (reps >= SETUP_REPS
                && (clean >= SETUP_REPS
                    || setup_start.elapsed().as_secs_f64() >= SETUP_EXTRA_SECONDS))
        {
            break;
        }
        tracer.set_run(reps as u32);
        drop(workload.take());
        sys::release_free_memory();
        let steal = sys::StealWatch::start();
        let t0 = Instant::now();
        let w = setup(&tracer)?;
        setups.push((steal.share(), t0.elapsed().as_secs_f64()));
        digests.push(w.input_digest());
        workload = Some(w);
    }
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let setup_times: Vec<f64> = setups.iter().take(SETUP_REPS).map(|r| r.1).collect();
    let mut w = workload.expect("at least one set-up replicate");
    let deterministic = digests.iter().all(|&d| d == digests[0]);
    if !deterministic {
        eprintln!("set-up replicates disagree: the same seed made different inputs");
    }

    let t0 = Instant::now();
    w.prepare_reference()?;
    let reference_s = t0.elapsed().as_secs_f64();

    let mut meta = w.sizes();
    meta.push(("setup_reps", setups.len().to_string()));
    meta.push(("reference_s", json_f64(reference_s)));
    meta.push(("mpx_per_pass", json_f64(w.mpx_per_pass())));
    meta.push(("items_per_pass", w.items_per_pass().to_string()));
    let peak_reset = sys::reset_peak_rss();
    meta.push(("peak_rss_reset_per_pass", peak_reset.to_string()));

    let mut trace_out = None;
    let (metrics, passes) = if !trace {
        let passes = measure(&mut w, &tracer, seconds, MIN_ITEMS, setups.len() as u32);
        let metrics = end_to_end(&w, &passes, &setup_times, &mut meta);
        (metrics, passes)
    } else {
        let plain = measure(&mut w, &Tracer::off(), seconds / 2.0, 0, 0);
        let first_traced = (setups.len() + plain.len()) as u32;
        let traced = measure(&mut w, &tracer, seconds / 2.0, 0, first_traced);
        let trace = Trace::new(tracer.finish());
        let mut metrics = vec![(
            "datasets.generate_ms",
            trace.total_ms("datasets.generate") / setups.len() as f64,
            "ms",
        )];
        metrics.extend(w.layer_metrics(&trace, traced.len()));
        let wall =
            |p: &[PassStat]| median(&p.iter().map(|s| s.wall.as_secs_f64()).collect::<Vec<_>>());
        let overhead = if plain.is_empty() || traced.is_empty() {
            0.0
        } else {
            wall(&traced) / wall(&plain) - 1.0
        };
        metrics.push(("trace.overhead_frac", overhead, "frac"));
        meta.push(("untraced_passes", plain.len().to_string()));
        meta.push(("traced_passes", traced.len().to_string()));
        trace_out = Some(trace);
        let mut all = plain;
        all.extend(traced);
        (metrics, all)
    };
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    meta.push(("passes", passes.len().to_string()));
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: deterministic && failed == 0 && attempted > 0,
        meta,
        trace: trace_out,
    })
}

fn end_to_end<W: Workload>(
    w: &W,
    passes: &[PassStat],
    setup_times: &[f64],
    meta: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let mpx = w.mpx_per_pass();
    let ok = timing_passes(passes);
    let steals: Vec<f64> = passes.iter().map(|p| p.steal).collect();
    if !steals.is_empty() {
        meta.push(("steal_share_median", json_f64(median(&steals))));
    }
    meta.push(("timing_passes_used", ok.len().to_string()));
    let mut lat: Vec<f64> = ok
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    let per_pass = |f: &dyn Fn(&PassStat) -> f64| {
        let v: Vec<f64> = ok.iter().map(|p| f(p)).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let pct = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            percentile(&lat, p)
        }
    };
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let mut rates: Vec<f64> = ok.iter().map(|p| mpx / p.wall.as_secs_f64()).collect();
    rates.sort_by(f64::total_cmp);
    if !rates.is_empty() {
        let q: Vec<String> = [25.0, 50.0, 75.0]
            .iter()
            .map(|&p| json_f64(percentile(&rates, p)))
            .collect();
        meta.push(("pass_throughput_quartiles", format!("[{}]", q.join(","))));
    }
    meta.push(("latency_samples", lat.len().to_string()));
    meta.push((
        "latency_p90_supported",
        crate::stats::percentile_supported(lat.len(), 90.0).to_string(),
    ));
    meta.push((
        "highest_supported_percentile",
        highest_supported(lat.len(), &[50.0, 90.0, 99.0, 99.9])
            .map_or("null".to_string(), json_f64),
    ));
    vec![
        (
            "throughput_mpx_s",
            per_pass(&|p| mpx / p.wall.as_secs_f64()),
            "Mpx/s",
        ),
        ("latency_p50_ms", pct(50.0), "ms"),
        ("latency_p90_ms", pct(90.0), "ms"),
        (
            "cpu_ms_per_mpx",
            per_pass(&|p| p.cpu.as_secs_f64() * 1e3 / mpx),
            "ms/Mpx",
        ),
        (
            "peak_rss_mib",
            median(
                &passes
                    .iter()
                    .map(|p| p.peak_rss as f64 / (1u64 << 20) as f64)
                    .collect::<Vec<_>>(),
            ),
            "MiB",
        ),
        ("setup_s", median(setup_times), "s"),
        (
            "success_frac",
            if attempted == 0 {
                0.0
            } else {
                (attempted - failed) as f64 / attempted as f64
            },
            "frac",
        ),
    ]
}

/// Formats a float as a JSON number (non-finite values become 0).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(steal: f64, items: usize) -> PassStat {
        PassStat {
            wall: Duration::from_millis(10),
            cpu: Duration::from_millis(10),
            peak_rss: 0,
            latencies_ms: vec![1.0; items],
            attempted: items,
            failed: 0,
            steal,
        }
    }

    #[test]
    fn timing_uses_every_clean_pass() {
        let passes: Vec<PassStat> = (0..20).map(|i| pass(0.001 * i as f64, 10)).collect();
        assert_eq!(timing_passes(&passes).len(), 20);
    }

    #[test]
    fn timing_tops_up_with_the_least_disturbed_passes() {
        // 40 passes of 10 items, all disturbed: the ten passes with the
        // least steal hold the MIN_ITEMS = 100 items
        let passes: Vec<PassStat> = (0..40).map(|i| pass(0.3 - 0.005 * i as f64, 10)).collect();
        let used = timing_passes(&passes);
        assert_eq!(used.len(), 10);
        assert!(used.iter().all(|p| p.steal <= 0.3 - 0.005 * 30.0 + 1e-12));
        let few: Vec<PassStat> = (0..15).map(|i| pass(0.1 + 0.01 * i as f64, 8)).collect();
        assert_eq!(timing_passes(&few).len(), 13);
    }

    #[test]
    fn timing_skips_failed_passes() {
        let mut passes = vec![pass(0.0, 10), pass(0.0, 0), pass(0.5, 10)];
        passes[0].failed = 3;
        passes[1].failed = 10;
        let used = timing_passes(&passes);
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].steal, 0.5);
    }
}
