//! The closed loop: one client thread issues each op only after the
//! previous one finished and was checked, while the calling thread
//! watches every op's deadline so that a stalled op fails the run
//! instead of hanging it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How one checked op ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Output matched its oracle.
    Ok,
    /// Output differed from its oracle.
    Wrong(String),
    /// The op returned an error.
    Error(String),
}

/// The op that missed its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Stalled {
    /// Op kind.
    pub what: &'static str,
    /// Ops attempted, the stalled one included.
    pub attempted: u64,
    /// Ops failed, the stalled one included.
    pub failed: u64,
    /// The first failures recorded before the stall.
    pub notes: Vec<String>,
}

/// Failure accounting and the deadline of the op in flight, shared
/// between the client and the watching thread.
#[derive(Default)]
pub struct Watch {
    /// Start of the op in flight, ns after `origin`; 0 when idle.
    op_start: AtomicU64,
    op_deadline: AtomicU64,
    attempted: AtomicU64,
    failed: AtomicU64,
    op_kind: Mutex<&'static str>,
    notes: Mutex<Vec<String>>,
    origin: OnceLock<Instant>,
}

/// Failures whose text is kept for the report.
const MAX_NOTES: usize = 8;

impl Watch {
    fn now_ns(&self) -> u64 {
        self.origin.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
    }

    /// Runs one op under `deadline`; its outcome is recorded and
    /// returned.
    pub fn op(&self, what: &'static str, deadline: Duration, f: impl FnOnce() -> Outcome) -> bool {
        *self.op_kind.lock().expect("watch kind lock") = what;
        self.attempted.fetch_add(1, Ordering::SeqCst);
        self.op_deadline
            .store(deadline.as_nanos() as u64, Ordering::SeqCst);
        self.op_start.store(self.now_ns(), Ordering::SeqCst);
        let outcome = f();
        self.op_start.store(0, Ordering::SeqCst);
        self.record(what, &outcome)
    }

    /// Counts a finished op's outcome; true when it passed.
    pub fn record(&self, what: &str, outcome: &Outcome) -> bool {
        let note = match outcome {
            Outcome::Ok => return true,
            Outcome::Wrong(why) => format!("{what}: wrong output: {why}"),
            Outcome::Error(why) => format!("{what}: error: {why}"),
        };
        self.failed.fetch_add(1, Ordering::SeqCst);
        let mut notes = self.notes.lock().expect("watch notes lock");
        if notes.len() < MAX_NOTES {
            notes.push(note);
        }
        false
    }

    /// Ops attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::SeqCst)
    }

    /// Ops failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::SeqCst)
    }

    /// Recorded failure texts.
    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("watch notes lock").clone()
    }

    fn overdue(&self) -> Option<&'static str> {
        let start = self.op_start.load(Ordering::SeqCst);
        if start == 0 {
            return None;
        }
        let limit = self.op_deadline.load(Ordering::SeqCst);
        (self.now_ns().saturating_sub(start) > limit)
            .then(|| *self.op_kind.lock().expect("watch kind lock"))
    }
}

/// How often the watching thread looks at the op in flight.
const POLL: Duration = Duration::from_millis(50);

/// Runs `client` on its own thread and returns its result, or the op
/// that overran its deadline. A stalled client thread is left behind:
/// the caller reports and exits the process, which ends it.
pub fn supervise<R: Send + 'static>(
    client: impl FnOnce(&Watch) -> R + Send + 'static,
) -> Result<(R, Arc<Watch>), Stalled> {
    let watch = Arc::new(Watch::default());
    let w = Arc::clone(&watch);
    let handle = std::thread::Builder::new()
        .name("bench-client".into())
        .spawn(move || client(&w))
        .expect("spawn the client thread");
    loop {
        if handle.is_finished() {
            let r = handle
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            return Ok((r, watch));
        }
        if let Some(what) = watch.overdue() {
            let mut notes = watch.notes();
            notes.push(format!("{what}: missed its deadline"));
            return Err(Stalled {
                what,
                attempted: watch.attempted(),
                failed: watch.failed() + 1,
                notes,
            });
        }
        std::thread::sleep(POLL);
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and tail percentile, for the report.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note (sample count, percentile).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The end-to-end metrics every workload reports under the same names:
/// set-up time, an op's median and tail wall time, and `items` work items
/// done in `items_s` seconds. `op` and `item` say what they are in the
/// workload.
pub fn end_to_end(setup_s: &[f64], op_ms: &[f64], op: &str, items: f64, items_s: f64, item: &str) -> Vec<Metric> {
    let t = crate::stats::tail(op_ms);
    vec![
        Metric::new("setup_s", crate::stats::median(setup_s), "s")
            .note(format!("median of {} set-ups", setup_s.len())),
        Metric::new("op_ms_p50", crate::stats::median(op_ms), "ms").note(format!("{op}, {} ops", op_ms.len())),
        Metric::new("op_ms_tail", t.value, "ms").note(format!("{op}, {}", t.label())),
        Metric::new("items_per_s", items / items_s.max(1e-9), "1/s")
            .note(format!("{items} {item} in {items_s:.3} s")),
    ]
}

/// Named series of measured samples.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one sample to `series`.
    pub fn push(&mut self, series: &'static str, v: f64) {
        self.0.entry(series).or_default().push(v);
    }

    /// The samples of `series` (empty when never pushed).
    pub fn get(&self, series: &str) -> &[f64] {
        self.0.get(series).map_or(&[], |v| v.as_slice())
    }
}

/// What a workload's client thread hands back.
#[derive(Default)]
pub struct WorkloadOutput {
    /// Metrics of the run (end-to-end in an untraced run, per-layer in a
    /// traced one).
    pub metrics: Vec<Metric>,
    /// Extra human-readable report lines.
    pub lines: Vec<String>,
    /// Span recorder of the run (empty when untraced).
    pub spans: Option<crate::trace::Tracer>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_op_fails_the_run_without_hanging_it() {
        let started = Instant::now();
        let r = supervise(|w: &Watch| {
            for i in 0..5 {
                w.op("op", Duration::from_millis(100), || {
                    if i == 2 {
                        // Stalls well past its deadline.
                        std::thread::sleep(Duration::from_secs(2));
                    }
                    Outcome::Ok
                });
            }
        });
        let stalled = r.err().expect("the third op stalls");
        assert_eq!(stalled.attempted, 3);
        assert_eq!(stalled.failed, 1);
        assert_eq!(stalled.what, "op");
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wrong_outputs_and_errors_count_as_failed() {
        let (_, w) = supervise(|w: &Watch| {
            w.op("a", Duration::from_secs(5), || Outcome::Ok);
            w.op("b", Duration::from_secs(5), || Outcome::Wrong("x".into()));
            w.op("c", Duration::from_secs(5), || Outcome::Error("y".into()));
        })
        .expect("no stall");
        assert_eq!((w.attempted(), w.failed()), (3, 2));
        assert_eq!(w.notes().len(), 2);
    }
}
