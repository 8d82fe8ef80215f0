//! In-memory span recording around the benchmark's calls into each
//! layer, and the self-time report built from it.
//!
//! Spans are recorded on the one client thread that drives a workload,
//! so a child always nests inside its parent and never overlaps a
//! sibling: the self times of an op's spans then add up to the op's
//! wall time, which [`Tracer::report`] checks.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or op kind.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Op (or probe) this span belongs to; shared by its whole tree.
    pub op: u64,
}

/// Records spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

/// Per-name self-time totals plus the conservation check.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// name → (spans, total self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Root spans (ops and probes) covered.
    pub roots: u64,
    /// Largest |Σ self − root wall| over all roots, ns.
    pub max_residual_ns: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new root span (one op or one probe).
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.next_op += 1;
        let op = self.next_op;
        self.open(name, op, f)
    }

    /// Runs `f` inside a child span of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let op = self
            .stack
            .last()
            .map(|&i| self.spans[i].op)
            .unwrap_or(self.next_op);
        self.open(name, op, f)
    }

    fn open<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, and the largest gap between an op's
    /// summed self times and its wall time.
    pub fn report(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes::default();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut self_sum: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let e = out.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
            // Parents precede children in `spans`, so the root is known.
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
            *self_sum.entry(root_of[i]).or_default() += self_ns;
        }
        for (root, sum) in self_sum {
            let wall = self.spans[root].end_ns - self.spans[root].start_ns;
            out.roots += 1;
            out.max_residual_ns = out.max_residual_ns.max(sum.abs_diff(wall));
        }
        out
    }

    /// The spans as a JSON array (name, start, end, parent, op).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_op_wall_time() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.root("op", |t| {
                t.span("a", |t| t.span("a.inner", |_| std::hint::black_box(1)));
                t.span("b", |_| ());
            });
        }
        let r = t.report();
        assert_eq!(r.roots, 3);
        assert_eq!(r.max_residual_ns, 0);
        assert_eq!(r.by_name["a.inner"].0, 3);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.spans[1].op, t.spans[0].op);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.root("op", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
