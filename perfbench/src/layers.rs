//! Per-layer numbers read from outside the program: deltas of the
//! always-present `Runtime::stats()` counters and of the
//! `Runtime::metrics()` latency histograms (present when the runtime
//! was built with `RuntimeConfig::histograms`), taken around each op.

use crate::harness::Metric;
use std::collections::BTreeMap;
use ttg_obs::HistogramSnapshot;
use ttg_runtime::{Runtime, RuntimeStats};

/// Counters and histograms of a set of runtimes at one instant, summed
/// over ranks.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

fn counters(s: &RuntimeStats) -> [(&'static str, u64); 9] {
    [
        ("tasks", s.tasks_executed),
        ("parks", s.parks),
        ("wave_contributions", s.wave_contributions),
        ("messages_sent", s.messages_sent),
        ("bytes_sent", s.bytes_sent),
        ("local_pops", s.queue.local_pops as u64),
        ("steals", s.queue.steals as u64),
        ("slow_pushes", s.queue.slow_pushes as u64),
        ("heartbeats_sent", s.heartbeats_sent),
    ]
}

impl Snapshot {
    /// Reads every runtime of `rts`.
    pub fn take(rts: &[&Runtime]) -> Snapshot {
        let mut snap = Snapshot::default();
        for rt in rts {
            for (name, v) in counters(&rt.stats()) {
                *snap.counters.entry(name).or_default() += v;
            }
            for (name, h) in rt.metrics().histograms {
                snap.hists
                    .entry(name)
                    .or_insert_with(HistogramSnapshot::empty)
                    .merge(&h);
            }
        }
        snap
    }

    /// `later − self`, counter by counter and bucket by bucket.
    pub fn delta(&self, later: &Snapshot) -> Snapshot {
        let counters = later
            .counters
            .iter()
            .map(|(k, v)| (*k, v.saturating_sub(self.counters.get(k).copied().unwrap_or(0))))
            .collect();
        let hists = later
            .hists
            .iter()
            .map(|(k, h)| {
                let mut d = *h;
                if let Some(b) = self.hists.get(k) {
                    for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
                        *x = x.saturating_sub(*y);
                    }
                    d.sum = d.sum.wrapping_sub(b.sum);
                }
                (k.clone(), d)
            })
            .collect();
        Snapshot { counters, hists }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, h) in &other.hists {
            self.hists
                .entry(k.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(h);
        }
    }

    /// One counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn hist(&self, name: &str) -> HistogramSnapshot {
        self.hists.get(name).copied().unwrap_or_else(HistogramSnapshot::empty)
    }
}

/// Counter deltas accumulated over a run's ops, with the wall time and
/// worker count they were taken over.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    /// Summed per-op deltas.
    pub sum: Snapshot,
    /// Summed op wall time, ns.
    pub wall_ns: f64,
    /// Worker threads across the runtimes measured.
    pub workers: usize,
    /// Ops accumulated.
    pub ops: u64,
}

impl LayerCounters {
    /// Adds one op's delta and wall time.
    pub fn add(&mut self, delta: &Snapshot, wall_ns: f64, workers: usize) {
        self.sum.add(delta);
        self.wall_ns += wall_ns;
        self.workers = workers;
        self.ops += 1;
    }

    /// The runtime, sched, termdet and comm metrics. `work_items` is the
    /// count `comm.msgs_per_task` divides by (Task-Bench tasks for the
    /// `tb-*` workloads, executed runtime tasks otherwise).
    pub fn metrics(&self, work_items: u64) -> Vec<Metric> {
        let s = &self.sum;
        let tasks = s.get("tasks").max(1) as f64;
        let per_k = |v: u64| v as f64 * 1000.0 / tasks;
        let us = |ns: u64| ns as f64 / 1000.0;
        let busy = s.hist("task_duration");
        let ready = s.hist("ready_delay");
        let msg = s.hist("message_latency");
        let pops = s.get("local_pops") + s.get("steals");
        let sent = s.get("messages_sent");
        let basis = format!("over {} ops, {} tasks", self.ops, s.get("tasks"));
        vec![
            Metric::new(
                "runtime.busy_frac",
                busy.sum as f64 / (self.workers.max(1) as f64 * self.wall_ns.max(1.0)),
                "ratio",
            )
            .note(basis.clone()),
            Metric::new("runtime.ready_delay_us_p50", us(ready.p50()), "us")
                .note(format!("{} samples", ready.count())),
            Metric::new("runtime.ready_delay_us_p99", us(ready.p99()), "us")
                .note(format!("{} samples", ready.count())),
            Metric::new("runtime.parks_per_ktask", per_k(s.get("parks")), "count").note(basis.clone()),
            Metric::new("runtime.task_us_p50", us(busy.p50()), "us")
                .note(format!("{} samples", busy.count())),
            Metric::new("sched.steals_per_ktask", per_k(s.get("steals")), "count"),
            Metric::new(
                "sched.local_pop_frac",
                s.get("local_pops") as f64 / pops.max(1) as f64,
                "ratio",
            ),
            Metric::new("sched.slow_pushes_per_ktask", per_k(s.get("slow_pushes")), "count"),
            Metric::new(
                "termdet.wave_contributions_per_ktask",
                per_k(s.get("wave_contributions")),
                "count",
            ),
            Metric::new(
                "comm.msgs_per_task",
                sent as f64 / work_items.max(1) as f64,
                "ratio",
            )
            .note(format!("{sent} messages over {work_items} tasks")),
            Metric::new(
                "comm.bytes_per_msg",
                s.get("bytes_sent") as f64 / sent.max(1) as f64,
                "B",
            ),
            Metric::new("comm.msg_latency_us_p50", us(msg.p50()), "us")
                .note(format!("{} samples", msg.count())),
        ]
    }
}
