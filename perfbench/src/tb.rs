//! The Task-Bench workloads: `tb-stencil-smp` (stencil_1d, width 2, one
//! 2-worker runtime) and `tb-spread-dist` (spread, width 64, two
//! in-process ranks of one worker each).

use crate::harness::{end_to_end, supervise, Metric, Samples, Stalled, Watch, WorkloadOutput};
use crate::layers::{LayerCounters, Snapshot};
use crate::oracle::TaskBenchOracle;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::RunConfig;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_core::{dist, AggCount, Edge, Graph, Tt};
use ttg_runtime::{ProcessGroup, Runtime, RuntimeConfig};
use ttg_task_bench::impls::ttg::TtgRunner;
use ttg_task_bench::kernel::KernelScratch;
use ttg_task_bench::impls::BenchRunner;
use ttg_task_bench::{Implementation, Kernel, Pattern, RunResult, TaskGraph};

/// Which Task-Bench workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tb {
    /// stencil_1d, width 2, 16,000 steps, on one 2-worker runtime.
    StencilSmp,
    /// spread (3 deps), width 64, 500 steps, over 2 ranks × 1 worker.
    SpreadDist,
}

/// Worker threads in total, in both workloads.
const WORKERS: usize = 2;
/// Per-graph deadline; a graph takes well under a second.
const DEADLINE: Duration = Duration::from_secs(20);

impl Tb {
    /// The graph the workload runs.
    pub fn graph(self) -> TaskGraph {
        match self {
            Tb::StencilSmp => TaskGraph::new(16_000, 2, Pattern::Stencil1D, Kernel::Empty),
            Tb::SpreadDist => TaskGraph::new(500, 64, Pattern::Spread { count: 3 }, Kernel::Empty),
        }
    }

    /// Runtimes (or process groups) built per run. Each stencil runtime
    /// runs in a fast or a slow mode that depends on where the OS put its
    /// workers, so a run samples many runtimes and its median reflects
    /// the mix.
    fn segments(self) -> usize {
        match self {
            Tb::StencilSmp => 48,
            Tb::SpreadDist => 12,
        }
    }

    /// The runner under test; `histograms` turns on the runtime's
    /// latency histograms (stencil only: `TtgDistRunner` fixes its
    /// config).
    fn runner(self, histograms: bool) -> Box<dyn BenchRunner> {
        match self {
            Tb::StencilSmp => Box::new(TtgRunner::with_config(WORKERS, config(WORKERS, histograms))),
            Tb::SpreadDist => Implementation::TtgDist.build(WORKERS),
        }
    }

    /// Live keys in the matching table: inputs of about two timesteps.
    fn live_keys(self) -> usize {
        2 * self.graph().width
    }
}

fn config(threads: usize, histograms: bool) -> RuntimeConfig {
    RuntimeConfig {
        histograms,
        ..RuntimeConfig::optimized(threads)
    }
}

/// Workers × wall ÷ tasks of one graph, ns (the paper's Fig. 7a/8a
/// core time per task).
fn core_ns(r: &RunResult, workers: usize) -> f64 {
    r.elapsed_nanos as f64 * workers as f64 / r.tasks.max(1) as f64
}

/// Runs a Task-Bench workload.
pub fn run(which: Tb, cfg: RunConfig) -> Result<(WorkloadOutput, Arc<Watch>), Stalled> {
    let g = which.graph();
    let t = Instant::now();
    let oracle = TaskBenchOracle::new(&g);
    let oracle_setup_s = t.elapsed().as_secs_f64();
    supervise(move |watch| {
        let mut tracer = Tracer::new(cfg.trace);
        let mut s = Samples::default();
        let mut runtime_medians = Vec::new();
        let segments = which.segments();
        let seg_time = cfg.seconds / segments as f64;
        for seg in 0..segments {
            // A traced run alternates traced and untraced runtimes so the
            // cost of tracing can be read off within the run.
            let traced = cfg.trace && seg % 2 == 1;
            tracer.set_enabled(traced);
            let setup = Instant::now();
            let mut runner = which.runner(traced);
            watch.op("warm-up graph", DEADLINE, || oracle.check(&runner.run(&g)));
            s.push("setup_s", setup.elapsed().as_secs_f64());
            let mut seg_core = Vec::new();
            let end = Instant::now() + Duration::from_secs_f64(seg_time);
            while Instant::now() < end {
                let mut result = None;
                let op_start = Instant::now();
                watch.op("graph", DEADLINE, || {
                    tracer.root("graph", |t| {
                        let r = t.span("BenchRunner::run", |_| runner.run(&g));
                        let check = Instant::now();
                        let out = t.span("oracle.check", |_| oracle.check(&r));
                        s.push("check_ms", check.elapsed().as_secs_f64() * 1e3);
                        result = Some(r);
                        out
                    })
                });
                let wall_ms = op_start.elapsed().as_secs_f64() * 1e3;
                let r = result.expect("the op ran");
                let core = core_ns(&r, WORKERS);
                if traced {
                    s.push("op_ms_traced", wall_ms);
                } else {
                    s.push("graph_ms", r.elapsed_nanos as f64 / 1e6);
                    s.push("op_ms_untraced", wall_ms);
                    s.push("core_ns", core);
                    s.push("tasks", r.tasks as f64);
                    seg_core.push(core);
                }
            }
            if !seg_core.is_empty() {
                runtime_medians.push(median(&seg_core));
            }
        }
        tracer.set_enabled(cfg.trace);
        let mut out = WorkloadOutput::default();
        let core = s.get("core_ns");
        let t_core = tail(core);
        out.lines.push(format!(
            "per-runtime median core ns/task over {} runtimes: {:?}",
            runtime_medians.len(),
            runtime_medians.iter().map(|v| v.round()).collect::<Vec<_>>()
        ));
        if !cfg.trace {
            let tasks: f64 = s.get("tasks").iter().sum();
            let graph_s = s.get("graph_ms").iter().sum::<f64>() / 1e3;
            out.metrics = end_to_end(s.get("setup_s"), s.get("graph_ms"), "graph wall", tasks, graph_s, "tasks");
            out.metrics.extend([
                Metric::new("core_ns_per_task_p50", median(core), "ns").note("workers x graph wall / tasks"),
                Metric::new("core_ns_per_task_tail", t_core.value, "ns").note(t_core.label()),
            ]);
            out.metrics.extend(oracle_metrics(&s, oracle_setup_s));
            return out;
        }

        // Per-layer part of a traced run.
        let two_worker = median(core);
        let one_worker = tracer.root("task-bench.one_worker", |_| {
            baseline(&g, &oracle, watch, Box::new(TtgRunner::new(1, true)), 1)
        });
        let serial = tracer.root("task-bench.serial", |_| {
            baseline(&g, &oracle, watch, Implementation::Serial.build(1), 1)
        });
        let counters = tracer.root("counters", |t| replica_counters(which, &g, &oracle, watch, t));
        let split = mode_split(&runtime_medians);
        out.metrics = counters.metrics(g.total_tasks() as u64 * counters.ops);
        out.metrics.extend([
            Metric::new("task-bench.serial_ns_per_task", serial, "ns"),
            Metric::new("task-bench.one_worker_core_ns_per_task", one_worker, "ns"),
            Metric::new("task-bench.scaling_eff", one_worker / two_worker.max(1e-9), "ratio")
                .note(format!("one-worker {one_worker:.1} ns / two-worker {two_worker:.1} ns")),
            Metric::new("task-bench.fast_mode_frac", split.0, "ratio").note(split.1),
        ]);
        out.metrics.extend(overhead_and_oracle(&s, oracle_setup_s));
        let shape = crate::probes::Shape {
            live_keys: which.live_keys(),
        };
        out.metrics.extend(crate::probe_all(shape, cfg.seed, &mut tracer));
        out.spans = Some(tracer);
        out
    })
}

/// Median core ns/task of `runner` on `g` over a short stretch.
fn baseline(
    g: &TaskGraph,
    oracle: &TaskBenchOracle,
    watch: &Watch,
    mut runner: Box<dyn BenchRunner>,
    workers: usize,
) -> f64 {
    let mut core = Vec::new();
    let end = Instant::now() + Duration::from_millis(800);
    while Instant::now() < end || core.len() < 3 {
        let mut r = None;
        watch.op(runner.name(), DEADLINE, || {
            let res = runner.run(g);
            let out = oracle.check(&res);
            r = Some(res);
            out
        });
        core.push(core_ns(&r.expect("the op ran"), workers));
    }
    median(&core)
}

/// Splits per-runtime medians into a fast and a slow mode at the widest
/// gap, when that gap is over 1.5× — the fraction of runtimes in the
/// fast mode and a description. One mode gives 1.0.
pub fn mode_split(medians: &[f64]) -> (f64, String) {
    let mut v = medians.to_vec();
    v.sort_by(f64::total_cmp);
    let gap = v
        .windows(2)
        .enumerate()
        .map(|(i, w)| (i, w[1] / w[0].max(1e-9)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    match gap {
        Some((i, ratio)) if ratio > 1.5 => (
            (i + 1) as f64 / v.len() as f64,
            format!(
                "{} of {} runtimes at <= {:.0} ns/task, the rest >= {:.0} ns/task",
                i + 1,
                v.len(),
                v[i],
                v[i + 1]
            ),
        ),
        _ => (1.0, format!("one mode over {} runtimes", v.len())),
    }
}

/// `oracle.*` metrics of an untraced run.
fn oracle_metrics(s: &Samples, oracle_setup_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("oracle.setup_s", oracle_setup_s, "s"),
        Metric::new("oracle.check_ms_p50", median(s.get("check_ms")), "ms"),
    ]
}

/// `obs.trace_overhead_frac` plus the `oracle.*` metrics of a traced run.
pub fn overhead_and_oracle(s: &Samples, oracle_setup_s: f64) -> Vec<Metric> {
    let traced = median(s.get("op_ms_traced"));
    let untraced = median(s.get("op_ms_untraced"));
    let mut m = vec![Metric::new(
        "obs.trace_overhead_frac",
        traced / untraced.max(1e-12) - 1.0,
        "ratio",
    )
    .note(format!(
        "op p50 traced {traced:.4} ms ({} ops) vs untraced {untraced:.4} ms ({} ops)",
        s.get("op_ms_traced").len(),
        s.get("op_ms_untraced").len()
    ))];
    m.extend(oracle_metrics(s, oracle_setup_s));
    m
}

/// Counter deltas around graphs of a replica of the Task-Bench TTG
/// runner built on a runtime this benchmark owns: `TtgRunner` and
/// `TtgDistRunner` keep their runtimes private, so their counters cannot
/// be read. The replica builds the same Listing-1 graph through the same
/// public `ttg-core` calls and is checked against the same oracle.
fn replica_counters(
    which: Tb,
    g: &TaskGraph,
    oracle: &TaskBenchOracle,
    watch: &Watch,
    tracer: &mut Tracer,
) -> LayerCounters {
    let mut acc = LayerCounters::default();
    let end = Instant::now() + Duration::from_millis(1500);
    match which {
        Tb::StencilSmp => {
            let rt = Arc::new(Runtime::new(config(WORKERS, true)));
            while Instant::now() < end || acc.ops < 3 {
                let before = Snapshot::take(&[&rt]);
                let t = Instant::now();
                let r = tracer.span("replica.run", |_| replica_smp(&rt, g));
                let wall = t.elapsed().as_nanos() as f64;
                watch.record("replica graph", &oracle.check(&r));
                acc.add(&before.delta(&Snapshot::take(&[&rt])), wall, WORKERS);
            }
        }
        Tb::SpreadDist => {
            let group = ProcessGroup::new(WORKERS, |_| config(1, true));
            while Instant::now() < end || acc.ops < 3 {
                let rts: Vec<&Runtime> = (0..WORKERS).map(|r| group.runtime(r)).collect();
                let before = Snapshot::take(&rts);
                let t = Instant::now();
                let r = tracer.span("replica.run", |_| replica_dist(&group, g));
                let wall = t.elapsed().as_nanos() as f64;
                watch.record("replica graph", &oracle.check(&r));
                acc.add(&before.delta(&Snapshot::take(&rts)), wall, WORKERS);
            }
        }
    }
    acc
}

/// The datum flowing between points.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct Msg {
    origin: u32,
    value: u64,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// The body every point runs: order inputs by origin, run the kernel,
/// compute the value, and send it on (or write it back at the last step).
fn point_body(spec: TaskGraph, (t, i): (u32, u32), mut deps: Vec<(usize, u64)>) -> (u64, Vec<(u32, u32)>) {
    deps.sort_unstable_by_key(|&(o, _)| o);
    SCRATCH.with(|s| spec.kernel.execute(&mut s.borrow_mut()));
    let value = spec.task_value(t as usize, i as usize, &deps);
    let succ = if t as usize + 1 == spec.steps {
        Vec::new()
    } else {
        spec.reverse_dependencies(t as usize, i as usize)
            .into_iter()
            .map(|j| (t + 1, j as u32))
            .collect()
    };
    (value, succ)
}

fn result(g: &TaskGraph, start: Instant, results: &[AtomicU64]) -> RunResult {
    let elapsed = start.elapsed();
    let row: Vec<u64> = results.iter().map(|v| v.load(Ordering::Relaxed)).collect();
    RunResult {
        elapsed_nanos: elapsed.as_nanos(),
        checksum: TaskGraph::checksum(&row),
        tasks: g.total_tasks(),
    }
}

/// Listing 1 on one shared-memory runtime.
fn replica_smp(rt: &Arc<Runtime>, g: &TaskGraph) -> RunResult {
    let graph = Graph::with_runtime(Arc::clone(rt));
    let point_edge: Edge<(u32, u32), Msg> = Edge::new("p2p");
    let wb_edge: Edge<u32, u64> = Edge::new("p2w");
    let results: Arc<Vec<AtomicU64>> = Arc::new((0..g.width).map(|_| AtomicU64::new(0)).collect());
    let spec = *g;
    let point = graph
        .tt::<(u32, u32)>("point")
        .input_aggregator_with(&point_edge, move |&(t, i): &(u32, u32)| {
            spec.dependencies(t as usize, i as usize).len()
        })
        .output(&point_edge)
        .output(&wb_edge)
        .build(move |&key, inputs, out| {
            let deps = inputs
                .aggregate::<Msg>(0)
                .iter()
                .map(|m| (m.origin as usize, m.value))
                .collect();
            let (value, succ) = point_body(spec, key, deps);
            if succ.is_empty() {
                out.send(1, key.1, value);
            } else {
                out.broadcast(0, succ.into_iter(), Msg { origin: key.1, value });
            }
        });
    let res = Arc::clone(&results);
    let _wb = graph
        .tt::<u32>("write-back")
        .input::<u64>(&wb_edge)
        .build(move |&i, inputs, _out| {
            res[i as usize].store(*inputs.get::<u64>(0), Ordering::Relaxed);
        });
    let start = Instant::now();
    for i in 0..g.width as u32 {
        point.invoke((0, i));
    }
    graph.wait();
    result(g, start, &results)
}

/// Listing 1 built on every rank of `group`, points block-distributed.
fn replica_dist(group: &ProcessGroup, g: &TaskGraph) -> RunResult {
    let ranks = group.nprocs();
    let spec = *g;
    let results: Arc<Vec<AtomicU64>> = Arc::new((0..g.width).map(|_| AtomicU64::new(0)).collect());
    let mut graphs = Vec::new();
    let mut points: Vec<Tt<(u32, u32)>> = Vec::new();
    let mut writebacks: Vec<Tt<u32>> = Vec::new();
    for rank in 0..ranks {
        let graph = Graph::with_runtime(group.runtime_arc(rank));
        let point_edge: Edge<(u32, u32), Msg> = Edge::new("p2p");
        let wb_edge: Edge<u32, u64> = Edge::new("p2w");
        let point = graph
            .tt::<(u32, u32)>("point")
            .input_aggregator_remote::<Msg>(
                &point_edge,
                AggCount::PerKey(Arc::new(move |&(t, i): &(u32, u32)| {
                    spec.dependencies(t as usize, i as usize).len()
                })),
            )
            .output(&point_edge)
            .output(&wb_edge)
            .build(move |&key, inputs, out| {
                let deps = inputs
                    .aggregate::<Msg>(0)
                    .iter()
                    .map(|m| (m.origin as usize, m.value))
                    .collect();
                let (value, succ) = point_body(spec, key, deps);
                if succ.is_empty() {
                    out.send(1, key.1, value);
                } else {
                    out.broadcast(0, succ.into_iter(), Msg { origin: key.1, value });
                }
            });
        let res = Arc::clone(&results);
        let wb = graph
            .tt::<u32>("write-back")
            .input_remote::<u64>(&wb_edge)
            .build(move |&i, inputs, _out| {
                res[i as usize].store(*inputs.get::<u64>(0), Ordering::Relaxed);
            });
        graphs.push(graph);
        points.push(point);
        writebacks.push(wb);
    }
    let block = g.width.div_ceil(ranks);
    dist::link_distributed(&points, move |&(_t, i): &(u32, u32)| ((i as usize) / block).min(ranks - 1));
    dist::link_distributed(&writebacks, move |&i: &u32| ((i as usize) / block).min(ranks - 1));
    let start = Instant::now();
    for i in 0..g.width as u32 {
        points[0].invoke((0, i));
    }
    group.wait();
    result(g, start, &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;

    #[test]
    fn mode_split_finds_two_modes_or_one() {
        let (frac, _) = mode_split(&[1500.0, 3400.0, 1480.0, 3300.0]);
        assert_eq!(frac, 0.5);
        assert_eq!(mode_split(&[1500.0, 1600.0, 1550.0]).0, 1.0);
    }

    #[test]
    fn replicas_match_the_oracle() {
        let g = TaskGraph::new(40, 8, Pattern::Spread { count: 3 }, Kernel::Empty);
        let oracle = TaskBenchOracle::new(&g);
        let rt = Arc::new(Runtime::new(config(2, false)));
        assert_eq!(oracle.check(&replica_smp(&rt, &g)), Outcome::Ok);
        let group = ProcessGroup::new(2, |_| config(1, false));
        assert_eq!(oracle.check(&replica_dist(&group, &g)), Outcome::Ok);
    }
}
