//! The `mra-k10` workload: project → compress → reconstruct of eight
//! seed-generated Gaussians at order k = 10 on one resident 2-worker
//! runtime.

use crate::harness::{end_to_end, supervise, Metric, Samples, Stalled, Watch, WorkloadOutput};
use crate::layers::{LayerCounters, Snapshot};
use crate::oracle::MraOracle;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::RunConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_mra::tree::MraContext;
use ttg_mra::ttg_pipeline::MraTtg;
use ttg_mra::{Gaussian3, MraParams};
use ttg_runtime::{Runtime, RuntimeConfig};

/// Worker threads of the resident runtime.
const WORKERS: usize = 2;
/// Per-solve deadline; a solve takes well under a second.
const DEADLINE: Duration = Duration::from_secs(60);
/// Runtimes (each with a fresh context and a warm-up solve) per run.
const SEGMENTS: usize = 4;
/// Function sets per run, solved in turn. Solve time depends on where
/// the seed puts the Gaussians; cycling several sets keeps a run's
/// figures from hanging on one draw.
const SETS: usize = 8;

/// The paper's order with a tolerance and depth that keep a solve near
/// 1,500 boxes.
pub fn params() -> MraParams {
    MraParams {
        k: 10,
        eps: 1e-6,
        max_level: 8,
        initial_level: 2,
        domain: (-6.0, 6.0),
    }
}

/// [`SETS`] sets of eight Gaussians, exponent 300, centres uniform in
/// [−6, 6]³.
pub fn functions(seed: u64) -> Vec<Vec<Gaussian3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SETS)
        .map(|_| Gaussian3::random_set(8, -6.0, 6.0, 300.0, &mut rng))
        .collect()
}

/// Flops of one k³ mode transform with k×k matrices: three GEMMs of
/// k×k by k×k².
fn transform_flops(k: usize) -> f64 {
    6.0 * (k as f64).powi(4)
}

/// Runs the workload.
pub fn run(cfg: RunConfig) -> Result<(WorkloadOutput, Arc<Watch>), Stalled> {
    let sets = functions(cfg.seed);
    let t = Instant::now();
    let oracle_ctx = MraContext::new(params());
    // One serial pipeline per set, the sets shared over the workers.
    let oracles: Vec<MraOracle> = std::thread::scope(|scope| {
        let handles: Vec<_> = sets
            .iter()
            .map(|funcs| {
                let ctx = &oracle_ctx;
                scope.spawn(move || MraOracle::new(funcs.iter().map(|f| ttg_mra::serial::run(ctx, f)).collect()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread")).collect()
    });
    let oracle_setup_s = t.elapsed().as_secs_f64();
    supervise(move |watch| {
        let mut tracer = Tracer::new(cfg.trace);
        let mut s = Samples::default();
        let mut counters = LayerCounters::default();
        let mut shape = vec![None; SETS];
        let mut next = 0;
        let seg_time = cfg.seconds / SEGMENTS as f64;
        for seg in 0..SEGMENTS {
            let traced = cfg.trace && seg % 2 == 1;
            tracer.set_enabled(traced);
            let setup = Instant::now();
            let rt = Arc::new(Runtime::new(RuntimeConfig {
                histograms: traced,
                ..RuntimeConfig::optimized(WORKERS)
            }));
            let c = Arc::new(MraContext::new(params()));
            let mra = MraTtg::new(c);
            watch.op("warm-up solve", DEADLINE, || oracles[0].check(&mra.run(&rt, &sets[0])));
            s.push("setup_s", setup.elapsed().as_secs_f64());
            let end = Instant::now() + Duration::from_secs_f64(seg_time);
            while Instant::now() < end {
                let set = next % SETS;
                next += 1;
                let (funcs, oracle) = (&sets[set], &oracles[set]);
                let before = traced.then(|| Snapshot::take(&[&rt]));
                let op_start = Instant::now();
                let mut solve_ns = 0.0;
                let mut stats = None;
                watch.op("solve", DEADLINE, || {
                    tracer.root("solve", |t| {
                        let solve = Instant::now();
                        let out = t.span("MraTtg::run", |_| mra.run(&rt, &funcs));
                        solve_ns = solve.elapsed().as_nanos() as f64;
                        let check = Instant::now();
                        let verdict = t.span("oracle.check", |_| oracle.check(&out));
                        s.push("check_ms", check.elapsed().as_secs_f64() * 1e3);
                        stats = Some(out.stats);
                        verdict
                    })
                });
                let wall_ms = op_start.elapsed().as_secs_f64() * 1e3;
                let st = stats.expect("the op ran");
                shape[set] = Some((st.internal_boxes, st.leaves));
                let boxes = (st.leaves + st.internal_boxes) as f64;
                if before.is_some() {
                    s.push("boxes_traced", boxes);
                    s.push("internal_traced", st.internal_boxes as f64);
                } else {
                    s.push("boxes", boxes);
                }
                if let Some(before) = before {
                    counters.add(&before.delta(&Snapshot::take(&[&rt])), solve_ns, WORKERS);
                    s.push("op_ms_traced", wall_ms);
                    s.push("solve_ms_traced", solve_ns / 1e6);
                } else {
                    s.push("solve_ms", solve_ns / 1e6);
                    if set == 0 {
                        s.push("solve0_ms", solve_ns / 1e6);
                    }
                    s.push("op_ms_untraced", wall_ms);
                }
            }
        }
        tracer.set_enabled(cfg.trace);
        let mut out = WorkloadOutput::default();
        let solve = s.get("solve_ms");
        let t_solve = tail(solve);
        // A run of a few seconds may not reach every set.
        let shape: Vec<(usize, usize)> = shape.into_iter().flatten().collect();
        let internal = shape.iter().map(|s| s.0).sum::<usize>() as f64 / shape.len() as f64;
        let leaves = shape.iter().map(|s| s.1).sum::<usize>() as f64 / shape.len() as f64;
        let boxes = leaves + internal;
        out.lines.push(format!(
            "per set (internal boxes, leaves): {shape:?}; oracle leaves {:?}",
            oracles.iter().map(MraOracle::leaves).collect::<Vec<_>>()
        ));
        if !cfg.trace {
            let solved: f64 = s.get("boxes").iter().sum();
            let solve_s = solve.iter().sum::<f64>() / 1e3;
            out.metrics = end_to_end(s.get("setup_s"), solve, "solve wall", solved, solve_s, "tree boxes");
            out.metrics.extend([
                Metric::new("solve_ms_p50", median(solve), "ms"),
                Metric::new("solve_ms_tail", t_solve.value, "ms").note(t_solve.label()),
                Metric::new("oracle.setup_s", oracle_setup_s, "s"),
                Metric::new("oracle.check_ms_p50", median(s.get("check_ms")), "ms"),
            ]);
            return out;
        }

        let probes = crate::probe_all(crate::probes::Shape { live_keys: 64 }, cfg.seed, &mut tracer);
        // The serial pipeline runs the same kernels on one thread with
        // next to no runtime work, so its time over set 0 estimates the
        // kernel time of a TTG solve of that set.
        let ctx = MraContext::new(params());
        let serial_ms = tracer.root("mra.serial_pipeline", |_| {
            let t = Instant::now();
            for f in &sets[0] {
                std::hint::black_box(ttg_mra::serial::run(&ctx, f));
            }
            t.elapsed().as_secs_f64() * 1e3
        });
        let solve0 = median(s.get("solve0_ms"));
        // Kernel calls per solve: Project projects 8 children and filters
        // them; Compress filters and unfilters 8 residuals per internal
        // box; Reconstruct unfilters 8 children per internal box.
        // Every box runs one Project task. Totals over the traced solves.
        let p: f64 = s.get("boxes_traced").iter().sum();
        let i: f64 = s.get("internal_traced").iter().sum();
        let solve_traced: f64 = s.get("solve_ms_traced").iter().sum();
        let k = params().k;
        let flops = 8.0 * p * transform_flops(k) + (p + i) * 8.0 * transform_flops(k) + 16.0 * i * transform_flops(k);
        out.metrics = counters.metrics(counters.sum.get("tasks"));
        out.metrics.extend([
            Metric::new("mra.boxes_per_solve", boxes, "count")
                .note(format!("{leaves} leaves + {internal} internal boxes, mean over {} sets", shape.len())),
            Metric::new("mra.leaves_per_solve", leaves, "count"),
            Metric::new("mra.kernel_frac", serial_ms / (WORKERS as f64 * solve0.max(1e-9)), "ratio").note(format!(
                "estimate: serial pipeline {serial_ms:.1} ms on set 0 / ({WORKERS} workers x solve p50 {solve0:.1} ms)"
            )),
            Metric::new("mra.gflops_computed", flops / (solve_traced.max(1e-9) * 1e6), "GFLOP/s")
                .note(format!("computed: {flops:.3e} flops in the traced solves from k and box counts")),
        ]);
        out.metrics.extend(crate::tb::overhead_and_oracle(&s, oracle_setup_s));
        out.metrics.extend(probes);
        out.spans = Some(tracer);
        out
    })
}
