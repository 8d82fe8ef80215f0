//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `tb-stencil-smp`, `tb-spread-dist`, `mra-k10`, `tcp-mesh`
//! (see README.md). Every op's output is checked; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The exit code is 0 only when every
//! op passed. A fuller report (all metrics with notes, the machine
//! fingerprint and, when traced, the spans and their self times) goes to
//! `.bench_out/` under the working directory.

mod harness;
mod layers;
mod mra;
mod oracle;
mod probes;
mod stats;
mod tb;
mod tcp;
mod trace;

use harness::{Metric, Stalled, Watch, WorkloadOutput};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed; the program under test sees only inputs made from it.
    pub seed: u64,
    /// Measured time, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans, histograms.
    pub trace: bool,
}

/// End-to-end metrics, printed by an untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("items_per_s", "1/s"),
];

/// Per-layer metrics, printed by a traced run; 0 where a workload does
/// not exercise the layer (see README.md for which workload moves which).
const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.busy_frac", "ratio"),
    ("runtime.ready_delay_us_p50", "us"),
    ("runtime.ready_delay_us_p99", "us"),
    ("runtime.parks_per_ktask", "count"),
    ("runtime.task_us_p50", "us"),
    ("sched.steals_per_ktask", "count"),
    ("sched.local_pop_frac", "ratio"),
    ("sched.slow_pushes_per_ktask", "count"),
    ("termdet.wave_contributions_per_ktask", "count"),
    ("termdet.wave_contributions_per_burst", "count"),
    ("termdet.discover_execute_ns_1t", "ns"),
    ("termdet.discover_execute_ns_2t", "ns"),
    ("hashtable.insert_find_remove_ns_1t", "ns"),
    ("hashtable.insert_find_remove_ns_2t", "ns"),
    ("sync.bravo_read_ns", "ns"),
    ("sync.bravo_write_ns", "ns"),
    ("sync.rwspin_writer_wait_us_p99", "us"),
    ("mempool.alloc_free_ns_1t", "ns"),
    ("mempool.remote_free_ns", "ns"),
    ("comm.msgs_per_task", "ratio"),
    ("comm.bytes_per_msg", "B"),
    ("comm.msg_latency_us_p50", "us"),
    ("net.rtt64k_us_p50", "us"),
    ("net.send_msg_us_p50_8b", "us"),
    ("net.send_msg_us_p50_64k", "us"),
    ("net.rtt8_residual_us", "us"),
    ("net.encode_ns_8b", "ns"),
    ("net.encode_us_64k", "us"),
    ("net.decode_ns_8b", "ns"),
    ("net.decode_us_64k", "us"),
    ("net.crc32_ns_per_kib", "ns"),
    ("net.burst_send_ms_p50", "ms"),
    ("net.burst_quiesce_ms_p50", "ms"),
    ("net.burst_quiesce_ms_tail", "ms"),
    ("net.slow_burst_frac", "ratio"),
    ("net.heartbeats_per_burst", "count"),
    ("mra.project_box_us", "us"),
    ("mra.filter_us", "us"),
    ("mra.unfilter_child_us", "us"),
    ("mra.boxes_per_solve", "count"),
    ("mra.leaves_per_solve", "count"),
    ("mra.kernel_frac", "ratio"),
    ("mra.gflops_computed", "GFLOP/s"),
    ("task-bench.serial_ns_per_task", "ns"),
    ("task-bench.one_worker_core_ns_per_task", "ns"),
    ("task-bench.scaling_eff", "ratio"),
    ("task-bench.fast_mode_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("oracle.check_ms_p50", "ms"),
    ("oracle.setup_s", "s"),
];

/// The workload names, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 4] = ["tb-stencil-smp", "tb-spread-dist", "mra-k10", "tcp-mesh"];

const USAGE: &str = "usage: perfbench --workload <tb-stencil-smp|tb-spread-dist|mra-k10|tcp-mesh> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, cfg))
}

/// Runs every layer probe at `shape`, with the MRA probes on the first of
/// the seed's Gaussians.
pub fn probe_all(shape: probes::Shape, seed: u64, tracer: &mut trace::Tracer) -> Vec<Metric> {
    let ctx = ttg_mra::tree::MraContext::new(mra::params());
    let f = mra::functions(seed)[0][0];
    probes::run_all(shape, (&ctx, &f), tracer)
}

/// `program args…`'s first output line, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The first `/proc` line starting with `key`, value part, or "unknown".
fn proc_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine and build fingerprint recorded with every result.
fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let on = |b: bool| if b { "on" } else { "off" };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", proc_field("/proc/cpuinfo", "model name")),
        ("cpus_allowed", proc_field("/proc/self/status", "Cpus_allowed_list")),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        (
            "obs-contention",
            on(std::mem::size_of::<ttg_sync::ContentionCounter>() > 0).into(),
        ),
        ("obs-spans", on(std::mem::size_of::<ttg_obs::SpanCell>() > 0).into()),
        ("obs-wire", on(ttg_obs::WIRE_ENABLED).into()),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `listed` metrics in order, 0 for any the workload
/// did not produce.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric], listed: &[(&str, &str)]) -> String {
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = metrics.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(name), json_num(v), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the full report to `.bench_out/`; failures to write are
/// reported but do not fail the run.
fn write_report(workload: &str, cfg: RunConfig, fp: &[(&str, String)], out: &WorkloadOutput, notes: &[String]) {
    let mut doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"fingerprint\": {{{}}},\n\"failures\": [{}],\n\"metrics\": [",
        json_str(workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        fp.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
        notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", ")
    );
    let rows: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    doc.push_str(&rows.join(",\n"));
    doc.push(']');
    if let Some(t) = &out.spans {
        let r = t.report();
        let self_times: Vec<String> = r
            .by_name
            .iter()
            .map(|(name, (n, ns))| format!("{}: {{\"spans\": {n}, \"self_ns\": {ns}}}", json_str(name)))
            .collect();
        doc.push_str(&format!(
            ",\n\"self_time\": {{{}}},\n\"roots\": {}, \"max_residual_ns\": {},\n\"spans\": {}",
            self_times.join(", "),
            r.roots,
            r.max_residual_ns,
            t.to_json()
        ));
    }
    doc.push_str("}\n");
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{}-trace{}.json", cfg.seed, u8::from(cfg.trace)));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Failed ops ÷ attempted ops: wrong outputs, errors and missed
/// deadlines all count as failed.
fn failed_frac(attempted: u64, failed: u64) -> Metric {
    Metric::new("failed_frac", failed as f64 / attempted.max(1) as f64, "ratio")
        .note(format!("{failed} of {attempted} ops"))
}

/// How long every CPU spins before a run measures anything.
const CPU_WARM_UP: Duration = Duration::from_secs(3);

/// Busy-spins one thread per allowed CPU for `d`. On the 2-vCPU VM the
/// numbers in README.md come from, a run that starts after the machine
/// idled for a minute or more ran for tens of seconds in another state:
/// 8 B round trips near 25 µs instead of 47 µs and bursts at 60–70k
/// instead of 110k messages/s. A few seconds of load on every CPU first
/// brings the machine to the state the rest of the runs see.
fn warm_up_cpus(d: Duration) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let end = Instant::now() + d;
    std::thread::scope(|s| {
        for _ in 0..cpus {
            s.spawn(|| {
                let mut x = 1u64;
                while Instant::now() < end {
                    for _ in 0..1000 {
                        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                    }
                }
            });
        }
    });
}

fn run(workload: &str, cfg: RunConfig) -> Result<(WorkloadOutput, Arc<Watch>), Stalled> {
    match workload {
        "tb-stencil-smp" => tb::run(tb::Tb::StencilSmp, cfg),
        "tb-spread-dist" => tb::run(tb::Tb::SpreadDist, cfg),
        "mra-k10" => mra::run(cfg),
        "tcp-mesh" => tcp::run(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let fp = fingerprint();
    let listed = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!("perfbench {workload} seed {} seconds {} trace {}", cfg.seed, cfg.seconds, u8::from(cfg.trace));
    for (k, v) in &fp {
        println!("  {k}: {v}");
    }
    warm_up_cpus(CPU_WARM_UP);
    match run(&workload, cfg) {
        Err(stall) => {
            println!("STALLED: {} missed its deadline", stall.what);
            for n in &stall.notes {
                println!("  failure: {n}");
            }
            // The stalled client thread cannot be joined; exiting ends it.
            let metrics = [failed_frac(stall.attempted, stall.failed)];
            println!("{}", result_line(false, stall.attempted, stall.failed, &metrics, listed));
            std::process::exit(1);
        }
        Ok((mut out, watch)) => {
            let (attempted, failed) = (watch.attempted(), watch.failed());
            out.metrics.push(failed_frac(attempted, failed));
            for line in &out.lines {
                println!("  {line}");
            }
            for m in &out.metrics {
                println!("  metric {} = {} {}  {}", m.name, m.value, m.unit, m.note);
            }
            if let Some(t) = &out.spans {
                let r = t.report();
                for (name, (n, ns)) in &r.by_name {
                    println!("  self time {name}: {:.3} ms over {n} spans", *ns as f64 / 1e6);
                }
                println!(
                    "  spans: {} roots, largest |sum of self times - op wall| = {} ns",
                    r.roots, r.max_residual_ns
                );
            }
            let notes = watch.notes();
            for n in &notes {
                println!("  failure: {n}");
            }
            println!(
                "  ops: {attempted} attempted, {failed} failed; run took {:.2} s",
                started.elapsed().as_secs_f64()
            );
            write_report(&workload, cfg, &fp, &out, &notes);
            let correct = failed == 0;
            println!("{}", result_line(correct, attempted, failed, &out.metrics, listed));
            std::process::exit(if correct { 0 } else { 1 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let (w, c) = parse_args(&args("--workload mra-k10 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "mra-k10");
        assert_eq!((c.seed, c.seconds, c.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload mra-k10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload mra-k10 --seed")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let m = vec![Metric::new("op_ms_p50", 1.25, "ms")];
        let line = result_line(true, 3, 0, &m, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"op_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    /// Every oracle, fed a corrupted output, and a stalled op count in
    /// `failed_frac`; a stall ends the run without hanging it.
    #[test]
    fn corrupted_outputs_and_stalls_count_in_failed_frac() {
        use harness::{supervise, Outcome};
        use ttg_task_bench::{Implementation, Kernel, Pattern, TaskGraph};

        let g = TaskGraph::new(30, 4, Pattern::Stencil1D, Kernel::Empty);
        let tb = oracle::TaskBenchOracle::new(&g);
        let good = Implementation::Serial.build(1).run(&g);
        let mut corrupt = good;
        corrupt.checksum ^= 1;

        let ctx = std::sync::Arc::new(ttg_mra::tree::MraContext::new(ttg_mra::MraParams {
            k: 4,
            eps: 1e-4,
            max_level: 3,
            initial_level: 1,
            domain: (-2.0, 2.0),
        }));
        let f = [ttg_mra::Gaussian3::new([0.2, 0.1, -0.3], 10.0)];
        let mra = oracle::MraOracle::new(vec![ttg_mra::serial::run(&ctx, &f[0])]);
        let rt = std::sync::Arc::new(ttg_runtime::Runtime::new(ttg_runtime::RuntimeConfig::optimized(2)));
        let mut solved = ttg_mra::ttg_pipeline::MraTtg::new(ctx).run(&rt, &f);
        let key = *solved.leaves.keys().next().expect("a leaf");
        solved.leaves.get_mut(&key).expect("leaf").data_mut()[0] += 1e-8;

        let burst = oracle::burst_sum(9, tcp::BURST);
        let (_, watch) = supervise(move |w| {
            let deadline = Duration::from_secs(5);
            w.op("good graph", deadline, || tb.check(&good));
            w.op("graph", deadline, || tb.check(&corrupt));
            w.op("solve", deadline, || mra.check(&solved));
            w.op("ping", deadline, || oracle::check_echo(b"12345678", Some(b"12345679")));
            w.op("burst", deadline, || oracle::check_burst(9, tcp::BURST, burst ^ 4, tcp::BURST));
            w.op("burst", deadline, || oracle::check_burst(9, tcp::BURST, burst, tcp::BURST - 1));
        })
        .expect("no op stalls");
        assert_eq!((watch.attempted(), watch.failed()), (6, 5));
        assert_eq!(failed_frac(watch.attempted(), watch.failed()).value, 5.0 / 6.0);

        let stalled = supervise(|w| {
            w.op("graph", Duration::from_secs(5), || Outcome::Ok);
            w.op("graph", Duration::from_millis(100), || {
                std::thread::sleep(Duration::from_secs(3));
                Outcome::Ok
            });
        })
        .err()
        .expect("the second op stalls");
        assert_eq!((stalled.attempted, stalled.failed), (2, 1));
        let line = result_line(
            false,
            stalled.attempted,
            stalled.failed,
            &[failed_frac(stalled.attempted, stalled.failed)],
            PER_LAYER,
        );
        assert!(line.contains("\"failed_frac\": {\"value\": 0.5, \"unit\": \"ratio\"}"), "{line}");
    }

    /// The metric lists here are the ones BENCHMARK.json declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(doc) = std::fs::read_to_string(path) else {
            return;
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(doc.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks {w}");
        }
    }
}
