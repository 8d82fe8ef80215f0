//! The `tcp-mesh` workload: two ranks of one worker each in this
//! process, connected over loopback TCP, driven by a seeded interleaving
//! of 8 B pings, 64 KiB pings and 20,000-message bursts.

use crate::harness::{end_to_end, supervise, Metric, Outcome, Samples, Stalled, Watch, WorkloadOutput};
use crate::layers::{LayerCounters, Snapshot};
use crate::oracle::{check_burst, check_echo};
use crate::stats::{median, quantile, tail};
use crate::trace::Tracer;
use crate::RunConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{NetConfig, NetRuntime, TcpTransport, Transport};
use ttg_runtime::{Runtime, RuntimeConfig};

/// Messages per burst (the repository's fig13 scatter size).
pub const BURST: u64 = 20_000;
/// Meshes built per run.
const SEGMENTS: usize = 6;
/// Deadline of one ping round trip.
const PING_DEADLINE: Duration = Duration::from_secs(5);
/// Deadline of one burst, send loop to quiescence.
const BURST_DEADLINE: Duration = Duration::from_secs(30);
/// Connect attempts per mesh; a failed bind or dial is retried as set-up.
const CONNECT_ATTEMPTS: usize = 5;

/// Handler ids, registered in this order on both ranks.
const ECHO: u32 = 0;
const REPLY: u32 = 1;
const SINK: u32 = 2;

/// Two connected ranks and the client's view of their handlers.
struct Mesh {
    ranks: Vec<NetRuntime>,
    replies: mpsc::Receiver<Vec<u8>>,
    sum: Arc<AtomicU64>,
}

impl Mesh {
    fn connect(histograms: bool) -> Result<Mesh, String> {
        let (listeners, addrs) = ephemeral_listeners(2).map_err(|e| e.to_string())?;
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    let config = RuntimeConfig {
                        histograms,
                        ..RuntimeConfig::optimized(1)
                    };
                    NetRuntime::over_transport_with(config, &NetConfig::builtin(), rank, 2, |sink| {
                        TcpTransport::with_listener_cfg(rank, listener, &addrs, sink, NetConfig::builtin())
                            .map(|t| t as Arc<dyn Transport>)
                    })
                })
            })
            .collect();
        let mut ranks = Vec::new();
        for h in handles {
            ranks.push(
                h.join()
                    .map_err(|_| "connect thread panicked".to_string())?
                    .map_err(|e| e.to_string())?,
            );
        }
        let (tx, replies) = mpsc::channel();
        let tx = Arc::new(Mutex::new(tx));
        let sum = Arc::new(AtomicU64::new(0));
        for rank in &ranks {
            let rt = rank.runtime();
            let echo = rt.register_handler(|ctx, payload| ctx.send_msg(0, 0, REPLY, payload));
            let tx = Arc::clone(&tx);
            let reply = rt.register_handler(move |_ctx, payload| {
                // The client may have given up on a late reply.
                let _ = tx.lock().expect("reply channel lock").send(payload);
            });
            let s = Arc::clone(&sum);
            let sink = rt.register_handler(move |_ctx, payload| {
                let v = u64::from_le_bytes(payload[..8].try_into().expect("8-byte burst message"));
                s.fetch_add(v, Ordering::Relaxed);
            });
            assert_eq!((echo, reply, sink), (ECHO, REPLY, SINK), "handler ids");
        }
        Ok(Mesh { ranks, replies, sum })
    }

    fn rt(&self, rank: usize) -> &Runtime {
        self.ranks[rank].runtime()
    }

    fn runtimes(&self) -> Vec<&Runtime> {
        self.ranks.iter().map(|r| r.runtime()).collect()
    }

    /// One round trip of `payload` from the client through rank 0 to
    /// rank 1 and back. Returns the outcome, the `send_msg` and
    /// round-trip times (ns) and the check time (ms).
    fn ping(&self, payload: &[u8], tracer: &mut Tracer) -> (Outcome, f64, f64, f64) {
        let msg = payload.to_vec();
        let start = Instant::now();
        tracer.span("Runtime::send_msg", |_| self.rt(0).send_msg(1, 0, ECHO, msg));
        let send_ns = start.elapsed().as_nanos() as f64;
        let reply = tracer.span("reply wait", |_| self.replies.recv_timeout(PING_DEADLINE).ok());
        let rtt_ns = start.elapsed().as_nanos() as f64;
        let check = Instant::now();
        let out = tracer.span("oracle.check", |_| check_echo(payload, reply.as_deref()));
        (out, send_ns, rtt_ns, check.elapsed().as_secs_f64() * 1e3)
    }

    /// `n` messages rank 0 → rank 1 carrying `base + i`, then fence and
    /// wait on both ranks. Returns the outcome and the send-loop and
    /// whole-burst times, ns.
    fn burst(&self, base: u64, n: u64, tracer: &mut Tracer) -> (Outcome, f64, f64) {
        let sum0 = self.sum.load(Ordering::SeqCst);
        let recv0 = self.rt(1).stats().messages_received;
        let start = Instant::now();
        tracer.span("burst send loop", |_| {
            for i in 0..n {
                let payload = base.wrapping_add(i).to_le_bytes().to_vec();
                self.rt(0).send_msg(1, 0, SINK, payload);
            }
        });
        let send_ns = start.elapsed().as_nanos() as f64;
        tracer.span("fence", |_| {
            for r in &self.ranks {
                r.fence();
            }
        });
        let waited = tracer.span("wait", |_| {
            self.ranks
                .iter()
                .map(|r| r.run())
                .collect::<Result<Vec<_>, _>>()
        });
        let burst_ns = start.elapsed().as_nanos() as f64;
        let outcome = tracer.span("oracle.check", |_| match waited {
            Err(e) => Outcome::Error(format!("wait: {e}")),
            Ok(_) => check_burst(
                base,
                n,
                self.sum.load(Ordering::SeqCst).wrapping_sub(sum0),
                self.rt(1).stats().messages_received - recv0,
            ),
        });
        (outcome, send_ns, burst_ns)
    }

    fn shutdown(self) {
        for r in &self.ranks {
            r.shutdown();
        }
    }
}

/// Seeded payload of `len` bytes.
fn payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(len + 8);
    while p.len() < len {
        p.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    p.truncate(len);
    p
}

/// The op kinds of the interleaving.
#[derive(Clone, Copy)]
enum Op {
    Ping8,
    Ping64k,
    Burst,
}

fn next_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..1000u32) {
        0..=19 => Op::Burst,
        20..=199 => Op::Ping64k,
        _ => Op::Ping8,
    }
}

/// Connects a mesh, retrying failed binds and dials.
fn connect(histograms: bool) -> Mesh {
    let mut last = String::new();
    for _ in 0..CONNECT_ATTEMPTS {
        match Mesh::connect(histograms) {
            Ok(m) => return m,
            Err(e) => last = e,
        }
    }
    panic!("loopback TCP mesh did not connect in {CONNECT_ATTEMPTS} attempts: {last}");
}

/// Runs the workload.
pub fn run(cfg: RunConfig) -> Result<(WorkloadOutput, Arc<Watch>), Stalled> {
    supervise(move |watch| {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut tracer = Tracer::new(cfg.trace);
        let mut s = Samples::default();
        let mut counters = LayerCounters::default();
        let mut burst_counts = Snapshot::default();
        let seg_time = cfg.seconds / SEGMENTS as f64;
        let mut per_mesh = Vec::new();
        for seg in 0..SEGMENTS {
            let traced = cfg.trace && seg % 2 == 1;
            tracer.set_enabled(traced);
            let setup = Instant::now();
            let mesh = connect(traced);
            for len in [8, 8, 8, 8, 65536] {
                let p = payload(&mut rng, len);
                watch.op("warm-up ping", PING_DEADLINE * 2, || mesh.ping(&p, &mut tracer).0);
            }
            let base = rng.next_u64();
            watch.op("warm-up burst", BURST_DEADLINE, || mesh.burst(base, BURST / 10, &mut tracer).0);
            s.push("setup_s", setup.elapsed().as_secs_f64());
            let end = Instant::now() + Duration::from_secs_f64(seg_time);
            let suffix = |name: &'static str, traced_name: &'static str| if traced { traced_name } else { name };
            let bursts_before = s.get(suffix("burst_ms", "burst_ms_traced")).len();
            let pings_before = s.get(suffix("rtt8_us", "rtt8_us_traced")).len();
            while Instant::now() < end {
                let op = next_op(&mut rng);
                let before = traced.then(|| Snapshot::take(&mesh.runtimes()));
                let op_start = Instant::now();
                match op {
                    Op::Ping8 | Op::Ping64k => {
                        let (len, name) = match op {
                            Op::Ping8 => (8, "ping8"),
                            _ => (65536, "ping64k"),
                        };
                        let p = payload(&mut rng, len);
                        let mut times = (0.0, 0.0);
                        watch.op(name, PING_DEADLINE * 2, || {
                            tracer.root(name, |t| {
                                let (out, send, rtt, check_ms) = mesh.ping(&p, t);
                                times = (send, rtt);
                                s.push("check_ms", check_ms);
                                out
                            })
                        });
                        let (send_us, rtt_us) = (times.0 / 1e3, times.1 / 1e3);
                        if len == 8 {
                            s.push(suffix("rtt8_us", "rtt8_us_traced"), rtt_us);
                            s.push(suffix("send8_us", "send8_us_traced"), send_us);
                        } else {
                            s.push(suffix("rtt64k_us", "rtt64k_us_traced"), rtt_us);
                            s.push(suffix("send64k_us", "send64k_us_traced"), send_us);
                        }
                    }
                    Op::Burst => {
                        let base = rng.next_u64();
                        let mut times = (0.0, 0.0);
                        watch.op("burst", BURST_DEADLINE, || {
                            tracer.root("burst", |t| {
                                let (out, send, all) = mesh.burst(base, BURST, t);
                                times = (send, all);
                                out
                            })
                        });
                        let (send_ms, burst_ms) = (times.0 / 1e6, times.1 / 1e6);
                        s.push(suffix("burst_ms", "burst_ms_traced"), burst_ms);
                        s.push(suffix("burst_send_ms", "burst_send_ms_traced"), send_ms);
                        s.push(suffix("burst_quiesce_ms", "burst_quiesce_ms_traced"), burst_ms - send_ms);
                        if let Some(b) = &before {
                            burst_counts.add(&b.delta(&Snapshot::take(&mesh.runtimes())));
                        }
                    }
                }
                s.push(
                    suffix("op_ms_untraced", "op_ms_traced"),
                    op_start.elapsed().as_secs_f64() * 1e3,
                );
                if let Some(b) = before {
                    let wall = op_start.elapsed().as_nanos() as f64;
                    counters.add(&b.delta(&Snapshot::take(&mesh.runtimes())), wall, 2);
                }
            }
            mesh.shutdown();
            let b = &s.get(suffix("burst_ms", "burst_ms_traced"))[bursts_before..];
            let r = &s.get(suffix("rtt8_us", "rtt8_us_traced"))[pings_before..];
            per_mesh.push(format!(
                "mesh {seg}: rtt8 p50 {:.1} us; burst ms in order [{}]",
                median(r),
                b.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(" ")
            ));
        }
        tracer.set_enabled(cfg.trace);
        let mut out = report(cfg, s, counters, burst_counts, tracer);
        out.lines.extend(per_mesh);
        out
    })
}

fn report(
    cfg: RunConfig,
    s: Samples,
    counters: LayerCounters,
    bursts: Snapshot,
    mut tracer: Tracer,
) -> WorkloadOutput {
    let mut out = WorkloadOutput::default();
    if !cfg.trace {
        let rtt8_ms: Vec<f64> = s.get("rtt8_us").iter().map(|us| us / 1e3).collect();
        let burst_ms = s.get("burst_ms");
        let burst_s = burst_ms.iter().sum::<f64>() / 1e3;
        let msgs = BURST as f64 * burst_ms.len() as f64;
        let t8 = tail(s.get("rtt8_us"));
        out.metrics = end_to_end(s.get("setup_s"), &rtt8_ms, "8 B round trip", msgs, burst_s, "burst messages");
        out.metrics.extend([
            Metric::new("rtt8_us_p50", median(s.get("rtt8_us")), "us"),
            Metric::new("rtt8_us_tail", t8.value, "us").note(t8.label()),
            Metric::new("rtt64k_us_p50", median(s.get("rtt64k_us")), "us")
                .note(format!("{} pings", s.get("rtt64k_us").len())),
            Metric::new("burst_msgs_per_s", msgs / burst_s.max(1e-9), "msg/s").note(format!(
                "{} bursts, p10/p50/p90 {:.0}/{:.0}/{:.0} ms",
                burst_ms.len(),
                quantile(burst_ms, 0.1),
                quantile(burst_ms, 0.5),
                quantile(burst_ms, 0.9)
            )),
        ]);
        return out;
    }
    let n_bursts = s.get("burst_ms_traced").len().max(1) as f64;
    let send8 = median(s.get("send8_us_traced"));
    let quiesce = s.get("burst_quiesce_ms_traced");
    let tq = tail(quiesce);
    let all_bursts: Vec<f64> = [s.get("burst_ms"), s.get("burst_ms_traced")].concat();
    let p10 = quantile(&all_bursts, 0.10);
    let slow = all_bursts.iter().filter(|&&b| b > 3.0 * p10).count();
    out.metrics = counters.metrics(counters.sum.get("tasks"));
    out.metrics.extend([
        Metric::new("net.rtt64k_us_p50", median(s.get("rtt64k_us")), "us")
            .note(format!("{} untraced pings", s.get("rtt64k_us").len())),
        Metric::new("net.send_msg_us_p50_8b", send8, "us"),
        Metric::new("net.send_msg_us_p50_64k", median(s.get("send64k_us_traced")), "us"),
        Metric::new(
            "net.rtt8_residual_us",
            median(s.get("rtt8_us_traced")) - 2.0 * send8,
            "us",
        )
        .note("traced rtt8 p50 - 2 x send_msg p50"),
        Metric::new("net.burst_send_ms_p50", median(s.get("burst_send_ms_traced")), "ms"),
        Metric::new("net.burst_quiesce_ms_p50", median(quiesce), "ms"),
        Metric::new("net.burst_quiesce_ms_tail", tq.value, "ms")
            .note(format!("p{} of {} bursts", tq.pct, tq.samples)),
        Metric::new("net.slow_burst_frac", slow as f64 / all_bursts.len().max(1) as f64, "ratio")
            .note(format!("{slow} of {} bursts over 3 x p10 ({p10:.1} ms)", all_bursts.len())),
        Metric::new("net.heartbeats_per_burst", bursts.get("heartbeats_sent") as f64 / n_bursts, "count"),
        Metric::new(
            "termdet.wave_contributions_per_burst",
            bursts.get("wave_contributions") as f64 / n_bursts,
            "count",
        ),
    ]);
    out.metrics.extend(crate::tb::overhead_and_oracle(&s, 0.0));
    out.metrics.extend(crate::probe_all(crate::probes::Shape { live_keys: 4 }, cfg.seed, &mut tracer));
    out.spans = Some(tracer);
    out
}
