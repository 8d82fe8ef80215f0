//! Layer probes: timed calls into each crate's public API at a
//! workload's shapes. Every probe times batches of calls and reports the
//! median batch (ns or µs per call), its tail and the batch count.

use crate::harness::Metric;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};
use ttg_hashtable::{HashTableOptions, LockKind, ScalableHashTable};
use ttg_mempool::FreeListPool;
use ttg_mra::tree::MraContext;
use ttg_mra::{BoxKey, Gaussian3, Tensor3};
use ttg_net::frame::{crc32, Decoded};
use ttg_net::Frame;
use ttg_sync::rwspin::RawRwSpinLock;
use ttg_sync::{BravoRwLock, OrderingPolicy};
use ttg_termdet::{LocalTermination, TermDetKind};

/// The workload-dependent sizes the probes run at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Live keys in the task-matching hash table while the workload runs.
    pub live_keys: usize,
}

/// Time spent per probe variant.
const BUDGET: Duration = Duration::from_millis(80);
/// Fewest batches a probe takes, whatever the budget.
const MIN_BATCHES: usize = 30;

/// Per-call times (ns) of consecutive batches of `batch` calls.
fn batches(batch: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut out = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < BUDGET || out.len() < MIN_BATCHES {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        out.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    out
}

/// [`batches`] on `threads` threads at once, one closure per thread
/// (built by `make(thread)`); the samples of all threads together.
fn on_threads<F: FnMut(usize) + Send>(threads: usize, batch: usize, make: impl Fn(usize) -> F) -> Vec<f64> {
    let barrier = Barrier::new(threads);
    let fs: Vec<F> = (0..threads).map(make).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = fs
            .into_iter()
            .map(|f| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    batches(batch, f)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread"))
            .collect()
    })
}

/// A metric from per-call samples, scaled by `scale` (1 for ns, 1e-3 for
/// µs), noting the tail and sample count.
fn summarize(name: &str, samples: &[f64], scale: f64, unit: &'static str) -> Metric {
    let t = tail(samples);
    Metric::new(name, median(samples) * scale, unit).note(format!(
        "{} batches: {:.4} {unit}",
        t.label(),
        t.value * scale
    ))
}

fn termdet(threads: usize) -> Vec<f64> {
    let td = LocalTermination::new(TermDetKind::ThreadLocal, OrderingPolicy::Relaxed, threads);
    let td = &td;
    on_threads(threads, 4096, |w| {
        move |i| {
            td.task_discovered(Some(w));
            td.task_executed(Some(w));
            if i % 64 == 63 {
                td.flush(w);
            }
        }
    })
}

fn hashtable(threads: usize, live: usize) -> Vec<f64> {
    let table: ScalableHashTable<(u32, u32), u64> = ScalableHashTable::with_options(HashTableOptions {
        lock: LockKind::Bravo,
        bravo_slots: threads,
        ..HashTableOptions::default()
    });
    let live = live.max(1);
    for w in 0..threads as u32 {
        for j in 0..live as u32 {
            table.insert((w, j), j as u64);
        }
    }
    let table = &table;
    on_threads(threads, 1024, |w| {
        move |i| {
            let w = w as u32;
            let key = (w, (live + i) as u32);
            table.insert(key, i as u64);
            assert!(table.lock_bucket(key).find().is_some());
            black_box(table.remove(&(w, i as u32)));
        }
    })
}

fn bravo_read() -> Vec<f64> {
    let lock = BravoRwLock::new(7u64);
    batches(4096, |_| {
        black_box(*lock.read());
    })
}

/// Writes that each revoke the reader bias: reads until the bias is back
/// on, then times one `write()`.
fn bravo_write() -> Vec<f64> {
    let lock = BravoRwLock::new(7u64);
    let mut out = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || out.len() < MIN_BATCHES {
        let spin_until = Instant::now() + Duration::from_millis(5);
        while !lock.bias_enabled() && Instant::now() < spin_until {
            black_box(*lock.read());
        }
        let t = Instant::now();
        *lock.write() += 1;
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

/// Longest a probe writer waits before it gives up on one acquire.
const WRITER_GIVE_UP: Duration = Duration::from_millis(20);

/// Writer wait (ns) on the raw reader-writer spin lock while another
/// thread takes and drops read locks in a loop. Returns the waits and
/// the number of acquires that hit [`WRITER_GIVE_UP`].
fn rwspin_writer_wait() -> (Vec<f64>, usize) {
    let lock = RawRwSpinLock::new();
    let stop = AtomicBool::new(false);
    let started = Barrier::new(2);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            started.wait();
            while !stop.load(Ordering::Relaxed) {
                lock.lock_shared();
                black_box(lock.reader_count());
                lock.unlock_shared();
            }
        });
        started.wait();
        let mut waits = Vec::new();
        let mut gave_up = 0;
        let begin = Instant::now();
        while begin.elapsed() < BUDGET * 2 || waits.len() < MIN_BATCHES {
            let t = Instant::now();
            loop {
                if lock.try_lock_exclusive() {
                    lock.unlock_exclusive();
                    break;
                }
                if t.elapsed() > WRITER_GIVE_UP {
                    gave_up += 1;
                    break;
                }
                std::hint::spin_loop();
            }
            waits.push(t.elapsed().as_nanos() as f64);
            std::thread::sleep(Duration::from_micros(50));
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread");
        (waits, gave_up)
    })
}

fn mempool_alloc_free() -> Vec<f64> {
    let pool: FreeListPool<[u64; 8]> = FreeListPool::new(2);
    batches(4096, |i| {
        black_box(pool.alloc([i as u64; 8]));
    })
}

/// Per-box time (ns) of freeing on one thread boxes allocated on the
/// other.
fn mempool_remote_free() -> Vec<f64> {
    const BATCH: usize = 256;
    let pool: FreeListPool<[u64; 8]> = FreeListPool::new(2);
    let (to_freer, inbox) = mpsc::channel::<Vec<_>>();
    let (timing, times) = mpsc::channel::<f64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for boxes in inbox {
                let t = Instant::now();
                drop(boxes);
                timing
                    .send(t.elapsed().as_nanos() as f64 / BATCH as f64)
                    .expect("probe main thread waits");
            }
        });
        let mut out = Vec::new();
        let start = Instant::now();
        while start.elapsed() < BUDGET || out.len() < MIN_BATCHES {
            let boxes: Vec<_> = (0..BATCH).map(|i| pool.alloc([i as u64; 8])).collect();
            to_freer.send(boxes).expect("freeing thread runs");
            out.push(times.recv().expect("freeing thread replies"));
        }
        drop(to_freer);
        out
    })
}

fn encode(len: usize) -> Vec<f64> {
    let frame = Frame::data(3, 0, vec![0x5a; len]);
    let mut buf = Vec::new();
    batches(if len > 1024 { 16 } else { 4096 }, |_| {
        buf.clear();
        frame.encode_into(&mut buf);
        black_box(&buf);
    })
}

fn decode(len: usize) -> Vec<f64> {
    let frame = Frame::data(3, 0, vec![0x5a; len]);
    let mut buf = Vec::new();
    frame.encode_into(&mut buf);
    match Frame::read_from(&mut &buf[..]) {
        Ok(Decoded::Frame(f)) => assert_eq!(f, frame, "decode probe round trip"),
        other => panic!("decode probe: {other:?}"),
    }
    batches(if len > 1024 { 16 } else { 4096 }, |_| {
        black_box(Frame::read_from(&mut &buf[..]).expect("in-memory read"));
    })
}

fn crc_per_kib() -> Vec<f64> {
    let bytes = vec![0xa5u8; 64 * 1024];
    batches(4, |_| {
        black_box(crc32(&bytes));
    })
    .into_iter()
    .map(|ns| ns / 64.0)
    .collect()
}

/// An MRA context and a box near `f`'s centre at level 3.
fn mra_setup(ctx: &MraContext, f: &Gaussian3) -> BoxKey {
    let (lo, hi) = ctx.params.domain;
    let cell = |x: f64| (((x - lo) / (hi - lo) * 8.0) as u32).min(7);
    BoxKey {
        n: 3,
        l: [cell(f.center[0]), cell(f.center[1]), cell(f.center[2])],
    }
}

/// Runs every probe, each inside its own root span.
pub fn run_all(shape: Shape, mra: (&MraContext, &Gaussian3), tracer: &mut Tracer) -> Vec<Metric> {
    let mut m = Vec::new();
    for threads in [1, 2] {
        let name = format!("termdet.discover_execute_ns_{threads}t");
        m.push(tracer.root("probe.termdet", |_| summarize(&name, &termdet(threads), 1.0, "ns")));
        let name = format!("hashtable.insert_find_remove_ns_{threads}t");
        m.push(tracer.root("probe.hashtable", |_| {
            summarize(&name, &hashtable(threads, shape.live_keys), 1.0, "ns")
        }));
    }
    m.push(tracer.root("probe.sync", |_| summarize("sync.bravo_read_ns", &bravo_read(), 1.0, "ns")));
    m.push(tracer.root("probe.sync", |_| summarize("sync.bravo_write_ns", &bravo_write(), 1.0, "ns")));
    let (waits, gave_up) = tracer.root("probe.sync", |_| rwspin_writer_wait());
    let t = tail(&waits);
    m.push(
        Metric::new("sync.rwspin_writer_wait_us_p99", crate::stats::quantile(&waits, 0.99) / 1e3, "us")
            .note(format!(
                "p50 {:.3} us, {} acquires, {gave_up} gave up after {} ms, {}: {:.3} us",
                median(&waits) / 1e3,
                waits.len(),
                WRITER_GIVE_UP.as_millis(),
                t.label(),
                t.value / 1e3
            )),
    );
    m.push(tracer.root("probe.mempool", |_| {
        summarize("mempool.alloc_free_ns_1t", &mempool_alloc_free(), 1.0, "ns")
    }));
    m.push(tracer.root("probe.mempool", |_| {
        summarize("mempool.remote_free_ns", &mempool_remote_free(), 1.0, "ns")
    }));
    m.push(tracer.root("probe.net", |_| summarize("net.encode_ns_8b", &encode(8), 1.0, "ns")));
    m.push(tracer.root("probe.net", |_| summarize("net.encode_us_64k", &encode(65536), 1e-3, "us")));
    m.push(tracer.root("probe.net", |_| summarize("net.decode_ns_8b", &decode(8), 1.0, "ns")));
    m.push(tracer.root("probe.net", |_| summarize("net.decode_us_64k", &decode(65536), 1e-3, "us")));
    m.push(tracer.root("probe.net", |_| summarize("net.crc32_ns_per_kib", &crc_per_kib(), 1.0, "ns")));
    let (ctx, f) = mra;
    let key = mra_setup(ctx, f);
    let children: [Tensor3; 8] = key.children().map(|c| ctx.project_box(f, &c));
    let parent = ctx.filter(&children);
    m.push(tracer.root("probe.mra", |_| {
        summarize("mra.project_box_us", &batches(4, |_| {
            black_box(ctx.project_box(f, &key));
        }), 1e-3, "us")
    }));
    m.push(tracer.root("probe.mra", |_| {
        summarize("mra.filter_us", &batches(2, |_| {
            black_box(ctx.filter(&children));
        }), 1e-3, "us")
    }));
    m.push(tracer.root("probe.mra", |_| {
        summarize("mra.unfilter_child_us", &batches(8, |i| {
            black_box(ctx.unfilter_child(&parent, i % 8));
        }), 1e-3, "us")
    }));
    m
}
