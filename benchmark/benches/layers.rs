//! Micro-drivers: one public entry point of one layer per row, called in
//! a tight loop and timed from outside. Each row is the median of five
//! batches; allocation rows come from one further batch under the
//! counting allocator. They say what a layer costs alone; the workloads
//! say whether that cost reaches a user.

use crate::alloc;
use crate::inputs;
use crate::stats::median;
use crate::Metrics;
use bytes::{Bytes, BytesMut};
use minimr::jobs::WordCount;
use minimr::netagg::CombinerAgg;
use minimr::seqfile;
use minisearch::score::{ScoredDoc, SearchResults};
use netagg_core::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use netagg_core::aggbox::tree::LocalAggTree;
use netagg_core::ledger::FanInLedger;
use netagg_core::prelude::*;
use netagg_core::protocol::{Message, SourceId};
use netagg_net::framing::{encode_frame, FrameDecoder};
use netagg_net::lifecycle::{CancelToken, JoinScope, Mailbox, OverflowPolicy};
use netagg_net::{
    ChannelTransport, Connection, DetRng, FaultController, FaultTransport, MeteredTransport,
    TcpTransport, Transport,
};
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::MetricsRegistry;
use netagg_sim::events::{CalendarQueue, Event};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

/// Nanoseconds per operation of `batch(n)` (which performs `n`
/// operations): `n` is grown until one batch fills a fifth of `budget`,
/// then the median of [`BATCHES`] batches is taken. Also returns `n`.
fn ns_per_op(budget: Duration, mut batch: impl FnMut(u64)) -> (f64, u64) {
    let target = budget.as_nanos() as f64 / (BATCHES as f64 + 1.0);
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        batch(n);
        let took = t.elapsed().as_nanos() as f64;
        if took >= target / 2.0 || n >= 1 << 30 {
            break;
        }
        n = if took < target / 64.0 {
            n * 16
        } else {
            ((n as f64 * target / took.max(1.0)) as u64).max(n + 1)
        };
    }
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(n);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    (median(&mut per_op), n)
}

/// Allocations per operation of one further `batch(n)`.
fn allocs_per_op(n: u64, mut batch: impl FnMut(u64)) -> f64 {
    let ((), allocs, _) = alloc::counted(|| batch(n));
    allocs as f64 / n as f64
}

/// Integer sum over decimal payloads: the cheapest combiner, so the tree
/// micro-driver measures the tree and not the function.
struct SumAgg;

impl AggregationFunction for SumAgg {
    type Item = u64;

    fn deserialize(&self, payload: &Bytes) -> Result<u64, AggError> {
        std::str::from_utf8(payload)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| AggError::Corrupt("not a decimal integer".into()))
    }

    fn serialize(&self, item: &u64) -> Bytes {
        Bytes::from(item.to_string())
    }

    fn aggregate(&self, items: Vec<u64>) -> u64 {
        items.into_iter().sum()
    }

    fn empty(&self) -> u64 {
        0
    }
}

/// Run every micro-driver, spending about `budget` in total.
pub fn run(m: &mut Metrics, budget: Duration) {
    // 36 timed rows share the budget; the stream and tree rows move more
    // data per operation and get a double share.
    let each = budget / 40;
    framing(m, each);
    mailbox(m, each);
    transports(m, each);
    decorators(m, each);
    protocol(m, each);
    ledger(m, each);
    scheduler(m, each);
    trees(m, each);
    obs(m, each);
    apps(m, each);
    sim(m, each);
}

fn framing(m: &mut Metrics, each: Duration) {
    let small = [0xabu8; 64];
    let mut buf = BytesMut::with_capacity(1 << 20);
    let encode = |buf: &mut BytesMut, n: u64| {
        for i in 0..n {
            if i % 4096 == 0 {
                buf.clear();
            }
            encode_frame(black_box(&small), buf).expect("frame fits");
        }
    };
    let (ns, _) = ns_per_op(each, |n| encode(&mut buf, n));
    m.set("net.framing.encode_ns", ns);

    // One wire chunk of 256 small frames, decoded frame by frame.
    buf.clear();
    for _ in 0..256 {
        encode_frame(&small, &mut buf).expect("frame fits");
    }
    let chunk = Bytes::copy_from_slice(&buf);
    let decode = |chunk: &Bytes, n: u64| {
        let mut dec = FrameDecoder::new();
        let mut left = n;
        while left > 0 {
            dec.feed_bytes(chunk.clone());
            while let Some(f) = dec.next_frame().expect("well-formed") {
                black_box(f);
                left = left.saturating_sub(1);
            }
        }
    };
    let (ns, n) = ns_per_op(each, |n| decode(&chunk, n));
    m.set("net.framing.decode_ns", ns);
    let enc_allocs = allocs_per_op(n, |n| encode(&mut buf, n));
    let dec_allocs = allocs_per_op(n, |n| decode(&chunk, n));
    m.set("net.framing.allocs_per_frame", enc_allocs + dec_allocs);

    let big = vec![0x5au8; 64 * 1024];
    buf.clear();
    for _ in 0..8 {
        encode_frame(&big, &mut buf).expect("frame fits");
    }
    let chunk = Bytes::copy_from_slice(&buf);
    let (ns, _) = ns_per_op(each, |n| {
        let mut dec = FrameDecoder::new();
        for _ in 0..n {
            dec.feed_bytes(chunk.clone());
            while let Some(f) = dec.next_frame().expect("well-formed") {
                black_box(f);
            }
        }
    });
    m.set(
        "net.framing.decode_mb_per_s",
        chunk.len() as f64 / ns * 1e9 / 1e6,
    );
}

fn mailbox(m: &mut Metrics, each: Duration) {
    let mb: Mailbox<u64> = Mailbox::new(
        "bench.micro",
        1024,
        OverflowPolicy::Block,
        CancelToken::new(),
    );
    let (ns, _) = ns_per_op(each, |n| {
        for i in 0..n {
            mb.send(i).expect("open");
            black_box(mb.recv().expect("open"));
        }
    });
    m.set("net.mailbox.send_recv_ns", ns);

    // Cross-thread ping-pong: one hop is half a round trip.
    let cancel = CancelToken::new();
    let ping: Mailbox<u64> = Mailbox::new("bench.ping", 4, OverflowPolicy::Block, cancel.clone());
    let pong: Mailbox<u64> = Mailbox::new("bench.pong", 4, OverflowPolicy::Block, cancel.clone());
    let scope = JoinScope::new("bench-mailbox", cancel, Duration::from_secs(10));
    {
        let (ping, pong) = (ping.clone(), pong.clone());
        scope
            .spawn("bench-mailbox-echo", move || {
                while let Ok(v) = ping.recv() {
                    if pong.send(v).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn echo");
    }
    let (ns, _) = ns_per_op(each, |n| {
        for i in 0..n {
            ping.send(i).expect("open");
            black_box(pong.recv().expect("open"));
        }
    });
    m.set("net.mailbox.hop_us", ns / 2.0 / 1e3);
    scope.finish();
}

/// An echo peer at address 1 and a connection to it from address 2. The
/// peer answers every small frame and acknowledges each run of large
/// frames with one small frame once `stream_frames` of them arrived.
fn echo_pair(
    transport: Arc<dyn Transport>,
    scope: &JoinScope,
    stream_frames: Arc<AtomicU64>,
) -> Box<dyn Connection> {
    let mut listener = transport.bind(1).expect("bind echo");
    let cancel = scope.cancel_token().clone();
    scope
        .spawn("bench-echo", move || {
            let Ok(mut conn) = listener.accept_cancellable(&cancel) else {
                return;
            };
            let mut large = 0u64;
            while let Ok(frame) = conn.recv_cancellable(&cancel) {
                if frame.len() <= 64 {
                    if conn.send(frame).is_err() {
                        return;
                    }
                } else {
                    large += 1;
                    if large == stream_frames.load(Ordering::Relaxed) {
                        large = 0;
                        if conn.send(Bytes::from_static(b"ack")).is_err() {
                            return;
                        }
                    }
                }
            }
        })
        .expect("spawn echo");
    transport.connect(2, 1).expect("connect echo")
}

fn transports(m: &mut Metrics, each: Duration) {
    let kinds: [(&str, Arc<dyn Transport>); 2] = [
        ("channel", Arc::new(ChannelTransport::new())),
        ("tcp", Arc::new(TcpTransport::new())),
    ];
    for (label, transport) in kinds {
        let scope = JoinScope::new("bench-echo", CancelToken::new(), Duration::from_secs(10));
        let stream_frames = Arc::new(AtomicU64::new(0));
        let mut conn = echo_pair(transport.clone(), &scope, stream_frames.clone());
        let small = Bytes::from_static(&[7u8; 64]);
        let mut rtt = |n: u64| {
            for _ in 0..n {
                conn.send(small.clone()).expect("echo up");
                black_box(conn.recv().expect("echo up"));
            }
        };
        let (ns, n) = ns_per_op(each, &mut rtt);
        m.set(&format!("net.{label}.rtt_us"), ns / 1e3);
        // Two frames cross per round trip.
        m.set(
            &format!("net.{label}.allocs_per_frame"),
            allocs_per_op(n, &mut rtt) / 2.0,
        );

        let big = Bytes::from(vec![0x5au8; 64 * 1024]);
        let (ns, _) = ns_per_op(each * 2, |n| {
            stream_frames.store(n, Ordering::Relaxed);
            for _ in 0..n {
                conn.send(big.clone()).expect("echo up");
            }
            black_box(conn.recv().expect("echo up"));
        });
        m.set(
            &format!("net.{label}.stream_mb_per_s"),
            big.len() as f64 / ns * 1e9 / 1e6,
        );
        drop(conn);
        scope.finish();
    }
}

/// Median nanoseconds of one 64-byte `send` on `transport` (channel
/// underneath): runs of sends are timed, the drain in between is not.
fn send_ns(transport: &dyn Transport, each: Duration) -> f64 {
    const RUN: u64 = 128;
    let mut listener = transport.bind(1).expect("bind");
    let mut tx = transport.connect(2, 1).expect("connect");
    let mut rx = listener.accept().expect("accept");
    let small = Bytes::from_static(&[7u8; 64]);
    let mut runs = Vec::new();
    let until = Instant::now() + each;
    while Instant::now() < until {
        let t = Instant::now();
        for _ in 0..RUN {
            tx.send(small.clone()).expect("peer up");
        }
        runs.push(t.elapsed().as_nanos() as f64 / RUN as f64);
        for _ in 0..RUN {
            black_box(rx.recv().expect("peer up"));
        }
    }
    median(&mut runs)
}

fn decorators(m: &mut Metrics, each: Duration) {
    let bare = send_ns(&ChannelTransport::new(), each);
    let metered = send_ns(
        &MeteredTransport::new(Arc::new(ChannelTransport::new()), MetricsRegistry::new()),
        each,
    );
    let fault = send_ns(
        &FaultTransport::new(ChannelTransport::new(), FaultController::new()),
        each,
    );
    m.set("net.metered.added_ns", metered - bare);
    m.set("net.fault.added_ns", fault - bare);
}

fn protocol(m: &mut Metrics, each: Duration) {
    let msg = Message::Data {
        app: AppId(1),
        request: RequestId(42),
        tree: TreeId(0),
        source: SourceId::Worker(3),
        seq: 0,
        last: true,
        ctx: TraceCtx::NONE,
        sent_ns: 0,
        payload: Bytes::from_static(b"123"),
    };
    let encode = |n: u64| {
        for _ in 0..n {
            black_box(black_box(&msg).encode());
        }
    };
    let (ns, n) = ns_per_op(each, encode);
    m.set("core.protocol.encode_ns", ns);
    let wire = msg.encode();
    let decode = |n: u64| {
        for _ in 0..n {
            black_box(Message::decode(wire.clone()).expect("round trip"));
        }
    };
    let (ns, _) = ns_per_op(each, decode);
    m.set("core.protocol.decode_ns", ns);
    m.set(
        "core.protocol.allocs_per_msg",
        allocs_per_op(n, encode) + allocs_per_op(n, decode),
    );
}

fn ledger(m: &mut Metrics, each: Duration) {
    let workers: Vec<SourceId> = (0..4).map(SourceId::Worker).collect();
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            let mut l = FanInLedger::new(workers.iter().copied());
            for &w in &workers {
                black_box(l.accept_chunk(w, 0));
                black_box(l.note_end(w));
            }
            black_box(l.is_complete());
        }
    });
    m.set("core.ledger.chunk_ns", ns / 4.0);
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            let mut l = FanInLedger::new([SourceId::Box(0), SourceId::Worker(9)]);
            black_box(l.repoint(SourceId::Box(0), &workers));
        }
    });
    m.set("core.ledger.repoint_ns", ns);
}

fn scheduler(m: &mut Metrics, each: Duration) {
    let sched = TaskScheduler::new(SchedulerConfig::default());
    sched.register_app(AppId(0), 1.0);
    let started = Arc::new(AtomicU64::new(0));
    let mut waits = Vec::new();
    let until = Instant::now() + each;
    while Instant::now() < until {
        let slot = started.clone();
        let t0 = trace::now_ns();
        sched.submit(
            AppId(0),
            Box::new(move || slot.store(trace::now_ns(), Ordering::SeqCst)),
        );
        assert!(sched.wait_idle(Duration::from_secs(10)), "scheduler hung");
        waits.push(started.load(Ordering::SeqCst).saturating_sub(t0) as f64);
    }
    m.set("core.scheduler.dispatch_us", median(&mut waits) / 1e3);

    for (row, apps) in [
        ("core.scheduler.tasks_per_s", &[1.0][..]),
        ("core.scheduler.wfq_tasks_per_s", &[2.0, 1.0, 1.0][..]),
    ] {
        let sched = TaskScheduler::new(SchedulerConfig::default());
        for (a, &share) in apps.iter().enumerate() {
            sched.register_app(AppId(a as u16), share);
        }
        let (ns, _) = ns_per_op(each, |n| {
            for i in 0..n {
                let app = AppId((i % apps.len() as u64) as u16);
                sched.submit(app, Box::new(|| {}));
            }
            assert!(sched.wait_idle(Duration::from_secs(60)), "scheduler hung");
        });
        m.set(row, 1e9 / ns);
    }
}

fn trees(m: &mut Metrics, each: Duration) {
    let sched = Arc::new(TaskScheduler::new(SchedulerConfig::default()));
    sched.register_app(AppId(0), 1.0);
    let sum: Arc<dyn DynAggregator> = Arc::new(AggWrapper::new(SumAgg));
    let items: Vec<Bytes> = ["7", "41", "305", "9"]
        .iter()
        .map(|s| Bytes::from_static(s.as_bytes()))
        .collect();
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            let tree = LocalAggTree::new(sum.clone(), 8);
            for item in &items {
                tree.push(&sched, AppId(0), item.clone());
            }
            tree.end_input(&sched, AppId(0));
            black_box(tree.wait_complete(Duration::from_secs(10)).expect("sum"));
        }
    });
    m.set("core.tree.small_us", ns / 1e3);

    let wc: Arc<dyn DynAggregator> =
        Arc::new(AggWrapper::new(CombinerAgg::new(Arc::new(WordCount))));
    let mut rng = DetRng::new(0xB01C);
    let batches: Vec<Bytes> = (0..8).map(|_| inputs::wordcount_batch(&mut rng)).collect();
    let bytes: usize = batches.iter().map(Bytes::len).sum();
    let (ns, _) = ns_per_op(each * 2, |n| {
        for _ in 0..n {
            let tree = LocalAggTree::new(wc.clone(), 8);
            for b in &batches {
                tree.push(&sched, AppId(0), b.clone());
            }
            tree.end_input(&sched, AppId(0));
            black_box(
                tree.wait_complete(Duration::from_secs(60))
                    .expect("combine"),
            );
        }
    });
    m.set("core.tree.bulk_mb_per_s", bytes as f64 / ns * 1e9 / 1e6);
}

fn obs(m: &mut Metrics, each: Duration) {
    let reg = MetricsRegistry::new();
    let counter = reg.counter("bench.counter");
    let (ns, _) = ns_per_op(each, |n| {
        for i in 0..n {
            counter.add(black_box(i));
        }
    });
    m.set("obs.counter.add_ns", ns);
    let hist = reg.histogram("bench.histogram");
    let (ns, _) = ns_per_op(each, |n| {
        for i in 0..n {
            hist.record(black_box(i & 0xffff));
        }
    });
    m.set("obs.histogram.record_ns", ns);

    let off = TraceRecorder::default();
    let (ns, _) = ns_per_op(each, |n| {
        for i in 0..n {
            black_box(off.sampled(black_box(i)));
        }
    });
    m.set("obs.trace.disabled_check_ns", ns);
    let (ns, _) = ns_per_op(each, |n| {
        let on = TraceRecorder::with_capacity(n as usize);
        on.enable(1);
        for i in 0..n {
            on.record_span("bench.span", "bench", 1, i + 1, 1, i, i, i + 10);
        }
        black_box(on.len());
    });
    m.set("obs.trace.record_span_ns", ns);

    // A registry the size of a small deployment's.
    for i in 0..100 {
        reg.counter(&format!("bench.c{i}")).inc();
    }
    for i in 0..20 {
        reg.gauge(&format!("bench.g{i}")).set(i as f64);
        reg.histogram(&format!("bench.h{i}")).record(i);
    }
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            black_box(reg.snapshot());
        }
    });
    m.set("obs.snapshot_us", ns / 1e3);
}

fn apps(m: &mut Metrics, each: Duration) {
    let mut rng = DetRng::new(0x5EC);
    let pairs = inputs::wordcount_pairs(&mut rng);
    let encoded = seqfile::encode(&pairs);
    let mb = encoded.len() as f64 / 1e6;
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            black_box(seqfile::encode(black_box(&pairs)));
        }
    });
    m.set("minimr.seqfile.encode_mb_per_s", mb / ns * 1e9);
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            black_box(seqfile::decode(black_box(&encoded)).expect("round trip"));
        }
    });
    m.set("minimr.seqfile.decode_mb_per_s", mb / ns * 1e9);
    // The clone stands for the decode that hands the combiner owned pairs.
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            black_box(minimr::job::combine_pairs(&WordCount, pairs.clone()));
        }
    });
    m.set("minimr.combine.pairs_per_s", pairs.len() as f64 / ns * 1e9);

    let parts: Vec<SearchResults> = (0..4u32)
        .map(|p| SearchResults {
            docs: (0..30u32)
                .map(|d| ScoredDoc {
                    doc: p * 1000 + d,
                    score: (rng.next_u64() % 10_000) as f64 / 100.0,
                    snippet: format!("snippet of document {d}"),
                })
                .collect(),
        })
        .collect();
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            black_box(SearchResults::merge_topk(parts.clone(), 10));
        }
    });
    m.set("minisearch.topk.merge_ns", ns);
}

fn sim(m: &mut Metrics, each: Duration) {
    const FLOWS: u32 = 4096;
    let versions = vec![0u32; FLOWS as usize];
    let mut rng = DetRng::new(0xCA1);
    let times: Vec<f64> = (0..FLOWS)
        .map(|_| (rng.next_u64() % 1_000_000) as f64 * 1e-6)
        .collect();
    // One operation fills and drains the queue: FLOWS pushes and pops.
    let (ns, _) = ns_per_op(each, |n| {
        for _ in 0..n {
            let mut q = CalendarQueue::new(1024, 1e-3);
            for (flow, &time) in times.iter().enumerate() {
                q.push(Event {
                    time,
                    flow: flow as u32,
                    version: 0,
                });
            }
            while let Some(ev) = q.pop_min(&versions) {
                black_box(ev);
            }
        }
    });
    m.set("sim.queue.push_pop_ns", ns / FLOWS as f64);
    m.set(
        "sim.reference_events_per_s",
        crate::sim::reference_events_per_s(),
    );
}
