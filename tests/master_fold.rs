//! The master folds only what the tree left unfolded: a lone root box's
//! whole output is the result as it is, and everything else — a direct
//! worker's raw partial, a box's streamed partials, inputs across trees —
//! is folded at the master. Every box output is a fold for that to hold:
//! a box with one raw item runs a one-item combine.

use bytes::Bytes;
use minimr::job::combine_pairs;
use minimr::jobs::WordCount;
use minimr::netagg::CombinerAgg;
use minimr::seqfile;
use minimr::types::{u64_value, Pair};
use netagg_core::node::Node;
use netagg_core::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use netagg_core::runtime::{DeploymentConfig, NetAggDeployment};
use netagg_core::shim::master_core::{MasterCore, Taken};
use netagg_core::tree::{build_tree_specs, ClusterSpec};
use netagg_core::{AggError, AggWrapper, DynAggregator};
use netagg_net::ChannelTransport;
use netagg_obs::trace::TraceCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

const APP: AppId = AppId(0);
const TREE: TreeId = TreeId(0);
const WAIT: Duration = Duration::from_secs(10);

/// Worker `w`'s raw partial: unsorted `(word, 1)` pairs with repeats, so a
/// fold of it differs from it.
fn raw_pairs(w: u32) -> Vec<Pair> {
    let word = |i: u32| format!("w{}", (w * 7 + i * 13) % 10);
    (0..20).map(|i| Pair::new(word(i), u64_value(1))).collect()
}

/// The fold of every given worker's raw partial, encoded.
fn folded(workers: impl IntoIterator<Item = u32>) -> Bytes {
    let all = workers.into_iter().flat_map(raw_pairs).collect();
    seqfile::encode(&combine_pairs(&WordCount, all))
}

fn wordcount() -> AggWrapper<CombinerAgg> {
    AggWrapper::new(CombinerAgg::new(Arc::new(WordCount)))
}

/// WordCount, counting the calls made on the thread that built it: the
/// application's, where the master's `wait` folds. Box combines run on
/// their pools' threads.
struct Counted {
    inner: AggWrapper<CombinerAgg>,
    caller: ThreadId,
    calls: AtomicUsize,
}

impl DynAggregator for Counted {
    fn aggregate_serialized(&self, inputs: Vec<Bytes>) -> Result<Bytes, AggError> {
        if thread::current().id() == self.caller {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.aggregate_serialized(inputs)
    }
    fn empty_serialized(&self) -> Bytes {
        self.inner.empty_serialized()
    }
}

/// Run one request through a threaded deployment of `cluster` over the
/// channel transport, every worker sending its raw partial: the result,
/// how many inputs reached the master and the calls the master made.
fn run(cluster: &ClusterSpec) -> (Bytes, usize, usize) {
    let agg = Arc::new(Counted {
        inner: wordcount(),
        caller: thread::current().id(),
        calls: AtomicUsize::new(0),
    });
    let mut d = NetAggDeployment::launch(Arc::new(ChannelTransport::new()), cluster).unwrap();
    let app = d.register_app("wordcount", agg.clone(), 1.0);
    let master = d.master_shim(app);
    let workers = cluster.all_workers();
    let pending = master.register_request(1, workers.len());
    for &w in &workers {
        let payload = seqfile::encode(&raw_pairs(w));
        d.worker_shim(app, w).send_partial(1, payload).unwrap();
    }
    let result = pending.wait(WAIT).unwrap();
    d.shutdown();
    let calls = agg.calls.load(Ordering::Relaxed);
    (result.combined, result.master_inputs, calls)
}

/// (a) Two racks of four workers, a leaf box under the root box: the root
/// box's output is the result, and the master never runs the function.
#[test]
fn a_lone_root_aggregate_is_the_result_without_a_fold_at_the_master() {
    let cluster = ClusterSpec::multi_rack(2, 4, 1);
    let (combined, inputs, calls) = run(&cluster);
    assert_eq!(combined, folded(0..8));
    assert_eq!((inputs, calls), (1, 0), "one input, passed as it is");
}

/// (b) A box with one worker below it folds that worker's raw partial
/// alone, so what it passes on — and the master delivers — is a fold.
#[test]
fn a_box_with_one_worker_sends_the_fold_of_its_raw_partial() {
    let (combined, inputs, calls) = run(&ClusterSpec::single_rack(1, 1));
    assert_ne!(combined, seqfile::encode(&raw_pairs(0)), "the raw partial");
    assert_eq!(combined, folded([0]));
    assert_eq!((inputs, calls), (1, 0));
}

/// Chunk `seq` of request 1 on [`TREE`] from `source`.
fn data(source: SourceId, seq: u32, last: bool, payload: Bytes) -> Message {
    let (app, request, tree, ctx, sent_ns) = (APP, RequestId(1), TREE, TraceCtx::NONE, 0);
    Message::Data {
        app,
        request,
        tree,
        source,
        seq,
        last,
        ctx,
        sent_ns,
        payload,
    }
}

/// A master of one worker under one box, request 1 registered.
fn master() -> MasterCore {
    let specs = build_tree_specs(&ClusterSpec::single_rack(1, 1));
    let mut core = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    core.register(RequestId(1), 1, None, Instant::now());
    core
}

/// Feed `msgs` to the master; the delivery they complete, turned into the
/// result by the one rule the shell and the World share.
fn deliver(core: &mut MasterCore, msgs: Vec<Message>) -> (bool, Bytes) {
    for msg in msgs {
        assert!(!core.on_message(msg, Instant::now()).dropped);
    }
    let Taken::Done(delivery) = core.take_completed(RequestId(1)) else {
        panic!("request 1 is complete");
    };
    let folded = delivery.folded;
    (folded, delivery.result(&wordcount()).unwrap())
}

/// (a) at the core: a root box's whole output is delivered as the very
/// buffer it arrived in.
#[test]
fn a_root_boxs_whole_output_is_delivered_as_the_same_buffer() {
    let out = folded([0]);
    let (is_folded, result) = deliver(
        &mut master(),
        vec![data(SourceId::Box(0), 0, true, out.clone())],
    );
    assert!(is_folded);
    assert_eq!(result.as_ptr(), out.as_ptr());
}

/// (c) Once the root box failed, its worker sends to the master directly:
/// one raw input, which the master folds.
#[test]
fn a_failed_root_boxs_worker_input_is_folded_at_the_master() {
    let mut core = master();
    core.fail_box(TREE, 0);
    let raw = seqfile::encode(&raw_pairs(0));
    let (is_folded, result) = deliver(&mut core, vec![data(SourceId::Worker(0), 0, true, raw)]);
    assert!(!is_folded);
    assert_eq!(result, folded([0]));
}

/// (d) A box that streamed its lone raw item as a partial and then sent
/// an empty final chunk: the partial is not the box's whole output, and
/// the master folds it.
#[test]
fn a_streamed_lone_partial_is_folded_at_the_master() {
    let raw = seqfile::encode(&raw_pairs(0));
    let chunks = vec![
        data(SourceId::Box(0), 0, false, raw),
        data(SourceId::Box(0), 1, true, Bytes::new()),
    ];
    let (is_folded, result) = deliver(&mut master(), chunks);
    assert!(!is_folded);
    assert_eq!(result, folded([0]));
}
