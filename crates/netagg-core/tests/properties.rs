//! Property-based tests of the platform's core invariants: the local
//! aggregation tree computes order-independent reductions regardless of
//! arrival order, fan-in and thread count; the protocol codec roundtrips
//! arbitrary payloads; tree-spec construction conserves workers.

use bytes::Bytes;
use netagg_core::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use netagg_core::aggbox::tree::LocalAggTree;
use netagg_core::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use netagg_core::tree::{build_tree_specs, ClusterSpec, RackSpec};
use netagg_core::{AggError, AggWrapper, AggregationFunction};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

struct Sum;
impl AggregationFunction for Sum {
    type Item = i128;
    fn deserialize(&self, b: &Bytes) -> Result<i128, AggError> {
        if b.len() != 16 {
            return Err(AggError::Corrupt("len".into()));
        }
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(i128::from_be_bytes(a))
    }
    fn serialize(&self, v: &i128) -> Bytes {
        Bytes::copy_from_slice(&v.to_be_bytes())
    }
    fn aggregate(&self, items: Vec<i128>) -> i128 {
        items.into_iter().sum()
    }
    fn empty(&self) -> i128 {
        0
    }
}

fn scheduler(threads: usize) -> Arc<TaskScheduler> {
    let s = TaskScheduler::new(SchedulerConfig {
        threads,
        adaptive: true,
    });
    s.register_app(AppId(1), 1.0);
    Arc::new(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The local tree's result equals the plain sum for any input set,
    /// fan-in and thread count (associativity/commutativity in practice).
    #[test]
    fn local_tree_sums_any_stream(
        values in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
        fanin in 2usize..16,
        threads in 1usize..8,
    ) {
        let sched = scheduler(threads);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), fanin);
        for v in &values {
            tree.push(&sched, AppId(1), Sum.serialize(&(*v as i128)));
        }
        tree.end_input(&sched, AppId(1));
        let out = tree.wait_complete(Duration::from_secs(30)).unwrap();
        let got = Sum.deserialize(&out).unwrap();
        let want: i128 = values.iter().map(|v| *v as i128).sum();
        prop_assert_eq!(got, want);
    }

    /// Protocol messages roundtrip for arbitrary payload bytes and ids.
    #[test]
    fn protocol_data_roundtrips(
        app in any::<u16>(),
        request in any::<u64>(),
        tree in any::<u32>(),
        worker in any::<u32>(),
        seq in any::<u32>(),
        last in any::<bool>(),
        trace_id in any::<u64>(),
        parent_span_id in any::<u64>(),
        sent_ns in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let m = Message::Data {
            app: AppId(app),
            request: RequestId(request),
            tree: TreeId(tree),
            source: SourceId::Worker(worker),
            seq,
            last,
            ctx: netagg_obs::trace::TraceCtx { trace_id, parent_span_id },
            sent_ns,
            payload: Bytes::from(payload),
        };
        prop_assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    /// Random byte strings never panic the decoder (they error or decode),
    /// neither on their own nor as the tail of a `RequestMeta` frame that
    /// claims `count` sources; a count the tail cannot hold is an error.
    #[test]
    fn protocol_decoder_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        count in any::<u32>(),
    ) {
        let _ = Message::decode(Bytes::from(bytes.clone()));

        let header = Message::RequestMeta {
            app: AppId(1),
            request: RequestId(2),
            tree: TreeId(3),
            sources: Vec::new(),
            ctx: netagg_obs::trace::TraceCtx::NONE,
        }
        .encode();
        // The header ends in its (zero) source count: swap in `count`.
        let mut frame = header[..header.len() - 4].to_vec();
        frame.extend_from_slice(&count.to_be_bytes());
        frame.extend_from_slice(&bytes);
        let decoded = Message::decode(Bytes::from(frame));
        // A source is five bytes on the wire (tag + u32 id).
        if count as usize * 5 > bytes.len() {
            prop_assert!(decoded.is_err());
        }
    }

    /// Tree-spec construction assigns every worker exactly once and wires
    /// parents consistently, for arbitrary rack shapes.
    #[test]
    fn tree_specs_conserve_workers(
        rack_sizes in proptest::collection::vec((1u32..8, 0u32..3), 1..5),
        trees in 1u32..4,
        master_rack_sel in any::<u32>(),
    ) {
        let mut next = 0;
        let racks: Vec<RackSpec> = rack_sizes
            .iter()
            .map(|&(workers, boxes)| {
                let r = RackSpec {
                    workers: (next..next + workers).collect(),
                    boxes,
                };
                next += workers;
                r
            })
            .collect();
        let cluster = ClusterSpec {
            master_rack: (master_rack_sel as usize) % racks.len(),
            racks,
            num_trees: trees,
        };
        let specs = build_tree_specs(&cluster);
        prop_assert_eq!(specs.len(), trees as usize);
        let all = cluster.all_workers();
        for spec in &specs {
            // Every worker is either assigned to a box or direct.
            let mut covered: Vec<u32> = spec
                .worker_assignment
                .keys()
                .copied()
                .chain(spec.direct_workers.iter().copied())
                .collect();
            covered.sort_unstable();
            prop_assert_eq!(&covered, &all);
            // Every assigned box exists in the spec and every box chains to
            // the master.
            for (&w, &b) in &spec.worker_assignment {
                let tb = spec.tree_box(b);
                prop_assert!(tb.is_some(), "worker {} assigned to missing box {}", w, b);
                prop_assert!(tb.unwrap().worker_children.contains(&w));
            }
            for tb in &spec.boxes {
                // Walk to the master with a hop bound (no cycles).
                let mut cur = tb.box_id;
                let mut hops = 0;
                loop {
                    match spec.tree_box(cur).unwrap().parent {
                        netagg_core::tree::Parent::Master => break,
                        netagg_core::tree::Parent::Box(p) => {
                            cur = p;
                            hops += 1;
                            prop_assert!(hops <= spec.boxes.len(), "cycle in tree");
                        }
                    }
                }
                prop_assert!(tb.expected_sources() > 0);
                // Every child box it owes is a box of the spec.
                for c in &tb.box_children {
                    prop_assert!(spec.tree_box(*c).is_some(), "box {} owes missing box {}", tb.box_id, c);
                }
            }
            // Master sees at least one source when there are workers.
            prop_assert!(!spec.children(netagg_core::tree::Parent::Master).is_empty());
        }
    }


    /// The `laws` checkers accept a lawful function for arbitrary payload
    /// sets and split points.
    #[test]
    fn laws_hold_for_sum(
        values in proptest::collection::vec(-1_000_000i64..1_000_000, 0..12),
        split in 0usize..12,
    ) {
        use netagg_core::laws;
        let payloads: Vec<Bytes> =
            values.iter().map(|v| Sum.serialize(&(*v as i128))).collect();
        prop_assert!(laws::check_laws(&Sum, &payloads).unwrap().is_none());
        let c = laws::check_merge(&Sum, &payloads, split).unwrap();
        prop_assert!(c.holds());
    }

    /// A deliberately unlawful function — "count the inputs" — is always
    /// flagged: it breaks merge consistency (two halves re-merge to 2) and
    /// the identity law (padding inflates the count).
    #[test]
    fn laws_flag_input_counting(
        values in proptest::collection::vec(-1_000i64..1_000, 2..10),
    ) {
        use netagg_core::laws;
        struct Count;
        impl AggregationFunction for Count {
            type Item = i128;
            fn deserialize(&self, b: &Bytes) -> Result<i128, AggError> {
                Sum.deserialize(b)
            }
            fn serialize(&self, v: &i128) -> Bytes {
                Sum.serialize(v)
            }
            fn aggregate(&self, items: Vec<i128>) -> i128 {
                items.len() as i128
            }
            fn empty(&self) -> i128 {
                0
            }
        }
        let payloads: Vec<Bytes> =
            values.iter().map(|v| Sum.serialize(&(*v as i128))).collect();
        let verdict = laws::check_laws(&Count, &payloads).unwrap();
        let v = verdict.expect("counting must be flagged");
        prop_assert!(
            v.law == "merge consistency" || v.law == "identity",
            "unexpected law: {}", v.law
        );
    }

    /// Scheduler accounting: tasks_run equals submissions once idle.
    #[test]
    fn scheduler_runs_every_task(
        counts in proptest::collection::vec(1usize..40, 1..4),
        threads in 1usize..6,
    ) {
        let sched = TaskScheduler::new(SchedulerConfig {
            threads,
            adaptive: true,
        });
        for (i, &n) in counts.iter().enumerate() {
            let app = AppId(i as u16);
            sched.register_app(app, 1.0);
            for _ in 0..n {
                sched.submit(app, Box::new(|| {}));
            }
        }
        prop_assert!(sched.wait_idle(Duration::from_secs(30)));
        let cpu = sched.cpu_times();
        for (i, &n) in counts.iter().enumerate() {
            let c = cpu.iter().find(|c| c.app == AppId(i as u16)).unwrap();
            prop_assert_eq!(c.tasks_run, n as u64);
        }
    }
}
