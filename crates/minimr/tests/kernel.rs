//! The combine kernel against the algorithm it replaced, against hostile
//! bytes, and against an allocation budget.
//!
//! The oracle below is the previous implementation — decode to pairs, group
//! through a `BTreeMap`, combine each key's `Vec<Bytes>`, re-encode — kept
//! here only as the reference the kernel must match byte for byte.

use bytes::Bytes;
use minimr::job::{combine_pairs, group_by_key};
use minimr::jobs::Benchmark;
use minimr::netagg::CombinerAgg;
use minimr::seqfile::{self, Batch, Records};
use minimr::types::{f64_value, parse_f64, parse_u64, u64_value, Pair};
use netagg_core::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use netagg_core::aggbox::tree::LocalAggTree;
use netagg_core::protocol::AppId;
use netagg_core::{laws, AggError, AggWrapper, DynAggregator};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- oracle

fn stats(imps: u64, clicks: u64, mean: f64, var: f64) -> Bytes {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&imps.to_be_bytes());
    v.extend_from_slice(&clicks.to_be_bytes());
    v.extend_from_slice(&mean.to_be_bytes());
    v.extend_from_slice(&var.to_be_bytes());
    Bytes::from(v)
}

/// Each job's combiner as it was written against `Vec<Bytes> -> Vec<Bytes>`.
fn old_combine(bench: Benchmark, values: Vec<Bytes>) -> Vec<Bytes> {
    match bench {
        Benchmark::WC => vec![u64_value(values.iter().filter_map(|v| parse_u64(v)).sum())],
        Benchmark::UV | Benchmark::PR => {
            vec![f64_value(values.iter().filter_map(|v| parse_f64(v)).sum())]
        }
        Benchmark::AP => {
            let (mut imps, mut clicks) = (0u64, 0u64);
            for v in values.iter().filter(|v| v.len() == 32) {
                imps += parse_u64(&v[..8]).unwrap();
                clicks += parse_u64(&v[8..16]).unwrap();
            }
            vec![stats(imps, clicks, 0.0, 1.0)]
        }
        Benchmark::TS => values,
    }
}

fn old_group(pairs: Vec<Pair>) -> Vec<(Bytes, Vec<Bytes>)> {
    let mut map: BTreeMap<Bytes, Vec<Bytes>> = BTreeMap::new();
    for p in pairs {
        map.entry(p.key).or_default().push(p.value);
    }
    map.into_iter().collect()
}

fn old_combine_pairs(bench: Benchmark, pairs: Vec<Pair>) -> Vec<Pair> {
    let mut out = Vec::new();
    for (key, values) in old_group(pairs) {
        for value in old_combine(bench, values) {
            out.push(Pair {
                key: key.clone(),
                value,
            });
        }
    }
    out
}

// ------------------------------------------------------------ strategies

/// Values the job's combiner parses, and now and then one it must skip.
fn value(bench: Benchmark) -> BoxedStrategy<Bytes> {
    let junk = proptest::collection::vec(any::<u8>(), 0..5).prop_map(Bytes::from);
    match bench {
        Benchmark::WC => prop_oneof![
            (0u64..1 << 40).prop_map(u64_value),
            (0u64..1 << 40).prop_map(u64_value),
            junk
        ]
        .boxed(),
        // Magnitudes far enough apart that summation order shows in the bits.
        Benchmark::UV | Benchmark::PR => prop_oneof![
            (-1e3f64..1e3).prop_map(f64_value),
            (1e12f64..1e15).prop_map(f64_value),
            (-1e-6f64..1e-6).prop_map(f64_value),
            junk
        ]
        .boxed(),
        Benchmark::AP => prop_oneof![
            (0u64..1000, 0u64..1000).prop_map(|(i, c)| stats(i, c, 0.0, 1.0)),
            (0u64..1000, 0u64..1000).prop_map(|(i, c)| stats(i, c, 0.0, 1.0)),
            junk
        ]
        .boxed(),
        Benchmark::TS => proptest::collection::vec(any::<u8>(), 0..40)
            .prop_map(Bytes::from)
            .boxed(),
    }
}

/// What a kernel that orders on a fixed-size key prefix can get wrong: 25
/// bytes cut anywhere, so that keys are proper prefixes of one another
/// across the prefix boundary, and zero bytes where a padded prefix cannot
/// tell `"a"` from `"a\0"` from `"a\0\0"`.
const NESTED: &[u8; 25] = b"a\0\0bcdefghijk\0\0\0nopqr\0\0uv";

fn key() -> impl Strategy<Value = Bytes> {
    prop_oneof![
        (0u8..12).prop_map(|k| Bytes::from(format!("word{k}"))),
        (0u8..12).prop_map(|k| Bytes::from(format!("word{k}"))),
        Just(Bytes::new()),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(Bytes::from),
        (0usize..26).prop_map(|cut| Bytes::from_static(&NESTED[..cut])),
        // Longer than any prefix and alike throughout it: only the tail,
        // zeros and all, orders these.
        proptest::collection::vec(proptest::sample::select(vec![0u8, 1, 0xff]), 0..4)
            .prop_map(|tail| Bytes::from([&b"sixteen bytes in common"[..], &tail].concat())),
        // Enough distinct keys to fill the buckets of a counting pass, in
        // text (few byte columns vary) and in binary (all of them do).
        (0u32..5_000).prop_map(|k| Bytes::from(format!("word{k:06}"))),
        (0u64..3_000).prop_map(|k| {
            Bytes::copy_from_slice(&k.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes())
        }),
    ]
}

/// 1..8 inputs of 0..40 pairs each — one in eight of up to 3 000, a box's
/// worth — some sorted by key on arrival, as the output of a mapper-side
/// combine or of another box would be.
fn inputs(bench: Benchmark) -> BoxedStrategy<(Benchmark, Vec<Vec<Pair>>)> {
    let pairs = |sizes| {
        let pair = (key(), value(bench)).prop_map(|(key, value)| Pair { key, value });
        proptest::collection::vec(pair, sizes).boxed()
    };
    let sizes = std::iter::repeat_n(0..40, 7).chain(std::iter::once(0..3_000));
    let batch = (
        proptest::strategy::Union::new(sizes.map(pairs).collect()),
        any::<bool>(),
    )
        .prop_map(|(mut pairs, sorted)| {
            if sorted {
                pairs.sort_by(|a, b| a.key.cmp(&b.key));
            }
            pairs
        });
    proptest::collection::vec(batch, 1..9)
        .prop_map(move |batches| (bench, batches))
        .boxed()
}

fn any_job_inputs() -> impl Strategy<Value = (Benchmark, Vec<Vec<Pair>>)> {
    prop_oneof![
        inputs(Benchmark::WC),
        inputs(Benchmark::AP),
        inputs(Benchmark::PR),
        inputs(Benchmark::UV),
        inputs(Benchmark::TS),
    ]
}

fn wrapper(bench: Benchmark) -> AggWrapper<CombinerAgg> {
    AggWrapper::new(CombinerAgg::new(bench.job()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// (a) What an agg box computes is, byte for byte, what the `BTreeMap`
    /// pipeline computed — and the pair-level entry points agree with it.
    #[test]
    fn kernel_matches_the_btreemap_oracle((bench, batches) in any_job_inputs()) {
        let encoded: Vec<Bytes> = batches.iter().map(|b| seqfile::encode(b)).collect();
        let flat: Vec<Pair> = batches.into_iter().flatten().collect();
        let want = old_combine_pairs(bench, flat.clone());

        let got = wrapper(bench).aggregate_serialized(encoded).unwrap();
        prop_assert_eq!(got, seqfile::encode(&want), "{:?}", bench);
        prop_assert_eq!(combine_pairs(bench.job().as_ref(), flat.clone()), want);
        prop_assert_eq!(group_by_key(flat.clone()), old_group(flat));
    }

    /// (b) Arbitrary bytes are a valid batch or `Corrupt`; never a panic,
    /// never a range outside the buffer.
    #[test]
    fn arbitrary_bytes_parse_or_are_corrupt(
        // Small bytes are common so that length fields often fit the buffer.
        raw in proptest::collection::vec(prop_oneof![Just(0u8), 0u8..4, any::<u8>()], 0..64),
    ) {
        let raw = Bytes::from(raw);
        for record in Records::new(&raw) {
            match record {
                Ok((k, v)) => prop_assert!(k.end <= v.start && v.end <= raw.len()),
                Err(e) => prop_assert!(matches!(e, AggError::Corrupt(_))),
            }
        }
        match Batch::parse(raw.clone()) {
            Ok(batch) => prop_assert_eq!(seqfile::encode(&batch.pairs()), raw),
            Err(e) => {
                prop_assert!(matches!(e, AggError::Corrupt(_)));
                let fed = wrapper(Benchmark::WC).aggregate_serialized(vec![raw]);
                prop_assert!(matches!(fed, Err(AggError::Corrupt(_))));
            }
        }
    }

    /// (d) The platform laws hold byte-exactly for every job. Float values
    /// are quarters, whose sums are exact whatever the grouping; TeraSort,
    /// which passes every value through, gets one value throughout so that
    /// no order of arrival can show.
    #[test]
    fn every_job_satisfies_the_platform_laws(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u64..64), 0..20), 1..6),
    ) {
        for bench in Benchmark::ALL {
            let payloads: Vec<Bytes> = batches.iter().map(|batch| {
                let pairs: Vec<Pair> = batch.iter().map(|&(k, v)| {
                    let value = match bench {
                        Benchmark::WC => u64_value(v),
                        Benchmark::UV | Benchmark::PR => f64_value(v as f64 / 4.0),
                        Benchmark::AP => stats(v, v / 2, 0.0, 1.0),
                        Benchmark::TS => Bytes::from_static(b"row"),
                    };
                    Pair::new(format!("k{k}"), value)
                }).collect();
                seqfile::encode(&pairs)
            }).collect();
            laws::assert_laws(&CombinerAgg::new(bench.job()), &payloads);
        }
    }
}

/// (b) Every truncation of a valid batch is `Corrupt` unless it falls on a
/// record boundary, from the reader and from the box's entry point alike.
#[test]
fn every_truncation_is_corrupt_or_a_shorter_batch() {
    let pairs = vec![
        Pair::new("key", "value"),
        Pair::new("", ""),
        Pair::new("k2", u64_value(7)),
    ];
    let whole = seqfile::encode(&pairs);
    let mut boundaries = vec![0];
    for p in &pairs {
        boundaries.push(boundaries.last().unwrap() + p.wire_size());
    }
    let agg = wrapper(Benchmark::WC);
    for cut in 0..=whole.len() {
        let part = whole.slice(..cut);
        let fed = agg.aggregate_serialized(vec![whole.clone(), part.clone()]);
        match boundaries.iter().position(|&b| b == cut) {
            Some(records) => {
                assert_eq!(Batch::parse(part).unwrap().len(), records, "cut {cut}");
                assert!(fed.is_ok(), "cut {cut}");
            }
            None => {
                assert!(
                    matches!(Batch::parse(part), Err(AggError::Corrupt(_))),
                    "cut {cut}"
                );
                assert!(matches!(fed, Err(AggError::Corrupt(_))), "cut {cut}");
            }
        }
    }
}

/// (b) A length field far beyond the buffer is compared, not allocated for.
#[test]
fn hostile_length_fields_are_corrupt() {
    for raw in [
        vec![0xff, 0xff, 0xff, 0xff],
        vec![0xff, 0xff, 0xff, 0xff, b'k', b'v'],
        vec![0, 0, 0, 1, b'k', 0xff, 0xff, 0xff, 0xff, b'v'],
    ] {
        let raw = Bytes::from(raw);
        let (allocs, parsed) = counting(|| Batch::parse(raw.clone()));
        assert!(matches!(parsed, Err(AggError::Corrupt(_))));
        assert!(allocs <= 2, "only the error message may allocate: {allocs}");
    }
}

/// (b) A corrupt batch among valid ones fails a box's local reduction with
/// `Corrupt` — no panic on the scheduler's threads, no hang.
#[test]
fn corrupt_batch_fails_a_local_tree_cleanly() {
    let sched = Arc::new(TaskScheduler::new(SchedulerConfig {
        threads: 2,
        ..SchedulerConfig::default()
    }));
    sched.register_app(AppId(1), 1.0);
    let good = seqfile::encode(&[Pair::new("w", u64_value(1)), Pair::new("x", u64_value(2))]);
    for fanin in [2, 8] {
        let tree = LocalAggTree::new(Arc::new(wrapper(Benchmark::WC)), fanin);
        for i in 0..6 {
            let item = if i == 3 {
                good.slice(..good.len() - 3)
            } else {
                good.clone()
            };
            tree.push(&sched, AppId(1), item);
        }
        tree.end_input(&sched, AppId(1));
        assert!(matches!(
            tree.wait_complete(Duration::from_secs(10)),
            Err(AggError::Corrupt(_))
        ));
    }
}

// ------------------------------------------------------ allocation budget

/// Counts this thread's allocations while [`counting`] runs; other tests
/// of this binary run on their own threads and are not seen.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s (no lazy initialisation, no destructor, so no allocation and no
// access after teardown) and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn counting<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (ALLOCS.get(), out)
}

/// (c) One 8 × 2 048-pair merge costs a handful of allocations — buffers,
/// not records or keys — whether the pairs share one key or none.
#[test]
fn a_merge_allocates_a_small_constant() {
    let agg = wrapper(Benchmark::WC);
    for vocabulary in [1u64, 64, 4_096, u64::MAX] {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let inputs: Vec<Bytes> = (0..8)
            .map(|_| {
                let pairs: Vec<Pair> = (0..2_048)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        Pair::new(format!("word{:020}", x % vocabulary), u64_value(1))
                    })
                    .collect();
                seqfile::encode(&pairs)
            })
            .collect();
        let (allocs, out) = counting(|| agg.aggregate_serialized(inputs).unwrap());
        let total: u64 = seqfile::decode(&out)
            .unwrap()
            .iter()
            .map(|p| parse_u64(&p.value).unwrap())
            .sum();
        assert_eq!(total, 8 * 2_048);
        assert!(
            allocs <= 32,
            "vocabulary {vocabulary}: {allocs} allocations"
        );
    }
}
