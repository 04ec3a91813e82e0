//! Criterion bench: sequence-file codec and combiner throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use minimr::job::combine_pairs;
use minimr::jobs::WordCount;
use minimr::netagg::CombinerAgg;
use minimr::seqfile;
use minimr::types::{u64_value, Pair};
use netagg_core::{AggWrapper, DynAggregator};
use std::sync::Arc;

fn bench_shuffle(c: &mut Criterion) {
    let pairs: Vec<Pair> = (0..10_000)
        .map(|i| Pair::new(format!("word{:06}", i % 1_000), u64_value(1)))
        .collect();
    let encoded = seqfile::encode(&pairs);
    let mut g = c.benchmark_group("shuffle");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("seqfile_encode", |b| b.iter(|| seqfile::encode(&pairs)));
    g.bench_function("seqfile_decode", |b| {
        b.iter(|| seqfile::decode(&encoded).unwrap())
    });
    g.bench_function("combine_wordcount", |b| {
        b.iter(|| combine_pairs(&WordCount, pairs.clone()));
    });

    // What one box task does on the repo benchmark's bulk-tcp workload:
    // eight unsorted 2 048-pair partials (~52 KiB each) over a 4 096-word
    // vocabulary, merged as encoded batches.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let batches: Vec<bytes::Bytes> = (0..8)
        .map(|_| {
            let partial: Vec<Pair> = (0..2_048)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    Pair::new(format!("word{:06}", x % 4_096), u64_value(1))
                })
                .collect();
            seqfile::encode(&partial)
        })
        .collect();
    let agg = AggWrapper::new(CombinerAgg::new(Arc::new(WordCount)));
    g.throughput(Throughput::Bytes(
        batches.iter().map(|b| b.len() as u64).sum(),
    ));
    g.bench_function("combine_batches_8x52k", |b| {
        b.iter(|| agg.aggregate_serialized(batches.clone()).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_shuffle);
criterion_main!(benches);
