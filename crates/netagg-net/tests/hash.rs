//! `netagg_net::hash::Keyed`: equal keys hash equal, and the key shapes the
//! platform's maps use spread over both halves of what a hashbrown table
//! reads of a hash — the low bits that pick the bucket and the top seven
//! that make the control byte. Keys alike in their low 32 bits are the
//! case an unkeyed `x * K` multiply fails.

use netagg_net::hash::{Keyed, Map, Set};
use std::hash::{BuildHasher, Hash, Hasher};
use std::net::SocketAddr;

// Same shapes (derived `Hash` over the same fields) as netagg-core's ids.
#[derive(Hash)]
struct AppId(u16);
#[derive(Hash)]
struct RequestId(u64);
#[derive(Hash)]
struct TreeId(u32);
#[derive(Hash)]
enum SourceId {
    Worker(u32),
    Box(u32),
}

/// Keys per set: eight per bucket on average.
const KEYS: u64 = 8192;
const BUCKETS: u64 = 1024;
const CONTROL: u64 = 128;

/// Hash every key, and assert that neither the low 10 bits nor the top
/// 7 bits put more than `4 ×` (buckets) or `2 ×` (control bytes) the
/// mean on one value. Uniform hashes exceed those bounds with
/// probability below 1e-6.
fn assert_spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
    let keyed = Keyed::default();
    let (mut low, mut top) = (vec![0u64; BUCKETS as usize], vec![0u64; CONTROL as usize]);
    let mut n = 0;
    for key in keys {
        let h = keyed.hash_one(&key);
        low[(h % BUCKETS) as usize] += 1;
        top[(h >> 57) as usize] += 1;
        n += 1;
    }
    assert_eq!(n, KEYS, "{what}: key count");
    let (low_max, top_max) = (*low.iter().max().unwrap(), *top.iter().max().unwrap());
    assert!(
        low_max <= 4 * KEYS / BUCKETS,
        "{what}: {low_max} keys in one of {BUCKETS} buckets"
    );
    assert!(
        top_max <= 2 * KEYS / CONTROL,
        "{what}: {top_max} keys on one of {CONTROL} control bytes"
    );
}

#[test]
fn equal_keys_hash_equal_across_hashers_and_maps() {
    let (a, b) = (Keyed::default(), Keyed::default());
    let key = (AppId(3), RequestId(1 << 40), TreeId(7));
    assert_eq!(a.hash_one(&key), b.hash_one(&key));
    assert_ne!(a.hash_one(RequestId(1)), a.hash_one(RequestId(2)));
    let mut map: Map<u64, u32> = Map::default();
    map.insert(5, 1);
    assert_eq!(map.get(&5), Some(&1));
    let set: Set<u32> = (0..100).collect();
    assert!((0..100).all(|k| set.contains(&k)));
}

#[test]
fn keys_alike_in_their_low_32_bits_spread() {
    assert_spread("RequestId(k << 32)", (0..KEYS).map(|k| RequestId(k << 32)));
}

#[test]
fn sequential_request_keys_spread() {
    let key = |k: u64| (AppId(1), RequestId(k), TreeId(0));
    assert_spread("(AppId, RequestId, TreeId)", (0..KEYS).map(key));
}

#[test]
fn source_ids_spread() {
    let half = KEYS as u32 / 2;
    let workers = (0..half).map(SourceId::Worker);
    assert_spread("SourceId", workers.chain((0..half).map(SourceId::Box)));
}

#[test]
fn socket_address_pairs_spread() {
    let addr = |port: u64| SocketAddr::from(([127, 0, 0, 1], 20_000 + port as u16));
    let pair = |k: u64| (addr(k / 64), addr(10_000 + k % 64));
    assert_spread("(SocketAddr, SocketAddr)", (0..KEYS).map(pair));
}

#[test]
fn a_trailing_zero_byte_is_not_padding() {
    let keyed = Keyed::default();
    let bytes = |b: &[u8]| {
        let mut h = keyed.build_hasher();
        h.write(b);
        h.finish()
    };
    assert_ne!(bytes(b"a"), bytes(b"a\0"));
    assert_ne!(bytes(b""), bytes(b"\0"));
    assert_ne!(bytes(b"abcdefgh"), bytes(b"abcdefgh\0"));
}
