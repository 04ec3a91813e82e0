//! End-to-end search tests: a full cluster (frontend + backends) over the
//! in-process transport, with and without agg boxes, must produce
//! identical results.

use minisearch::corpus::CorpusConfig;
use minisearch::frontend::{Client, FrontendConfig};
use minisearch::netagg::{SearchCluster, SearchFunction};
use netagg_core::prelude::*;
use netagg_core::runtime::NetAggDeployment;
use netagg_net::{ChannelTransport, Transport};
use std::sync::Arc;
use std::time::Duration;

fn corpus_cfg() -> CorpusConfig {
    CorpusConfig {
        num_docs: 400,
        vocabulary: 2_000,
        mean_words: 60,
        markers_per_doc: 4,
        seed: 7,
    }
}

fn launch(
    boxes: u32,
    function: SearchFunction,
) -> (NetAggDeployment, SearchCluster, Arc<dyn Transport>) {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster_spec = ClusterSpec::single_rack(4, boxes);
    let mut dep = NetAggDeployment::launch(transport.clone(), &cluster_spec).unwrap();
    let cluster = SearchCluster::launch(
        &mut dep,
        transport.clone(),
        &corpus_cfg(),
        function,
        FrontendConfig {
            backend_k: 50,
            timeout: Duration::from_secs(10),
        },
        1.0,
    )
    .unwrap();
    (dep, cluster, transport)
}

#[test]
fn plain_and_netagg_topk_agree() {
    let (mut dep_plain, mut plain, _t1) = launch(0, SearchFunction::TopK { k: 10 });
    let (mut dep_net, mut net, _t2) = launch(1, SearchFunction::TopK { k: 10 });
    for q in 0..10 {
        let terms = vec![minisearch::corpus::word(q), minisearch::corpus::word(q + 1)];
        let a = plain.frontend.query(&terms).unwrap();
        let b = net.frontend.query(&terms).unwrap();
        let ids =
            |r: &minisearch::QueryOutcome| r.results.docs.iter().map(|d| d.doc).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b), "query {terms:?} differs");
        assert!(a.results.docs.len() <= 10);
    }
    // On-path aggregation must have exercised the box.
    let processed = dep_net.boxes()[0]
        .stats()
        .requests_completed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(processed >= 10, "box processed {processed}");
    plain.shutdown();
    net.shutdown();
    dep_plain.shutdown();
    dep_net.shutdown();
}

#[test]
fn sample_reduces_result_volume() {
    let (mut dep, mut cluster, _t) = launch(1, SearchFunction::Sample { alpha: 0.1 });
    // A head term matches many documents on every shard.
    let terms = vec![minisearch::corpus::word(0)];
    let out = cluster.frontend.query(&terms).unwrap();
    assert!(!out.results.docs.is_empty());
    // With alpha = 10 % the combined result must be far smaller than the
    // sum of the partials (each backend returns up to 50 docs).
    assert!(
        out.results.docs.len() <= 4 * 50 / 5,
        "sample should reduce: got {}",
        out.results.docs.len()
    );
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn categorise_groups_by_category() {
    let (mut dep, mut cluster, _t) = launch(1, SearchFunction::Categorise { k_per_category: 2 });
    let terms = vec![minisearch::corpus::word(0)];
    let out = cluster.frontend.query(&terms).unwrap();
    // At most k per base category.
    assert!(out.results.docs.len() <= 2 * minisearch::corpus::BASE_CATEGORIES.len());
    assert!(!out.results.docs.is_empty());
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn clients_get_replies_over_the_wire() {
    let (mut dep, mut cluster, transport) = launch(1, SearchFunction::TopK { k: 10 });
    let mut client = Client::connect(&transport, cluster.app, 0, 2_000).unwrap();
    for _ in 0..5 {
        let (bytes, latency) = client.query_once(Duration::from_secs(10)).unwrap();
        assert!(bytes >= 4);
        assert!(latency < Duration::from_secs(10));
    }
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn concurrent_clients_are_served() {
    let (mut dep, mut cluster, transport) = launch(1, SearchFunction::TopK { k: 10 });
    let app = cluster.app;
    #[expect(
        clippy::disallowed_methods,
        reason = "e2e client threads live outside any runtime JoinScope"
    )]
    let handles: Vec<_> = (0..8)
        .map(|c| {
            let transport = transport.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&transport, app, c, 2_000).unwrap();
                for _ in 0..5 {
                    client.query_once(Duration::from_secs(10)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        cluster
            .frontend
            .stats()
            .queries_completed
            .load(std::sync::atomic::Ordering::Relaxed),
        40
    );
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn conjunctive_queries_work_end_to_end() {
    use minisearch::score::QueryMode;
    let (mut dep, mut cluster, _t) = launch(1, SearchFunction::TopK { k: 20 });
    // A head word co-occurring with a mid-frequency word: AND must return
    // a subset of OR.
    let terms = vec![minisearch::corpus::word(0), minisearch::corpus::word(40)];
    let any = cluster.frontend.query_mode(&terms, QueryMode::Any).unwrap();
    let all = cluster.frontend.query_mode(&terms, QueryMode::All).unwrap();
    assert!(!any.results.docs.is_empty());
    let any_ids: std::collections::HashSet<u32> = any.results.docs.iter().map(|d| d.doc).collect();
    for d in &all.results.docs {
        assert!(
            any_ids.contains(&d.doc) || all.results.docs.len() <= 20,
            "AND results come from the OR candidate set"
        );
    }
    assert!(all.results.docs.len() <= any.results.docs.len());
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn unknown_terms_return_empty_results() {
    let (mut dep, mut cluster, _t) = launch(1, SearchFunction::TopK { k: 10 });
    // Vocabulary is x0..x1999; this term exists nowhere.
    let out = cluster
        .frontend
        .query(&["zzz-not-a-word".to_string()])
        .unwrap();
    assert!(out.results.docs.is_empty());
    // The machinery still ran end-to-end (a real, empty aggregate).
    assert!(out.latency < Duration::from_secs(10));
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn frontend_stats_track_completed_queries_and_bytes() {
    let (mut dep, mut cluster, _t) = launch(1, SearchFunction::TopK { k: 5 });
    let terms = vec![minisearch::corpus::word(0)];
    for _ in 0..3 {
        cluster.frontend.query(&terms).unwrap();
    }
    use std::sync::atomic::Ordering::Relaxed;
    let stats = cluster.frontend.stats();
    assert_eq!(stats.queries_completed.load(Relaxed), 3);
    assert_eq!(stats.queries_failed.load(Relaxed), 0);
    assert!(stats.result_bytes.load(Relaxed) > 0);
    cluster.shutdown();
    dep.shutdown();
}

#[test]
fn scale_out_boxes_serve_search_traffic() {
    // Two boxes, two trees: the per-request hash spreads queries across
    // both scale-out boxes while results stay correct.
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster_spec = ClusterSpec::single_rack(4, 2).with_trees(2);
    let mut dep = NetAggDeployment::launch(transport.clone(), &cluster_spec).unwrap();
    let mut cluster = SearchCluster::launch(
        &mut dep,
        transport,
        &corpus_cfg(),
        SearchFunction::TopK { k: 10 },
        FrontendConfig {
            backend_k: 50,
            timeout: Duration::from_secs(10),
        },
        1.0,
    )
    .unwrap();
    for q in 0..20 {
        let out = cluster
            .frontend
            .query(&[minisearch::corpus::word(q % 5)])
            .unwrap();
        assert!(!out.results.docs.is_empty());
    }
    use std::sync::atomic::Ordering::Relaxed;
    let c0 = dep.boxes()[0].stats().requests_completed.load(Relaxed);
    let c1 = dep.boxes()[1].stats().requests_completed.load(Relaxed);
    assert_eq!(c0 + c1, 20);
    assert!(
        c0 > 0 && c1 > 0,
        "both boxes should serve queries: {c0}/{c1}"
    );
    cluster.shutdown();
    dep.shutdown();
}
