//! Conformance suite for the command-pipeline service layer: one
//! shared battery — typed round trips, raw command submission,
//! cross-shard `insert_many` fan-out, backpressure, stats, shutdown
//! draining — run against a service over **every** `BuildableIndex`
//! implementation in the workspace. The pipeline is generic over
//! `SortedIndex` via `ShardedIndex` routing; this suite is that claim
//! as an executable contract.

use fiting::baselines::{BinarySearchIndex, FixedPageIndex, FullIndex};
use fiting::btree::BPlusTree;
use fiting::service::{Command, IndexService, ServiceConfig, TryPushError};
use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::{BuildableIndex, ShardedIndex};

/// Runs the service battery over one shard structure.
fn service_battery<I>(name: &str, config: &I::Config)
where
    I: BuildableIndex<u64, u64> + Send + Sync + 'static,
{
    let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k * 2, k)).collect();
    let index: ShardedIndex<u64, u64, I> =
        ShardedIndex::bulk_load(config, 4, pairs).expect("bulk load");
    let service = IndexService::start(index, ServiceConfig::default());
    let client = service.client();
    assert_eq!(client.lane_count(), 4, "{name}");

    // Typed round trips.
    assert_eq!(client.get(100).wait(), Ok(Some(50)), "{name}: get hit");
    assert_eq!(client.get(101).wait(), Ok(None), "{name}: get miss");
    assert_eq!(client.insert(101, 7).wait(), Ok(None), "{name}: insert");
    assert_eq!(
        client.insert(101, 8).wait(),
        Ok(Some(7)),
        "{name}: overwrite returns shadowed value"
    );
    assert_eq!(client.remove(101).wait(), Ok(Some(8)), "{name}: remove");
    assert_eq!(client.remove(101).wait(), Ok(None), "{name}: double remove");

    // Range scans, including cross-shard and inverted-to-empty.
    let window = client.range(100..=110).wait().unwrap();
    assert_eq!(
        window,
        vec![
            (100, 50),
            (102, 51),
            (104, 52),
            (106, 53),
            (108, 54),
            (110, 55)
        ],
        "{name}: bounded scan"
    );
    let all = client.range(..).wait().unwrap();
    assert_eq!(all.len(), 5_000, "{name}: full scan");
    assert!(
        all.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: scan ordered"
    );

    // Cross-shard batched insert through the splitting convenience.
    let fresh = client.insert_many((0..500u64).map(|k| (k * 20 + 1, k)).collect());
    assert_eq!(fresh.wait(), Ok(500), "{name}: insert_many fresh");
    let again = client.insert_many(vec![(1, 9), (10_001, 9)]);
    assert_eq!(again.wait(), Ok(1), "{name}: overwrites not fresh");

    // Raw command submission (the lower-level half of the API).
    let (cmd, t) = Command::get(1);
    client.submit(cmd).expect("service open");
    assert_eq!(t.wait(), Ok(Some(9)), "{name}: raw submit");
    let (cmd, t) = Command::insert_many(vec![(3, 3), (5, 5)]);
    client.submit(cmd).expect("service open");
    assert_eq!(t.wait(), Ok(2), "{name}: raw insert_many");

    // try_submit either lands or reports backpressure; never panics.
    let (cmd, t) = Command::insert(7, 7);
    match client.try_submit(cmd) {
        Ok(()) => assert_eq!(t.wait(), Ok(None), "{name}: try_submit"),
        Err(TryPushError::Busy(cmd)) => {
            client.submit(cmd).expect("service open");
            assert_eq!(t.wait(), Ok(None), "{name}: resubmitted");
        }
        Err(TryPushError::Closed(_)) => panic!("{name}: service is open"),
    }

    // Stats reconcile with the work done.
    let stats = service.stats();
    assert_eq!(stats.lanes.len(), 4, "{name}");
    assert_eq!(stats.shards.len(), 4, "{name}: no rebalancer attached");
    assert!(stats.total_processed() >= 14, "{name}: processed counted");
    assert!(stats.imbalance() >= 1.0, "{name}");

    // Shutdown drains, then refuses.
    let index = service.shutdown();
    // 5 000 preload + 500 batch + 10 001 + keys 3, 5, and 7.
    assert_eq!(index.len(), 5_504, "{name}: final contents");
    assert_eq!(index.get(&3), Some(3), "{name}");
    assert!(client.is_closed(), "{name}");
    assert!(
        client.get(0).wait().is_err(),
        "{name}: canceled after close"
    );
}

#[test]
fn service_over_fiting_tree() {
    service_battery::<FitingTree<u64, u64>>("FITing-Tree", &FitingTreeBuilder::new(32));
}

#[test]
fn service_over_bplus_tree() {
    service_battery::<BPlusTree<u64, u64>>("B+ tree", &());
}

#[test]
fn service_over_full_index() {
    service_battery::<FullIndex<u64, u64>>("Full", &());
}

#[test]
fn service_over_fixed_page_index() {
    service_battery::<FixedPageIndex<u64, u64>>("Fixed", &64);
}

#[test]
fn service_over_binary_search() {
    service_battery::<BinarySearchIndex<u64, u64>>("Binary", &());
}
