//! Linearizability-style stress test for the command-pipeline service.
//!
//! N client threads hammer one `IndexService` with pipelined mixed
//! commands (insert / get / remove / range), each thread owning a
//! disjoint stripe of odd keys and mirroring its own operations
//! against a private model map. Because commands on one key are
//! submitted by one thread and executed in submission order by the
//! key's single shard worker, every completed `Get` must return
//! exactly the model's value at submission time, and every `Insert` /
//! `Remove` must return exactly the model's previous value — not
//! "some plausible value", the *exact* one.
//!
//! `Range` results interleave other threads' stripes, where no order
//! is guaranteed; they are checked structurally: strictly increasing
//! keys inside the requested bounds, and every pair is either preload
//! data or carries the stripe-consistent value encoding some thread
//! actually wrote to that key.
//!
//! After the threads drain their pipelines, `shutdown` must resolve
//! every ticket (a hang fails the test by timeout) and the returned
//! index must equal preload ∪ the merged per-thread models exactly.
//!
//! Scale knob: `FITING_STRESS_OPS` = commands per thread (default
//! 5000; CI runs a smaller count).

use fiting::service::{IndexService, ServiceConfig, Ticket};
use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::ShardedIndex;
use std::collections::BTreeMap;

const THREADS: u64 = 4;
const SHARDS: usize = 4;
/// Preloaded even keys: `2k -> k` for `k < PRELOAD`.
const PRELOAD: u64 = 20_000;
/// Stress writes use odd keys below `2 * KEY_SPACE`; values encode
/// `(version << KEY_BITS) | key` so any observed pair can be checked
/// against its key without knowing which thread wrote it.
const KEY_SPACE: u64 = 1 << 14;
const KEY_BITS: u32 = 15;

fn ops_per_thread() -> usize {
    std::env::var("FITING_STRESS_OPS")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(5_000)
}

/// Thread `t`'s `i`-th odd key: stripes are disjoint because the
/// multiplier `m ≡ t (mod THREADS)`.
fn stripe_key(t: u64, i: u64) -> u64 {
    let m = (i * THREADS + t) % KEY_SPACE;
    m * 2 + 1
}

/// Deterministic per-(thread, op) pseudo-randomness.
fn mix(t: u64, i: u64) -> u64 {
    (t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .rotate_left(31)
}

/// What a completed ticket must resolve to.
enum Expect {
    /// `Insert`/`Remove`/`Get`: the exact `Option<value>` the model
    /// predicts at submission time.
    Exact(Ticket<Option<u64>>, Option<u64>, &'static str),
    /// `Range`: structural checks over `[lo, hi)`.
    Window(Ticket<Vec<(u64, u64)>>, u64, u64),
}

fn check(expect: Expect, t: u64, i: usize) {
    match expect {
        Expect::Exact(ticket, want, kind) => {
            let got = ticket.wait().expect("service is running");
            assert_eq!(got, want, "thread {t} op {i} ({kind})");
        }
        Expect::Window(ticket, lo, hi) => {
            let window = ticket.wait().expect("service is running");
            assert!(
                window.windows(2).all(|w| w[0].0 < w[1].0),
                "thread {t} op {i}: range not strictly increasing"
            );
            for &(k, v) in &window {
                assert!(
                    (lo..hi).contains(&k),
                    "thread {t} op {i}: key {k} outside [{lo}, {hi})"
                );
                if k % 2 == 0 {
                    assert_eq!(v, k / 2, "thread {t} op {i}: preload pair corrupted");
                } else {
                    assert_eq!(
                        v & ((1 << KEY_BITS) - 1),
                        k,
                        "thread {t} op {i}: stress value does not encode its key"
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_stress_matches_models_and_drains_on_shutdown() {
    let ops = ops_per_thread();
    let pairs: Vec<(u64, u64)> = (0..PRELOAD).map(|k| (k * 2, k)).collect();
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), SHARDS, pairs.clone())
            .expect("preload");
    let service = IndexService::start(
        index,
        ServiceConfig {
            // Small queues so backpressure actually engages mid-test.
            queue_capacity: 128,
        },
    );

    let models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = service.client();
                scope.spawn(move || {
                    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                    let mut version = 0u64;
                    let mut wave: Vec<Expect> = Vec::new();
                    for i in 0..ops as u64 {
                        let key = stripe_key(t, mix(t, i) % (ops as u64));
                        let roll = mix(t, i ^ 0xfeed) % 100;
                        let expect = if roll < 45 {
                            version += 1;
                            let value = (version << KEY_BITS) | key;
                            let want = model.insert(key, value);
                            Expect::Exact(client.insert(key, value), want, "insert")
                        } else if roll < 75 {
                            Expect::Exact(client.get(key), model.get(&key).copied(), "get")
                        } else if roll < 90 {
                            let want = model.remove(&key);
                            Expect::Exact(client.remove(key), want, "remove")
                        } else {
                            let lo = (mix(t, i ^ 0xbeef) % (KEY_SPACE * 2)) & !1;
                            let hi = lo + 512;
                            Expect::Window(client.range(lo..hi), lo, hi)
                        };
                        wave.push(expect);
                        // Drain the pipeline in waves: deep enough to
                        // exercise queue batching, shallow enough to
                        // bound memory.
                        if wave.len() >= 64 {
                            for (j, e) in wave.drain(..).enumerate() {
                                check(e, t, i as usize - 63 + j);
                            }
                        }
                    }
                    for e in wave.drain(..) {
                        check(e, t, ops);
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Leave a tail of unawaited commands in flight, then shut down:
    // every ticket must still resolve (no hangs, no lost completions).
    let client = service.client();
    let tail: Vec<_> = (0..500u64)
        .map(|i| client.insert(stripe_key(0, KEY_SPACE + i), (1 << KEY_BITS) | 1))
        .collect();
    let index = service.shutdown();
    let mut tail_landed = 0;
    for t in tail {
        // Accepted commands complete; anything the closing queue
        // refused reports Canceled — but must not hang either way.
        if t.wait().is_ok() {
            tail_landed += 1;
        }
    }
    assert_eq!(tail_landed, 500, "all pre-shutdown submissions drained");

    // Final contents = preload ∪ merged models ∪ tail, exactly.
    let mut expected: BTreeMap<u64, u64> = pairs.into_iter().collect();
    for model in models {
        expected.extend(model);
    }
    for i in 0..500u64 {
        expected.insert(stripe_key(0, KEY_SPACE + i), (1 << KEY_BITS) | 1);
    }
    let got = index.range_collect(..);
    let want: Vec<(u64, u64)> = expected.into_iter().collect();
    assert_eq!(got.len(), want.len(), "final cardinality");
    assert_eq!(got, want, "final contents match the merged models");
}
