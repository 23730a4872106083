//! Online shard rebalancing: policy, write-stream sampling, and the
//! driver that turns observed imbalance into
//! [`split_shard`](ShardedIndex::split_shard) /
//! [`merge_with_next`](ShardedIndex::merge_with_next) calls.
//!
//! # Why
//!
//! [`ShardedIndex`] picks its boundaries from the bulk-load sample.
//! That is the right call at load time — but the paper's IoT/timestamp
//! workloads *append*: every new key is larger than every loaded one,
//! so the whole write stream lands on the last shard while the others
//! idle. Occupancy has been observable since the service layer landed
//! ([`ShardedIndex::shard_stats`], `ServiceStats::imbalance`); this
//! module closes the loop by *acting* on it, the same way incremental
//! view maintenance keeps an answer fresh under updates instead of
//! recomputing from scratch.
//!
//! # How
//!
//! * [`WriteSampler`] keeps a **decaying reservoir sample** of the keys
//!   recently written. A plain reservoir converges to the all-time
//!   distribution; periodically halving the effective population makes
//!   it track the *live* distribution, which is what a split boundary
//!   should follow.
//! * The policy is a handful of constants in this file: split when the
//!   fullest shard holds more than `SPLIT_IMBALANCE` × the mean
//!   entries for `TRIGGER_STEPS` consecutive observations
//!   (hysteresis), merge when an adjacent pair together holds under
//!   `MERGE_FRACTION` × the mean, and sit out `COOLDOWN_STEPS`
//!   steps after every action so one burst cannot thrash the layout.
//!   The paper's one tunable is the error bound; the rebalancer adds
//!   none.
//! * [`Rebalancer`] owns the sampler and exposes one
//!   [`step`](Rebalancer::step): snapshot occupancy, decide, act. The
//!   split boundary is the median of the sampled writes inside the hot
//!   shard's span, falling back to the shard's own stored median when
//!   the sample is too thin.
//!
//! Each `step` performs at most one split *or* one merge, so a
//! coordinator can run it on a timer and stay comprehensible.
//!
//! ```
//! use fiting_index_api::{BinarySearchIndex, RebalanceOutcome, Rebalancer, ShardedIndex};
//!
//! // Bulk-load 4 balanced shards, then append a hot tail.
//! let pairs: Vec<(u64, u64)> = (0..4_000).map(|k| (k, k)).collect();
//! let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
//!     ShardedIndex::bulk_load(&(), 4, pairs).unwrap();
//! let mut rebalancer: Rebalancer<u64> = Rebalancer::new();
//!
//! let sampler = rebalancer.sampler();
//! for k in 4_000..8_000u64 {
//!     index.insert(k, k); // all of this lands on the last shard…
//!     sampler.observe(k); // …and the sampler watches it happen
//! }
//!
//! // The first step sees the hot shard; the second, still seeing it,
//! // splits it at the sampled write median.
//! assert_eq!(rebalancer.step(&index), RebalanceOutcome::Watching);
//! assert!(matches!(rebalancer.step(&index), RebalanceOutcome::Split { .. }));
//! assert_eq!(index.shard_count(), 5);
//! assert_eq!(rebalancer.stats().splits, 1);
//! ```

use crate::key::Key;
use crate::sharded::ShardedIndex;
use crate::sorted::SortedIndex;
use fiting_sync::primitives::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct SamplerState<K> {
    sample: Vec<K>,
    /// Effective number of observations the reservoir represents;
    /// halved on decay so old observations lose retention probability.
    weight: u64,
    since_decay: u64,
    rng: StdRng,
}

impl<K> SamplerState<K> {
    /// Records one written key (classic reservoir sampling over the
    /// decayed effective population).
    fn observe(&mut self, key: K) {
        self.weight += 1;
        self.since_decay += 1;
        if self.sample.len() < RESERVOIR_CAPACITY {
            self.sample.push(key);
        } else {
            // Replace with probability capacity/weight — uniform over
            // the (decayed) population, per Algorithm R.
            let j = self.rng.gen_range(0..self.weight as usize);
            if j < RESERVOIR_CAPACITY {
                self.sample[j] = key;
            }
        }
        if self.since_decay >= DECAY_EVERY {
            self.since_decay = 0;
            // Halving the effective population doubles every future
            // key's replacement probability: exponential decay of the
            // old sample's retention.
            self.weight = (self.weight / 2).max(self.sample.len() as u64);
        }
    }
}

/// A thread-safe, exponentially decaying reservoir sample of a key
/// stream — the source of split boundaries that track where writes
/// are landing *now* rather than where data sat at load time.
///
/// It holds at most 1 024 keys and halves its effective population
/// every 8 192 observations, so the writes of the last few decay
/// periods outweigh everything older.
/// [`observe`](Self::observe) is one short mutex hold (a handful of
/// arithmetic ops and at most one slot write), cheap enough to call
/// per applied write; batch paths can use
/// [`observe_all`](Self::observe_all) to take the lock once.
///
/// ```
/// use fiting_index_api::Rebalancer;
///
/// let sampler = Rebalancer::<u64>::new().sampler();
/// sampler.observe_all((0..10_000u64).rev()); // skewed arrival order is fine
/// // The reservoir holds at most its capacity, however long the stream.
/// assert_eq!(sampler.len(), 1_024);
/// ```
pub struct WriteSampler<K> {
    state: Mutex<SamplerState<K>>,
}

impl<K: Key> WriteSampler<K> {
    /// An empty sampler.
    pub(crate) fn new() -> Self {
        WriteSampler {
            state: Mutex::new(SamplerState {
                sample: Vec::with_capacity(RESERVOIR_CAPACITY),
                weight: 0,
                since_decay: 0,
                rng: StdRng::seed_from_u64(SAMPLER_SEED),
            }),
        }
    }

    /// Records one written key.
    pub fn observe(&self, key: K) {
        self.state.lock().observe(key);
    }

    /// Records a batch of written keys under one lock acquisition.
    pub fn observe_all<It: IntoIterator<Item = K>>(&self, keys: It) {
        let mut state = self.state.lock();
        for key in keys {
            state.observe(key);
        }
    }

    /// Number of keys currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().sample.len()
    }

    /// Whether nothing has been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Median of the sampled keys within `[lo, hi)` (`None` bounds are
    /// unbounded), or `None` when fewer than `min_samples` sampled keys
    /// fall in that span — the caller should fall back to a stored
    /// median rather than trust a thin sample.
    #[must_use]
    pub(crate) fn median_in(&self, lo: Option<K>, hi: Option<K>, min_samples: usize) -> Option<K> {
        let state = self.state.lock();
        let mut in_span: Vec<K> = state
            .sample
            .iter()
            .copied()
            .filter(|k| lo.is_none_or(|l| *k >= l) && hi.is_none_or(|h| *k < h))
            .collect();
        drop(state);
        if in_span.len() < min_samples.max(1) {
            return None;
        }
        in_span.sort_unstable();
        Some(in_span[in_span.len() / 2])
    }
}

/// Monotonic counters a [`Rebalancer`] maintains, shareable (via
/// `Arc`) with an observability layer; snapshot with
/// [`snapshot`](Self::snapshot).
#[derive(Debug, Default)]
pub struct RebalanceCounters {
    /// Policy evaluations performed ([`Rebalancer::step`] calls).
    pub steps: AtomicU64,
    /// Shard splits performed.
    pub splits: AtomicU64,
    /// Shard merges performed.
    pub merges: AtomicU64,
    /// Entries moved between shards by splits and merges.
    pub moved_keys: AtomicU64,
}

impl RebalanceCounters {
    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> RebalanceStats {
        // ordering: Relaxed — monotonic stats counters; a snapshot
        // tolerates slight skew between fields.
        RebalanceStats {
            steps: self.steps.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            moved_keys: self.moved_keys.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time rebalancing totals (see [`RebalanceCounters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceStats {
    /// Policy evaluations performed.
    pub steps: u64,
    /// Shard splits performed.
    pub splits: u64,
    /// Shard merges performed.
    pub merges: u64,
    /// Entries moved between shards by splits and merges.
    pub moved_keys: u64,
}

/// What one [`Rebalancer::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceOutcome {
    /// Occupancy is acceptable (or the index is empty); nothing to do.
    Idle,
    /// A recent split/merge is still cooling down; no action taken.
    Cooldown,
    /// Imbalance is over threshold but has not persisted for
    /// `TRIGGER_STEPS` observations yet (hysteresis), or no usable
    /// split boundary exists yet.
    Watching,
    /// Split the hot shard, moving `moved` entries into a new right
    /// neighbor.
    Split {
        /// Index of the shard that was split (at decision time).
        shard: usize,
        /// Entries moved into the new shard.
        moved: usize,
    },
    /// Merged shard `shard + 1` into `shard`, moving `moved` entries.
    Merge {
        /// Index of the surviving (left) shard.
        shard: usize,
        /// Entries absorbed from the retired right shard.
        moved: usize,
    },
}

/// Drives online rebalancing of a [`ShardedIndex`]: owns the write
/// sampler and turns occupancy snapshots into split/merge calls — one
/// action per [`step`](Self::step) at most.
///
/// The service layer runs `step` from a coordinator thread on a timer
/// (`IndexService::start_rebalancing` in `fiting-index-service`);
/// embedders without the service can call it from any maintenance
/// loop. See the [module docs](self) for a worked example.
pub struct Rebalancer<K: Key> {
    sampler: Arc<WriteSampler<K>>,
    counters: Arc<RebalanceCounters>,
    hot_streak: u32,
    cooldown: u32,
}

/// Split when the fullest shard's entries exceed this multiple of the
/// mean (`max/mean`, the ratio `ServiceStats::imbalance` reports).
const SPLIT_IMBALANCE: f64 = 1.5;
/// Never split a shard holding fewer entries than this — tiny shards
/// are cheap to search and expensive to fragment.
const MIN_SPLIT_ENTRIES: usize = 512;
/// Upper bound on the shard count; splits stop here.
const MAX_SHARDS: usize = 64;
/// Consecutive over-threshold observations before a split fires, so a
/// single spiky snapshot does not move boundaries.
const TRIGGER_STEPS: u32 = 2;
/// Steps to sit out after any split or merge, so a layout change gets
/// time to settle before the next decision.
const COOLDOWN_STEPS: u32 = 2;
/// Sampled keys needed inside the hot shard's span for their median to
/// be trusted as a split boundary; below this the shard's own stored
/// median is used instead.
const MIN_RESERVOIR_SAMPLES: usize = 16;
/// Merge an adjacent pair whose *combined* entries fall below this
/// fraction of the mean shard occupancy. Well under
/// [`SPLIT_IMBALANCE`], so a merge cannot immediately re-trigger a
/// split (hysteresis between the two actions).
const MERGE_FRACTION: f64 = 0.4;
/// Capacity of the decaying reservoir sample of written keys.
const RESERVOIR_CAPACITY: usize = 1_024;
/// Observed writes between reservoir decays (each decay halves the
/// effective population, so recent writes displace old ones).
const DECAY_EVERY: u64 = 8_192;
/// Seed for the reservoir's replacement choices (runs are repeatable).
const SAMPLER_SEED: u64 = 0x5EED;

impl<K: Key> Default for Rebalancer<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Rebalancer<K> {
    /// A rebalancer with an empty sampler and zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Rebalancer {
            sampler: Arc::new(WriteSampler::new()),
            counters: Arc::new(RebalanceCounters::default()),
            hot_streak: 0,
            cooldown: 0,
        }
    }

    /// The sampler split boundaries are drawn from. Hand a clone to
    /// whatever applies writes (the service workers do this) and feed
    /// it every inserted key.
    #[must_use]
    pub fn sampler(&self) -> Arc<WriteSampler<K>> {
        Arc::clone(&self.sampler)
    }

    /// Shared handle to the live counters (for embedding in another
    /// stats snapshot without consulting the rebalancer).
    #[must_use]
    pub fn counters(&self) -> Arc<RebalanceCounters> {
        Arc::clone(&self.counters)
    }

    /// Point-in-time totals of what this rebalancer has done.
    #[must_use]
    pub fn stats(&self) -> RebalanceStats {
        self.counters.snapshot()
    }

    /// One policy evaluation: snapshot shard occupancy, then perform at
    /// most one split (of the fullest shard, at the sampled write
    /// median within its span — falling back to the shard's stored
    /// median) or one merge (of the coldest adjacent pair).
    ///
    /// Safe to call concurrently with any index traffic; the
    /// underlying primitives revalidate and never block readers of
    /// untouched shards.
    pub fn step<V: Clone, I: SortedIndex<K, V> + 'static>(
        &mut self,
        index: &ShardedIndex<K, V, I>,
    ) -> RebalanceOutcome {
        // ordering: Relaxed on every counter in this function — the
        // rebalancer is single-threaded per instance and the counters
        // are advisory stats; split/merge publication is ordered by
        // the sharded index's own epoch protocol.
        self.counters.steps.fetch_add(1, Ordering::Relaxed);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return RebalanceOutcome::Cooldown;
        }
        let lens: Vec<usize> = index.shard_stats().iter().map(|s| s.entries).collect();
        let total: usize = lens.iter().sum();
        if total == 0 || lens.is_empty() {
            return RebalanceOutcome::Idle;
        }
        let mean = total as f64 / lens.len() as f64;
        let (hot, &hot_len) = lens
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .expect("non-empty lens");
        let imbalance = hot_len as f64 / mean;

        if lens.len() < MAX_SHARDS && imbalance > SPLIT_IMBALANCE && hot_len >= MIN_SPLIT_ENTRIES {
            self.hot_streak += 1;
            if self.hot_streak < TRIGGER_STEPS {
                return RebalanceOutcome::Watching;
            }
            let Some((lo, hi)) = index.shard_span(hot) else {
                return RebalanceOutcome::Watching;
            };
            let at = self
                .sampler
                .median_in(lo, hi, MIN_RESERVOIR_SAMPLES)
                .or_else(|| index.shard_median(hot));
            let Some(at) = at else {
                return RebalanceOutcome::Watching;
            };
            return match index.split_shard(hot, at) {
                Ok(moved) => {
                    self.counters.splits.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .moved_keys
                        .fetch_add(moved as u64, Ordering::Relaxed);
                    self.hot_streak = 0;
                    self.cooldown = COOLDOWN_STEPS;
                    RebalanceOutcome::Split { shard: hot, moved }
                }
                // A refused split (the sampled median landed on the
                // span edge, or the shard structure declined the
                // handoff) is not an error; re-observe.
                Err(_) => {
                    self.hot_streak = 0;
                    RebalanceOutcome::Watching
                }
            };
        }
        self.hot_streak = 0;

        // A single shard has no adjacent pair to merge.
        let coldest = lens
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, w[0] + w[1]))
            .min_by_key(|&(_, sum)| sum);
        if let Some((cold, pair_sum)) = coldest {
            if (pair_sum as f64) <= mean * MERGE_FRACTION {
                if let Ok(moved) = index.merge_with_next(cold) {
                    self.counters.merges.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .moved_keys
                        .fetch_add(moved as u64, Ordering::Relaxed);
                    self.cooldown = COOLDOWN_STEPS;
                    return RebalanceOutcome::Merge { shard: cold, moved };
                }
            }
        }
        RebalanceOutcome::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinarySearchIndex;

    type Idx = ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>>;
    type Reb = Rebalancer<u64>;

    fn load(n: u64, shards: usize) -> Idx {
        ShardedIndex::bulk_load(&(), shards, (0..n).map(|k| (k, k)).collect()).unwrap()
    }

    /// Steps `reb` until a split may fire: each step before the
    /// `TRIGGER_STEPS`-th must only be watching. Returns the last step.
    fn step_through_trigger(reb: &mut Reb, idx: &Idx) -> RebalanceOutcome {
        for _ in 1..TRIGGER_STEPS {
            assert_eq!(reb.step(idx), RebalanceOutcome::Watching);
        }
        reb.step(idx)
    }

    #[test]
    fn sampler_tracks_recent_distribution() {
        let s: WriteSampler<u64> = WriteSampler::new();
        // Old regime: keys near 0, four decay periods long. New
        // regime: keys near 1e6, half as long, so a reservoir without
        // decay would still hold about two old keys for every new one.
        s.observe_all(0..4 * DECAY_EVERY);
        s.observe_all((0..2 * DECAY_EVERY).map(|k| 1_000_000 + k));
        let median = s.median_in(None, None, 8).unwrap();
        // After decays, the reservoir leans to the recent regime.
        assert!(median >= 1_000_000, "median {median} stuck in old regime");
        // Span filtering.
        let old = s.median_in(None, Some(500_000), 1);
        if let Some(m) = old {
            assert!(m < 500_000);
        }
        assert_eq!(s.median_in(Some(2_000_000), None, 1), None);
    }

    #[test]
    fn sampler_thin_spans_yield_none() {
        let s: WriteSampler<u64> = WriteSampler::new();
        assert!(s.is_empty());
        assert_eq!(s.median_in(None, None, 1), None);
        s.observe(5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.median_in(None, None, 2), None, "below min_samples");
        assert_eq!(s.median_in(None, None, 1), Some(5));
    }

    #[test]
    fn step_splits_hot_shard_at_sampled_median() {
        let idx = load(4_000, 4);
        let mut reb: Reb = Rebalancer::new();
        let sampler = reb.sampler();
        // Append-skew: everything lands on the last shard.
        for k in 4_000..8_000u64 {
            idx.insert(k, k);
            sampler.observe(k);
        }
        let outcome = step_through_trigger(&mut reb, &idx);
        let RebalanceOutcome::Split { shard, moved } = outcome else {
            panic!("expected split, got {outcome:?}");
        };
        assert_eq!(shard, 3, "the appended-to shard is the hot one");
        assert!(moved > 0);
        assert_eq!(idx.shard_count(), 5);
        // The new boundary came from the write stream: it lies inside
        // the appended key range, not the bulk-loaded one.
        let new_bound = idx.boundaries()[3];
        assert!(
            (4_000..8_000).contains(&new_bound),
            "boundary {new_bound} not drawn from the write stream"
        );
        assert_eq!(reb.stats().splits, 1);
        assert_eq!(reb.stats().moved_keys, moved as u64);
    }

    #[test]
    fn step_falls_back_to_stored_median_without_samples() {
        let idx = load(1_000, 2);
        for k in 1_000..4_000u64 {
            idx.insert(k, k); // hot, but nothing observed by the sampler
        }
        let mut reb: Reb = Rebalancer::new();
        assert!(matches!(
            step_through_trigger(&mut reb, &idx),
            RebalanceOutcome::Split { shard: 1, .. }
        ));
        assert_eq!(idx.shard_count(), 3);
    }

    #[test]
    fn hysteresis_defers_and_cooldown_pauses() {
        let idx = load(1_000, 2);
        for k in 1_000..4_000u64 {
            idx.insert(k, k);
        }
        let mut reb: Reb = Rebalancer::new();
        // Watching steps before the trigger fires on the last one.
        const { assert!(TRIGGER_STEPS > 1, "a split waits for a second look") };
        assert!(matches!(
            step_through_trigger(&mut reb, &idx),
            RebalanceOutcome::Split { .. }
        ));
        // Then the cooldown absorbs the next steps.
        const { assert!(COOLDOWN_STEPS > 0) };
        for _ in 0..COOLDOWN_STEPS {
            assert_eq!(reb.step(&idx), RebalanceOutcome::Cooldown);
        }
        assert_eq!(reb.stats().steps, u64::from(TRIGGER_STEPS + COOLDOWN_STEPS));
    }

    #[test]
    fn step_merges_cold_adjacent_pair() {
        let idx = load(4_000, 8);
        // Hollow out shards 5 and 6 (spans [2500,3000) and [3000,3500)):
        // occupancy [500×5, 2, 2, 500] keeps max/mean under the split
        // threshold while the cold pair sits far under MERGE_FRACTION.
        for k in 2_502..3_498u64 {
            idx.remove(&k);
        }
        let mut reb: Reb = Rebalancer::new();
        let outcome = reb.step(&idx);
        let RebalanceOutcome::Merge { shard, moved } = outcome else {
            panic!("expected merge, got {outcome:?}");
        };
        assert_eq!(shard, 5, "the two hollow shards merge");
        assert!(moved <= 4);
        assert_eq!(idx.shard_count(), 7);
        assert_eq!(reb.stats().merges, 1);
        // Contents intact.
        assert_eq!(idx.len(), 4_000 - (3_498 - 2_502) as usize);
    }

    #[test]
    fn quiet_index_stays_idle_and_respects_bounds() {
        let shards = MAX_SHARDS as u64;
        let idx = load(shards * 500, MAX_SHARDS);
        assert_eq!(idx.shard_count(), MAX_SHARDS);
        let mut reb: Reb = Rebalancer::new();
        // Balanced: idle.
        assert_eq!(reb.step(&idx), RebalanceOutcome::Idle);
        // Hot, but MAX_SHARDS forbids splitting.
        for k in shards * 500..shards * 1_000 {
            idx.insert(k, k);
        }
        for _ in 0..TRIGGER_STEPS {
            assert_eq!(reb.step(&idx), RebalanceOutcome::Idle);
        }
        assert_eq!(idx.shard_count(), MAX_SHARDS);
        // Cold, but a lone shard has no neighbour to merge with.
        let lone = load(4_000, 1);
        for k in 2..3_998u64 {
            lone.remove(&k);
        }
        assert_eq!(reb.step(&lone), RebalanceOutcome::Idle);
        assert_eq!(lone.shard_count(), 1);
        let empty: Idx = ShardedIndex::bulk_load(&(), 1, Vec::new()).unwrap();
        let mut reb2: Reb = Rebalancer::new();
        assert_eq!(reb2.step(&empty), RebalanceOutcome::Idle);
    }
}
