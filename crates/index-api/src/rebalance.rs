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
//! * [`RebalancePolicy`] says when to act: split when the fullest
//!   shard's occupancy exceeds `split_imbalance ×` the mean for
//!   `trigger_steps` consecutive observations (hysteresis), merge when
//!   an adjacent pair is colder than 0.4 × the mean, and
//!   wait `cooldown_steps` after every action so one burst cannot
//!   thrash the layout.
//! * [`Rebalancer`] owns both and exposes one
//!   [`step`](Rebalancer::step): snapshot occupancy, decide, act. The
//!   split boundary is the median of the sampled writes inside the hot
//!   shard's span, falling back to the shard's own stored median when
//!   the sample is too thin.
//!
//! Each `step` performs at most one split *or* one merge, so a
//! coordinator can run it on a timer and stay comprehensible.
//!
//! ```
//! use fiting_index_api::{BinarySearchIndex, RebalanceOutcome, RebalancePolicy, Rebalancer, ShardedIndex};
//!
//! // Bulk-load 4 balanced shards, then append a hot tail.
//! let pairs: Vec<(u64, u64)> = (0..4_000).map(|k| (k, k)).collect();
//! let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
//!     ShardedIndex::bulk_load(&(), 4, pairs).unwrap();
//!
//! let policy = RebalancePolicy {
//!     trigger_steps: 1,
//!     cooldown_steps: 0,
//!     ..RebalancePolicy::default()
//! };
//! let mut rebalancer: Rebalancer<u64> = Rebalancer::new(policy);
//!
//! let sampler = rebalancer.sampler();
//! for k in 4_000..8_000u64 {
//!     index.insert(k, k); // all of this lands on the last shard…
//!     sampler.observe(k); // …and the sampler watches it happen
//! }
//!
//! // One step: the hot shard splits at the sampled write median.
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

/// When and how aggressively to move shard boundaries.
///
/// The defaults favor stability: act only on a sustained 1.5× hot
/// shard, then hold off for two steps. Benchmarks and tests tighten
/// `trigger_steps`/`cooldown_steps` to make rebalances prompt.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// Split when the fullest shard's entries exceed this multiple of
    /// the mean (`max/mean`, the same ratio `ServiceStats::imbalance`
    /// reports). Must be > 1.
    pub split_imbalance: f64,
    /// Never split a shard holding fewer entries than this — tiny
    /// shards are cheap to search and expensive to fragment.
    pub min_split_entries: usize,
    /// Lower bound on the shard count; merges stop here.
    pub min_shards: usize,
    /// Upper bound on the shard count; splits stop here.
    pub max_shards: usize,
    /// Consecutive over-threshold observations required before a split
    /// fires — one hysteresis knob (a single spiky snapshot does not
    /// move boundaries).
    pub trigger_steps: u32,
    /// Steps to sit out after any split or merge — the other
    /// hysteresis knob (layout changes get time to settle before the
    /// next decision).
    pub cooldown_steps: u32,
    /// Minimum sampled keys inside the hot shard's span for the sample
    /// median to be trusted as a split boundary; below this the shard's
    /// own stored median is used instead.
    pub min_reservoir_samples: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            split_imbalance: 1.5,
            min_split_entries: 512,
            min_shards: 1,
            max_shards: 64,
            trigger_steps: 2,
            cooldown_steps: 2,
            min_reservoir_samples: 16,
        }
    }
}

struct SamplerState<K> {
    sample: Vec<K>,
    /// Effective number of observations the reservoir represents;
    /// halved on decay so old observations lose retention probability.
    weight: u64,
    since_decay: u64,
    rng: StdRng,
}

/// A thread-safe, exponentially decaying reservoir sample of a key
/// stream — the source of split boundaries that track where writes
/// are landing *now* rather than where data sat at load time.
///
/// [`observe`](Self::observe) is one short mutex hold (a handful of
/// arithmetic ops and at most one slot write), cheap enough to call
/// per applied write; batch paths can use
/// [`observe_all`](Self::observe_all) to take the lock once.
///
/// ```
/// use fiting_index_api::WriteSampler;
///
/// let sampler: WriteSampler<u64> = WriteSampler::new(64, 256, 42);
/// sampler.observe_all((0..10_000u64).rev()); // skewed arrival order is fine
/// // The reservoir holds at most its capacity, however long the stream.
/// assert_eq!(sampler.len(), 64);
/// ```
pub struct WriteSampler<K> {
    capacity: usize,
    decay_every: u64,
    state: Mutex<SamplerState<K>>,
}

impl<K: Key> WriteSampler<K> {
    /// A sampler holding at most `capacity` keys, halving its
    /// effective population every `decay_every` observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `decay_every == 0`.
    #[must_use]
    pub fn new(capacity: usize, decay_every: u64, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir needs capacity");
        assert!(decay_every > 0, "decay interval must be positive");
        WriteSampler {
            capacity,
            decay_every,
            state: Mutex::new(SamplerState {
                sample: Vec::with_capacity(capacity),
                weight: 0,
                since_decay: 0,
                rng: StdRng::seed_from_u64(seed),
            }),
        }
    }

    /// Records one written key (classic reservoir sampling over the
    /// decayed effective population).
    pub fn observe(&self, key: K) {
        let mut state = self.state.lock();
        self.observe_locked(&mut state, key);
    }

    /// Records a batch of written keys under one lock acquisition.
    pub fn observe_all<It: IntoIterator<Item = K>>(&self, keys: It) {
        let mut state = self.state.lock();
        for key in keys {
            self.observe_locked(&mut state, key);
        }
    }

    fn observe_locked(&self, state: &mut SamplerState<K>, key: K) {
        state.weight += 1;
        state.since_decay += 1;
        if state.sample.len() < self.capacity {
            state.sample.push(key);
        } else {
            // Replace with probability capacity/weight — uniform over
            // the (decayed) population, per Algorithm R.
            let j = state.rng.gen_range(0..state.weight as usize);
            if j < self.capacity {
                state.sample[j] = key;
            }
        }
        if state.since_decay >= self.decay_every {
            state.since_decay = 0;
            // Halving the effective population doubles every future
            // key's replacement probability: exponential decay of the
            // old sample's retention.
            state.weight = (state.weight / 2).max(state.sample.len() as u64);
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
    /// `trigger_steps` observations yet (hysteresis), or no usable
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

/// Drives online rebalancing of a [`ShardedIndex`]: owns the policy
/// and the write sampler, and turns occupancy snapshots into
/// split/merge calls — one action per [`step`](Self::step) at most.
///
/// The service layer runs `step` from a coordinator thread on a timer
/// (`IndexService::start_rebalancing` in `fiting-index-service`);
/// embedders without the service can call it from any maintenance
/// loop. See the [module docs](self) for a worked example.
pub struct Rebalancer<K: Key> {
    policy: RebalancePolicy,
    sampler: Arc<WriteSampler<K>>,
    counters: Arc<RebalanceCounters>,
    hot_streak: u32,
    cooldown: u32,
}

/// Merge an adjacent pair whose *combined* entries fall below this
/// fraction of the mean shard occupancy. Well under any sensible
/// `split_imbalance`, so a merge cannot immediately re-trigger a split
/// (hysteresis between the two actions).
const MERGE_FRACTION: f64 = 0.4;
/// Capacity of the decaying reservoir sample of written keys.
const RESERVOIR_CAPACITY: usize = 1_024;
/// Observed writes between reservoir decays (each decay halves the
/// effective population, so recent writes displace old ones).
const DECAY_EVERY: u64 = 8_192;
/// Seed for the reservoir's replacement choices (runs are repeatable).
const SAMPLER_SEED: u64 = 0x5EED;

impl<K: Key> Rebalancer<K> {
    /// A rebalancer that decides according to `policy`.
    #[must_use]
    pub fn new(policy: RebalancePolicy) -> Self {
        let sampler = Arc::new(WriteSampler::new(
            RESERVOIR_CAPACITY,
            DECAY_EVERY,
            SAMPLER_SEED,
        ));
        Rebalancer {
            policy,
            sampler,
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

    /// The policy this rebalancer decides by.
    #[must_use]
    pub fn policy(&self) -> &RebalancePolicy {
        &self.policy
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
        let lens = index.shard_lens();
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

        if lens.len() < self.policy.max_shards
            && imbalance > self.policy.split_imbalance
            && hot_len >= self.policy.min_split_entries
        {
            self.hot_streak += 1;
            if self.hot_streak < self.policy.trigger_steps {
                return RebalanceOutcome::Watching;
            }
            let Some((lo, hi)) = index.shard_span(hot) else {
                return RebalanceOutcome::Watching;
            };
            let at = self
                .sampler
                .median_in(lo, hi, self.policy.min_reservoir_samples)
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
                    self.cooldown = self.policy.cooldown_steps;
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

        if lens.len() > self.policy.min_shards.max(1) {
            let (cold, pair_sum) = lens
                .windows(2)
                .enumerate()
                .map(|(i, w)| (i, w[0] + w[1]))
                .min_by_key(|&(_, sum)| sum)
                .expect("at least two shards");
            if (pair_sum as f64) <= mean * MERGE_FRACTION {
                if let Ok(moved) = index.merge_with_next(cold) {
                    self.counters.merges.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .moved_keys
                        .fetch_add(moved as u64, Ordering::Relaxed);
                    self.cooldown = self.policy.cooldown_steps;
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

    fn prompt_policy() -> RebalancePolicy {
        RebalancePolicy {
            trigger_steps: 1,
            cooldown_steps: 0,
            min_split_entries: 64,
            ..RebalancePolicy::default()
        }
    }

    #[test]
    fn sampler_tracks_recent_distribution() {
        let s: WriteSampler<u64> = WriteSampler::new(128, 512, 7);
        // Old regime: keys near 0. New regime: keys near 1e6.
        s.observe_all(0..4_096u64);
        s.observe_all((0..4_096u64).map(|k| 1_000_000 + k));
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
        let s: WriteSampler<u64> = WriteSampler::new(16, 64, 1);
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
        let mut reb: Reb = Rebalancer::new(prompt_policy());
        let sampler = reb.sampler();
        // Append-skew: everything lands on the last shard.
        for k in 4_000..8_000u64 {
            idx.insert(k, k);
            sampler.observe(k);
        }
        let outcome = reb.step(&idx);
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
        let mut reb: Reb = Rebalancer::new(prompt_policy());
        assert!(matches!(
            reb.step(&idx),
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
        let policy = RebalancePolicy {
            trigger_steps: 3,
            cooldown_steps: 2,
            min_split_entries: 64,
            ..RebalancePolicy::default()
        };
        let mut reb: Reb = Rebalancer::new(policy);
        // Two watching steps before the trigger fires on the third.
        assert_eq!(reb.step(&idx), RebalanceOutcome::Watching);
        assert_eq!(reb.step(&idx), RebalanceOutcome::Watching);
        assert!(matches!(reb.step(&idx), RebalanceOutcome::Split { .. }));
        // Then the cooldown absorbs the next two steps.
        assert_eq!(reb.step(&idx), RebalanceOutcome::Cooldown);
        assert_eq!(reb.step(&idx), RebalanceOutcome::Cooldown);
        assert_eq!(reb.stats().steps, 5);
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
        let mut reb: Reb = Rebalancer::new(prompt_policy());
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
        let idx = load(4_000, 4);
        let mut reb: Reb = Rebalancer::new(RebalancePolicy {
            min_shards: 4,
            max_shards: 4,
            trigger_steps: 1,
            cooldown_steps: 0,
            ..RebalancePolicy::default()
        });
        // Balanced: idle.
        assert_eq!(reb.step(&idx), RebalanceOutcome::Idle);
        // Hot, but max_shards forbids splitting.
        for k in 4_000..8_000u64 {
            idx.insert(k, k);
        }
        assert_eq!(reb.step(&idx), RebalanceOutcome::Idle);
        assert_eq!(idx.shard_count(), 4);
        // Cold pair, but min_shards forbids merging.
        for k in 1_002..2_998u64 {
            idx.remove(&k);
        }
        assert_eq!(reb.step(&idx), RebalanceOutcome::Idle);
        assert_eq!(idx.shard_count(), 4);
        let empty: Idx = ShardedIndex::bulk_load(&(), 1, Vec::new()).unwrap();
        let mut reb2: Reb = Rebalancer::new(prompt_policy());
        assert_eq!(reb2.step(&empty), RebalanceOutcome::Idle);
    }
}
