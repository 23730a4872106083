//! The seeded op-stream generator and its answer oracle.
//!
//! One generator feeds every layer boundary. It owns a *shadow* of the
//! index — a bitmap with one bit per key slot — so every op it emits
//! carries the answer the program under test must give. The program
//! receives generated ops only; `--seed` is the only input that varies
//! a run.
//!
//! Key space: the loaded keys are `weblogs(n, seed) × 16`, so each
//! loaded key owns 16 *slots* (`key + 0 ..= key + 15`). Slot 0 is the
//! key itself, slot 7 is reserved for misses (never inserted), and the
//! other 14 take back-filled inserts. Appended keys continue the rank
//! space past the loaded maximum with the same stride.

use std::ops::Range;

/// Slots per rank (the multiplier applied to the dataset).
pub const GAP: u64 = 16;
/// The slot a miss probes; never inserted.
pub const MISS_SLOT: u64 = 7;
/// Ops generated (outside the timed region) and executed (inside) at a time.
pub const CHUNK: usize = 4096;
/// Ranks a `range100` scan spans.
pub const RANGE_RANKS: u64 = 100;
/// Marks the value of a back-filled key, so it cannot equal a rank.
const BACKFILL_TAG: u64 = 1 << 63;

/// splitmix64: the whole benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The loaded dataset: strictly increasing keys with gaps of at least
/// [`GAP`], value = rank.
#[derive(Debug)]
pub struct Fixture {
    pub keys: Vec<u64>,
}

impl Fixture {
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut keys = fiting_datasets::weblogs(n, seed);
        for k in &mut keys {
            *k *= GAP;
        }
        Fixture { keys }
    }

    /// Owned sorted pairs, as every layer's bulk load takes them.
    pub fn pairs(&self) -> Vec<(u64, u64)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(rank, &k)| (k, rank as u64))
            .collect()
    }

    pub fn n(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Key of `rank`; ranks past the loaded ones are appended keys.
    pub fn key(&self, rank: u64) -> u64 {
        match self.keys.get(rank as usize) {
            Some(&k) => k,
            None => self.keys[self.keys.len() - 1] + GAP * (rank - self.n() + 1),
        }
    }
}

/// How ranks are picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Picker {
    /// Uniform over every rank.
    Uniform,
    /// 90 % from the newest 1 % of ranks, 10 % uniform.
    Recent,
}

/// Op shares in percent; must sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub get: u64,
    pub insert: u64,
    pub remove: u64,
    pub range: u64,
}

/// Index into per-kind arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Insert = 1,
    Remove = 2,
    Range = 3,
}

pub const KINDS: [Kind; 4] = [Kind::Get, Kind::Insert, Kind::Remove, Kind::Range];

impl Kind {
    pub fn name(self) -> &'static str {
        ["get", "insert", "remove", "range"][self as usize]
    }
}

/// One generated op with its expected answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get {
        key: u64,
        expect: Option<u64>,
    },
    Insert {
        key: u64,
        value: u64,
        expect: Option<u64>,
    },
    Remove {
        key: u64,
        expect: Option<u64>,
    },
    /// Scan of `lo..hi`: `rows` entries, the first with key `first`.
    Range {
        lo: u64,
        hi: u64,
        rows: u32,
        first: u64,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get { .. } => Kind::Get,
            Op::Insert { .. } => Kind::Insert,
            Op::Remove { .. } => Kind::Remove,
            Op::Range { .. } => Kind::Range,
        }
    }
}

/// Bitmap over slots: which keys the index must hold right now.
#[derive(Debug)]
struct Shadow {
    bits: Vec<u64>,
    live: u64,
}

impl Shadow {
    fn loaded(n: u64) -> Self {
        // Slot 0 of every loaded rank: bit 0 of each 16-bit group.
        let words = (n * GAP).div_ceil(64) as usize;
        let mut bits = vec![0x0001_0001_0001_0001u64; words];
        let spare = words as u64 * 64 / GAP - n;
        if spare > 0 {
            let keep = 64 - spare * GAP;
            *bits.last_mut().expect("n > 0") &= (1u64 << keep) - 1;
        }
        Shadow { bits, live: n }
    }

    fn has(&self, slot: u64) -> bool {
        self.bits
            .get((slot / 64) as usize)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    fn set(&mut self, slot: u64) {
        let word = (slot / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize((word + 1).next_power_of_two(), 0);
        }
        if !self.has(slot) {
            self.bits[word] |= 1 << (slot % 64);
            self.live += 1;
        }
    }

    fn clear(&mut self, slot: u64) {
        if self.has(slot) {
            self.bits[(slot / 64) as usize] &= !(1 << (slot % 64));
            self.live -= 1;
        }
    }

    /// Set bits in `slots`, and the first of them.
    fn scan(&self, slots: Range<u64>) -> (u32, Option<u64>) {
        let (mut rows, mut first) = (0, None);
        let mut at = slots.start;
        while at < slots.end {
            let word = self.bits.get((at / 64) as usize).copied().unwrap_or(0);
            let upto = (at / 64 * 64 + 64).min(slots.end);
            let mut masked = word >> (at % 64);
            if upto - at < 64 {
                masked &= (1u64 << (upto - at)) - 1;
            }
            if masked != 0 {
                first.get_or_insert(at + u64::from(masked.trailing_zeros()));
                rows += masked.count_ones();
            }
            at = upto;
        }
        (rows, first)
    }
}

/// The value stored under `slot`: the rank for a loaded or appended
/// key, a tagged slot number for a back-filled one.
pub fn value_of(slot: u64) -> u64 {
    if slot.is_multiple_of(GAP) {
        slot / GAP
    } else {
        BACKFILL_TAG | slot
    }
}

/// Emits ops and tracks the state they leave behind.
#[derive(Debug)]
pub struct Generator<'a> {
    fixture: &'a Fixture,
    rng: SplitMix64,
    shadow: Shadow,
    mix: Mix,
    picker: Picker,
    /// Ranks in use: loaded plus appended so far.
    total: u64,
    hash: u64,
}

impl<'a> Generator<'a> {
    pub fn new(fixture: &'a Fixture, seed: u64, mix: Mix, picker: Picker) -> Self {
        assert_eq!(mix.get + mix.insert + mix.remove + mix.range, 100);
        Generator {
            fixture,
            rng: SplitMix64::new(seed ^ 0x6f70_2d73_7472_6561), // "op-strea"
            shadow: Shadow::loaded(fixture.n()),
            mix,
            picker,
            total: fixture.n(),
            hash: 0,
        }
    }

    /// Replaces the op mix; the key state carries over.
    pub fn set_mix(&mut self, mix: Mix) {
        assert_eq!(mix.get + mix.insert + mix.remove + mix.range, 100);
        self.mix = mix;
    }

    /// Entries the index must hold after every op emitted so far.
    pub fn live(&self) -> u64 {
        self.shadow.live
    }

    /// Order-sensitive hash of every op emitted so far.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn key_of_slot(&self, slot: u64) -> u64 {
        self.fixture.key(slot / GAP) + slot % GAP
    }

    fn pick_rank(&mut self) -> u64 {
        match self.picker {
            Picker::Recent if self.rng.below(10) != 0 => {
                self.total - 1 - self.rng.below((self.total / 100).max(1))
            }
            _ => self.rng.below(self.total),
        }
    }

    fn expect(&self, slot: u64) -> Option<u64> {
        self.shadow.has(slot).then(|| value_of(slot))
    }

    fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let Mix {
            get,
            insert,
            remove,
            ..
        } = self.mix;
        if roll < get {
            let rank = self.pick_rank();
            let miss = self.rng.below(10) == 0;
            let slot = rank * GAP + if miss { MISS_SLOT } else { 0 };
            Op::Get {
                key: self.key_of_slot(slot),
                expect: self.expect(slot),
            }
        } else if roll < get + insert {
            // ¼ back-filled into a gap slot, ¾ appended past the maximum.
            let slot = if self.rng.below(4) == 0 {
                let rank = self.pick_rank();
                let j = 1 + self.rng.below(GAP - 2);
                rank * GAP + if j >= MISS_SLOT { j + 1 } else { j }
            } else {
                self.total += 1;
                (self.total - 1) * GAP
            };
            let expect = self.expect(slot);
            self.shadow.set(slot);
            Op::Insert {
                key: self.key_of_slot(slot),
                value: value_of(slot),
                expect,
            }
        } else if roll < get + insert + remove {
            let slot = self.pick_rank() * GAP;
            let expect = self.expect(slot);
            self.shadow.clear(slot);
            Op::Remove {
                key: self.key_of_slot(slot),
                expect,
            }
        } else {
            let rank = self.pick_rank();
            let end = (rank + RANGE_RANKS).min(self.total);
            let (rows, first) = self.shadow.scan(rank * GAP..end * GAP);
            Op::Range {
                lo: self.fixture.key(rank),
                hi: self.fixture.key(end),
                rows,
                first: first.map_or(0, |slot| self.key_of_slot(slot)),
            }
        }
    }

    /// Replaces `out` with the next `count` ops.
    pub fn fill(&mut self, out: &mut Vec<Op>, count: usize) {
        out.clear();
        for _ in 0..count {
            let op = self.next_op();
            let (a, b) = match op {
                Op::Get { key, expect } => (key, expect.map_or(1, |v| v << 2)),
                Op::Insert { key, expect, .. } => (key, expect.map_or(2, |v| v << 2 | 2)),
                Op::Remove { key, expect } => (key, expect.map_or(3, |v| v << 2 | 3)),
                Op::Range {
                    lo, rows, first, ..
                } => (lo ^ first.rotate_left(17), u64::from(rows)),
            };
            self.hash = mix64(self.hash ^ a).wrapping_add(mix64(b ^ op.kind() as u64));
            out.push(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const CHURN: Mix = Mix {
        get: 50,
        insert: 35,
        remove: 5,
        range: 10,
    };

    fn stream_hash(seed: u64) -> u64 {
        let fixture = Fixture::generate(20_000, seed);
        let mut gen = Generator::new(&fixture, seed, CHURN, Picker::Recent);
        let mut ops = Vec::new();
        for _ in 0..8 {
            gen.fill(&mut ops, CHUNK);
        }
        gen.stream_hash()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream_hash(42), stream_hash(42));
        assert_ne!(stream_hash(42), stream_hash(7));
    }

    #[test]
    fn loaded_shadow_has_exactly_the_rank_slots() {
        for n in [1u64, 3, 4, 5, 64, 1001] {
            let shadow = Shadow::loaded(n);
            assert_eq!(shadow.scan(0..(n + 8) * GAP), (n as u32, Some(0)), "n={n}");
            assert!(shadow.has((n - 1) * GAP) && !shadow.has(n * GAP));
        }
    }

    /// The oracle itself is checked against a `BTreeMap` that replays
    /// the emitted ops: every expected answer must be what the map gives.
    #[test]
    fn expected_answers_match_a_btreemap_replay() {
        for picker in [Picker::Uniform, Picker::Recent] {
            let fixture = Fixture::generate(5_000, 9);
            let mut model: BTreeMap<u64, u64> = fixture.pairs().into_iter().collect();
            let mut gen = Generator::new(&fixture, 9, CHURN, picker);
            let mut ops = Vec::new();
            for _ in 0..6 {
                gen.fill(&mut ops, CHUNK);
                for op in &ops {
                    match *op {
                        Op::Get { key, expect } => assert_eq!(model.get(&key).copied(), expect),
                        Op::Insert { key, value, expect } => {
                            assert_eq!(model.insert(key, value), expect);
                        }
                        Op::Remove { key, expect } => assert_eq!(model.remove(&key), expect),
                        Op::Range {
                            lo,
                            hi,
                            rows,
                            first,
                        } => {
                            let mut scan = model.range(lo..hi);
                            let head = scan.next().map_or(0, |(&k, _)| k);
                            assert_eq!(
                                (scan.count() as u32 + u32::from(head != 0), head),
                                (rows, first)
                            );
                        }
                    }
                }
                assert_eq!(gen.live(), model.len() as u64);
            }
        }
    }

    #[test]
    fn misses_probe_a_slot_no_insert_ever_fills() {
        let fixture = Fixture::generate(2_000, 3);
        let mut gen = Generator::new(&fixture, 3, CHURN, Picker::Uniform);
        let mut ops = Vec::new();
        gen.fill(&mut ops, 4 * CHUNK);
        assert!(ops.iter().all(|op| match *op {
            Op::Insert { key, .. } => key % GAP != MISS_SLOT,
            _ => true,
        }));
        assert!(ops
            .iter()
            .any(|op| matches!(*op, Op::Get { expect: None, .. })));
    }
}
