//! Seeded inputs: the key shuffle for prefill and the per-client operation
//! streams. The seed reaches nothing else.

/// Keys are drawn from `0..KEY_RANGE`. The paper (§6) uses 100 000; this is
/// smaller so that every structure stays inside one core's L2 cache (2 MiB
/// on the host this was sized on). Beyond L2 a request is made of misses to
/// a last-level cache shared with the host's other tenants, and its time
/// drifts by 15-30 % from one minute to the next.
pub const KEY_RANGE: u64 = 8_192;
/// Keys inserted before the run (half the range, as in the paper).
pub const PREFILL: usize = 4_096;

/// Every stored value is `key ^ VALUE_MASK`, so a `get` or `remove` that
/// returns another key's value is detected.
const VALUE_MASK: u64 = 0x5bd1_e995_9e37_79b9;

pub fn value_of(key: u64) -> u64 {
    key ^ VALUE_MASK
}

/// xorshift64* seeded through one SplitMix64 step.
#[derive(Clone)]
pub struct Rng(u64);

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        // xorshift must not start from zero.
        Rng(splitmix(seed) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A draw from `0..n` (multiply-high; the bias is below 2^-40 for the
    /// ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// All keys of the range in seeded-shuffled order; prefill inserts the
/// first [`PREFILL`]. Sorted insertion would turn the external BST into a
/// list.
pub fn shuffled_keys(seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..KEY_RANGE).collect();
    let mut rng = Rng::new(seed ^ 0x5eed_0f5e_ed00);
    for i in (1..keys.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        keys.swap(i, j);
    }
    keys
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Insert,
    Remove,
}

/// Percentages of gets and inserts; the rest are removes.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get_pct: u64,
    pub insert_pct: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDist {
    Uniform,
    /// Minimum of two uniform draws: mass concentrates on low keys, the way
    /// `smr_async::run_kv_service` skews its cache keys.
    MinOfTwo,
}

/// One client's operation stream, a pure function of `(seed, round,
/// client)`.
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    dist: KeyDist,
}

impl OpStream {
    pub fn new(mix: Mix, dist: KeyDist, seed: u64, round: u64, client: u64) -> Self {
        let stream = splitmix(seed.wrapping_add(round)) ^ splitmix(client.wrapping_add(0xc11e));
        OpStream {
            rng: Rng::new(stream),
            mix,
            dist,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> (Op, u64) {
        let roll = self.rng.below(100);
        let key = match self.dist {
            KeyDist::Uniform => self.rng.below(KEY_RANGE),
            KeyDist::MinOfTwo => self.rng.below(KEY_RANGE).min(self.rng.below(KEY_RANGE)),
        };
        let op = if roll < self.mix.get_pct {
            Op::Get
        } else if roll < self.mix.get_pct + self.mix.insert_pct {
            Op::Insert
        } else {
            Op::Remove
        };
        (op, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WRITE: Mix = Mix {
        get_pct: 0,
        insert_pct: 50,
    };

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled_keys(7);
        assert_eq!(a, shuffled_keys(7), "same seed, same order");
        assert_ne!(a, shuffled_keys(8), "another seed, another order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..KEY_RANGE));
        // Not sorted: the longest ascending run of a shuffle is short.
        let longest_run = a
            .windows(2)
            .fold((1usize, 1usize), |(best, run), w| {
                let run = if w[1] > w[0] { run + 1 } else { 1 };
                (best.max(run), run)
            })
            .0;
        assert!(longest_run < 32, "ascending run of {longest_run}");
    }

    fn take(seed: u64, round: u64, client: u64, n: usize) -> Vec<(Op, u64)> {
        let mut s = OpStream::new(WRITE, KeyDist::Uniform, seed, round, client);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn streams_repeat_per_seed_round_client() {
        let base = take(1, 0, 0, 256);
        assert_eq!(base, take(1, 0, 0, 256));
        assert_ne!(base, take(2, 0, 0, 256), "seed changes the stream");
        assert_ne!(base, take(1, 1, 0, 256), "round changes the stream");
        assert_ne!(base, take(1, 0, 1, 256), "client changes the stream");
        // seed + round is the trial seed, so (1, 1) and (2, 0) coincide by
        // design: a run with seed 2 starts where round 1 of seed 1 started.
        assert_eq!(take(1, 1, 0, 256), take(2, 0, 0, 256));
    }

    #[test]
    fn mix_and_keys_stay_in_bounds() {
        let mix = Mix {
            get_pct: 90,
            insert_pct: 5,
        };
        let mut s = OpStream::new(mix, KeyDist::MinOfTwo, 3, 0, 0);
        let (mut gets, mut inserts, mut low) = (0u32, 0u32, 0u32);
        for _ in 0..100_000 {
            let (op, key) = s.next_op();
            assert!(key < KEY_RANGE);
            gets += u32::from(op == Op::Get);
            inserts += u32::from(op == Op::Insert);
            low += u32::from(key < KEY_RANGE / 2);
        }
        assert!((89_000..91_000).contains(&gets), "{gets} gets");
        assert!((4_500..5_500).contains(&inserts), "{inserts} inserts");
        // P(min of two < half) = 3/4.
        assert!((74_000..76_000).contains(&low), "{low} low keys");
    }

    #[test]
    fn values_identify_their_key() {
        assert_ne!(value_of(1), value_of(2));
        assert_eq!(value_of(5) ^ value_of(0), 5);
    }
}
