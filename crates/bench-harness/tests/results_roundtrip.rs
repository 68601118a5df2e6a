//! Property test: every `BenchRecord` field survives encode→decode.
//! (`schema` is fixed: only the current version decodes.)
//!
//! Strings are drawn from a charset that covers JSON's escape-sensitive
//! characters (quotes, backslashes, control characters, non-ASCII,
//! astral-plane emoji), integers cover the full u64/i64 ranges, and floats
//! are arbitrary finite non-NaN ratios — Rust's shortest-round-trip float
//! formatting must bring every one of them back bit-exactly.

use bench_harness::results::{BenchRecord, SCHEMA_VERSION};
use proptest::prelude::*;

/// Escape-sensitive characters a JSON string encoder must survive.
const CHARSET: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    ',',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0008}',
    '\u{000C}',
    '\u{0001}',
    '\u{001F}',
    'é',
    '控',
    '\u{1F600}',
    ':',
    '{',
    '}',
    '[',
    ']',
];

fn string_from(indices: Vec<usize>) -> String {
    indices.into_iter().map(|i| CHARSET[i]).collect()
}

/// A finite, NaN-free float from two integers (denominator is never zero).
fn ratio(num: u64, den: u64, negative: bool) -> f64 {
    let v = num as f64 / (den as f64 + 1.0);
    if negative {
        -v
    } else {
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn every_field_survives_encode_decode(
        figure in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        scheme in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        structure in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        mix in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        timestamp in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        git_sha_some in any::<bool>(),
        git_sha in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        ints in (any::<u64>(), any::<u64>(), any::<u64>()),
        more_ints in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        counters in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        config_ints in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ack_threshold in any::<i64>(),
        flags in (any::<bool>(), any::<bool>()),
        secs_parts in (any::<u64>(), any::<u64>()),
        mops_parts in (any::<u64>(), any::<u64>(), any::<bool>()),
        unrec_parts in (any::<u64>(), any::<u64>(), any::<bool>()),
    ) {
        let record = BenchRecord {
            schema: SCHEMA_VERSION,
            figure: string_from(figure),
            scheme: string_from(scheme),
            structure: string_from(structure),
            mix: string_from(mix),
            threads: ints.0,
            stalled: ints.1,
            secs: ratio(secs_parts.0, secs_parts.1, false),
            trials: ints.2,
            prefill: more_ints.0,
            key_range: more_ints.1,
            sample_every: more_ints.2,
            use_trim: flags.0,
            trim_window: more_ints.3,
            seed: counters.0,
            slots: config_ints.0,
            batch_min: config_ints.1,
            era_freq: config_ints.2,
            scan_threshold: config_ints.3,
            max_protect: counters.1 % 1024,
            ack_threshold,
            adaptive: flags.1,
            max_threads: counters.2 % (1 << 32),
            shards: counters.3 % (1 << 16),
            handoff_attempts: counters.2 ^ more_ints.1,
            recycle: flags.0 ^ flags.1,
            recycle_capacity: counters.3 ^ more_ints.2,
            recycle_magazine: counters.0 ^ more_ints.3,
            git_sha: git_sha_some.then(|| string_from(git_sha)),
            host_cores: counters.3,
            timestamp: string_from(timestamp),
            mops: ratio(mops_parts.0, mops_parts.1, mops_parts.2),
            avg_unreclaimed: ratio(unrec_parts.0, unrec_parts.1, unrec_parts.2),
            ops: counters.0 ^ counters.1,
            retired: counters.1 ^ counters.2,
            freed: counters.2 ^ counters.3,
            pool_hits: counters.3 ^ more_ints.0,
            pool_misses: counters.0 ^ more_ints.1,
            recycled: counters.1 ^ more_ints.2,
        };
        let line = record.encode();
        // JSONL invariant: exactly one line per record.
        prop_assert!(!line.contains('\n'), "embedded newline in {line:?}");
        let decoded = BenchRecord::decode(&line)
            .unwrap_or_else(|e| panic!("decode failed: {e}\nline: {line}"));
        prop_assert_eq!(decoded, record);
    }
}
