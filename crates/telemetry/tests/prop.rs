//! Seeded property tests for the log-scale histogram: bucket placement,
//! quantile error bounds, and merge semantics — plus the shard-merge
//! algebra the deterministic parallel session engine relies on
//! (associative, order-insensitive folds of registries and ledgers).

use asap_rng::check::{check, vec};
use asap_rng::StdRng;
use asap_telemetry::{
    bucket_bounds, bucket_index, Histogram, Telemetry, BUCKETS, MESSAGE_KINDS, OVERFLOW, UNDERFLOW,
};

/// One shard's worth of synthetic telemetry activity.
#[derive(Debug, Clone)]
struct ShardFeed {
    counter_adds: Vec<(u8, u64)>,
    gauge_highs: Vec<(u8, i64)>,
    histogram_values: Vec<f64>,
    ledger_records: Vec<(u8, u64)>,
}

fn shard_feed(rng: &mut StdRng) -> ShardFeed {
    ShardFeed {
        counter_adds: vec(rng, 0..12, |rng| {
            (rng.gen_range(0..4u32) as u8, rng.gen_range(0..1000))
        }),
        gauge_highs: vec(rng, 0..8, |rng| {
            (
                rng.gen_range(0..3u32) as u8,
                rng.gen_range(0..1000u64) as i64,
            )
        }),
        histogram_values: vec(rng, 0..20, |rng| rng.gen_range(0.01..1e6)),
        ledger_records: vec(rng, 0..12, |rng| {
            (rng.gen_range(0..13u32) as u8, rng.gen_range(0..50))
        }),
    }
}

fn apply_feed(t: &Telemetry, feed: &ShardFeed) {
    for &(which, n) in &feed.counter_adds {
        t.registry().counter(&format!("c{which}")).add(n);
    }
    for &(which, v) in &feed.gauge_highs {
        t.registry().gauge(&format!("g{which}")).raise(v);
    }
    for &v in &feed.histogram_values {
        t.registry().histogram("h").record(v);
    }
    for &(kind, n) in &feed.ledger_records {
        t.ledger()
            .scope("S")
            .record(MESSAGE_KINDS[kind as usize], n);
    }
}

fn merged_snapshot(feeds: &[ShardFeed], order: &[usize]) -> String {
    let root = Telemetry::new();
    for &i in order {
        let shard = Telemetry::new();
        apply_feed(&shard, &feeds[i]);
        root.merge_from(&shard);
    }
    root.snapshot_json()
}

/// Every positive finite value lands in a bucket whose bounds
/// contain it.
#[test]
fn recorded_values_land_in_their_bucket() {
    check(256, |rng| {
        let v = rng.gen_range(1e-6f64..1e12);
        let i = bucket_index(v);
        assert!(i < BUCKETS);
        let (lo, hi) = bucket_bounds(i);
        assert!(
            v >= lo && v < hi,
            "{v} placed in bucket {i} with bounds [{lo}, {hi})"
        );
    });
}

/// Bucket bounds tile the positive axis: consecutive finite buckets
/// share an edge, so no value can fall between buckets.
#[test]
fn buckets_tile_without_gaps() {
    check(256, |rng| {
        let i = rng.gen_range((UNDERFLOW + 1)..(OVERFLOW - 1));
        let (_, hi) = bucket_bounds(i);
        let (next_lo, _) = bucket_bounds(i + 1);
        assert_eq!(hi, next_lo);
    });
}

/// The quantile estimate is within one bucket width of the true
/// quantile of the recorded stream (values kept in the finite
/// bucket range so width is well defined).
#[test]
fn quantile_within_one_bucket_width() {
    check(256, |rng| {
        let values = vec(rng, 1..200, |rng| rng.gen_range(0.01f64..1e6));
        let q = rng.gen_range(0.0f64..=1.0);
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut values = values;
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * (values.len() - 1) as f64).floor() as usize).min(values.len() - 1);
        let truth = values[rank];
        let estimate = h.quantile(q).unwrap();
        let (lo, hi) = bucket_bounds(bucket_index(truth));
        let width = hi - lo;
        assert!(
            (estimate - truth).abs() <= width,
            "estimate {estimate} vs true {truth}, bucket width {width}"
        );
    });
}

/// Merging two histograms equals one histogram fed the concatenated
/// stream — same buckets, count, sum, and quantiles.
#[test]
fn merge_equals_concatenated_stream() {
    check(256, |rng| {
        let xs = vec(rng, 0..100, |rng| rng.gen_range(0.001f64..1e9));
        let ys = vec(rng, 0..100, |rng| rng.gen_range(0.001f64..1e9));
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for &v in &xs {
            a.record(v);
            all.record(v);
        }
        for &v in &ys {
            b.record(v);
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    });
}

/// Quantiles are never NaN: empty histograms answer `None` for
/// every q, and any non-empty histogram answers a finite value.
#[test]
fn quantile_is_none_on_empty_and_finite_otherwise() {
    check(256, |rng| {
        let values = vec(rng, 0..50, |rng| rng.gen_range(0.0001f64..1e10));
        let q = rng.gen_range(0.0f64..=1.0);
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        match h.quantile(q) {
            None => assert!(values.is_empty()),
            Some(est) => {
                assert!(!values.is_empty());
                assert!(est.is_finite(), "quantile({q}) = {est}");
            }
        }
    });
}

/// Folding shard telemetry is order-insensitive: merging the same
/// shard feeds in two different orders yields byte-identical
/// snapshots. This is the property that makes the parallel engine's
/// output independent of scheduling.
#[test]
fn shard_merge_is_order_insensitive() {
    check(256, |rng| {
        let feeds = vec(rng, 1..5, shard_feed);
        let seed = rng.gen_range(0u64..1000);
        let forward: Vec<usize> = (0..feeds.len()).collect();
        let mut shuffled = forward.clone();
        // Deterministic Fisher-Yates driven by the seed input.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        assert_eq!(
            merged_snapshot(&feeds, &forward),
            merged_snapshot(&feeds, &shuffled)
        );
    });
}

/// Folding shard telemetry is associative: merging shards one at a
/// time into the root equals pre-merging them pairwise first.
#[test]
fn shard_merge_is_associative() {
    check(256, |rng| {
        let feeds = vec(rng, 3..6, shard_feed);
        let flat: Vec<usize> = (0..feeds.len()).collect();
        let flat_result = merged_snapshot(&feeds, &flat);

        // Grouped: fold shards into two intermediate contexts, then
        // fold those into the root.
        let root = Telemetry::new();
        let mid = feeds.len() / 2;
        for group in [&feeds[..mid], &feeds[mid..]] {
            let intermediate = Telemetry::new();
            for feed in group {
                let shard = Telemetry::new();
                apply_feed(&shard, feed);
                intermediate.merge_from(&shard);
            }
            root.merge_from(&intermediate);
        }
        assert_eq!(root.snapshot_json(), flat_result);
    });
}

#[test]
fn empty_histogram_quantile_is_none_not_nan() {
    let h = Histogram::new();
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(q), None);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 0);
    assert_eq!(snap.p50, None);
    assert_eq!(snap.p99, None);
}

#[test]
fn single_value_histogram_quantiles_are_finite() {
    let h = Histogram::new();
    h.record(42.0);
    for q in [0.0, 0.5, 0.99, 1.0] {
        let est = h.quantile(q).expect("non-empty histogram yields Some");
        assert!(est.is_finite());
    }
}

#[test]
fn gauge_merge_keeps_high_water_mark() {
    let a = Telemetry::new();
    let b = Telemetry::new();
    a.registry().gauge("depth").raise(12);
    b.registry().gauge("depth").raise(9);
    a.merge_from(&b);
    assert_eq!(a.registry().gauge("depth").get(), 12);
    // And the other direction: the larger shard value wins.
    let c = Telemetry::new();
    c.registry().gauge("depth").raise(40);
    a.merge_from(&c);
    assert_eq!(a.registry().gauge("depth").get(), 40);
}
