//! Telemetry-primitive coverage: the log-scale [`Histogram`] and the
//! bounded ring span recorder added for the always-on daemon.
//!
//! Property tests (on the seeded case runner in `tests/common`):
//!
//! * every recorded value lands in the bucket whose bounds contain it,
//! * quantile estimates are monotone in `q`, and
//! * merging per-shard snapshots equals recording every observation into
//!   one histogram.
//!
//! Plus ring-recorder semantics: overwrite keeps the newest spans, the
//! overwritten count is reported, and `chrome_trace` of a wrapped ring is
//! still valid JSON.
//!
//! The obs registry is process-global, so every test that reconfigures it
//! serializes on [`OBS_LOCK`] and restores the disabled default on exit.

use fs_core::obs::hist::{bucket_hi, bucket_index, bucket_lo, NUM_BUCKETS};
use fs_core::obs::{self, Histogram, ObsConfig};

mod common;

use common::cases;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Lock the global obs registry (tolerating poisoning from a failed test)
/// and turn counters on so `record_ns` actually records.
fn lock_counters_on() -> std::sync::MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(ObsConfig {
        spans: false,
        counters: true,
        ring: None,
    });
    guard
}

/// A recorded value increments exactly the bucket whose inclusive bounds
/// contain it. `base << shift` sweeps every octave, not just the small
/// values a plain range would favor.
#[test]
fn recorded_value_lands_in_its_bucket() {
    let _obs = lock_counters_on();
    cases("recorded_value_lands_in_its_bucket", 256, |rng| {
        let v = rng.int(0u64..=4095) << rng.int(0..=51);
        let h = Histogram::new("test.prop_bucket");
        h.record_ns(v);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, v);
        let i = bucket_index(v);
        assert!(i < NUM_BUCKETS);
        assert_eq!(s.buckets[i], 1, "v={v} bucket={i}");
        let (lo, hi) = (bucket_lo(i), bucket_hi(i));
        assert!(
            lo <= v && v <= hi,
            "v={v} outside bucket {i} = [{lo}, {hi}]"
        );
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
    });
}

/// Draw 1..=63 values in `0..=max`.
fn values(rng: &mut common::Rng, max: u64) -> Vec<u64> {
    (0..rng.int(1..=63)).map(|_| rng.int(0..=max)).collect()
}

/// Quantile estimates never decrease as `q` grows, and are bracketed by
/// the estimates at q=0 and q=1.
#[test]
fn quantiles_are_monotone_in_q() {
    let _obs = lock_counters_on();
    cases("quantiles_are_monotone_in_q", 128, |rng| {
        let values = values(rng, 1_999_999_999);
        let h = Histogram::new("test.prop_quantile");
        for &v in &values {
            h.record_ns(v);
        }
        let s = h.snapshot();
        let (qa, qb) = (rng.unit(), rng.unit());
        let (lo_q, hi_q) = (qa.min(qb), qa.max(qb));
        assert!(
            s.quantile(lo_q) <= s.quantile(hi_q),
            "quantile({lo_q}) > quantile({hi_q})"
        );
        assert!(s.quantile(0.0) <= s.quantile(lo_q));
        assert!(s.quantile(hi_q) <= s.quantile(1.0));
        // The max estimate covers the true max (errs high by one bucket).
        assert!(s.quantile(1.0) >= *values.iter().max().unwrap());
    });
}

/// Splitting a stream across two histograms and merging the snapshots is
/// indistinguishable from recording everything into one — the property
/// that makes per-interval / per-shard aggregation sound.
#[test]
fn merge_equals_recording_into_one() {
    let _obs = lock_counters_on();
    cases("merge_equals_recording_into_one", 128, |rng| {
        let values = values(rng, (1 << 48) - 1);
        let cut = rng.int(0..=values.len());
        let (left, right) = values.split_at(cut);
        let h_left = Histogram::new("test.prop_merge");
        let h_right = Histogram::new("test.prop_merge");
        let h_all = Histogram::new("test.prop_merge");
        for &v in left {
            h_left.record_ns(v);
        }
        for &v in right {
            h_right.record_ns(v);
        }
        for &v in &values {
            h_all.record_ns(v);
        }
        let mut merged = h_left.snapshot();
        merged.merge(&h_right.snapshot());
        let all = h_all.snapshot();
        assert_eq!(merged.count, all.count);
        assert_eq!(merged.sum, all.sum);
        assert_eq!(merged.buckets, all.buckets);
        // The Prometheus series agrees too: final cumulative == count.
        let cum = merged.cumulative_buckets();
        assert_eq!(cum.last().map(|&(_, c)| c), Some(merged.count));
    });
}

#[test]
fn ring_overwrite_keeps_newest_spans_and_valid_chrome_trace() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(ObsConfig::ring(4));
    obs::reset();

    // 3 old spans, then 5 new ones: a capacity-4 ring must retain the
    // newest 4 (all "telemetry.new") and report 4 overwrites.
    for _ in 0..3 {
        let _span = obs::span("telemetry.old");
    }
    for _ in 0..5 {
        let _span = obs::span("telemetry.new");
    }
    let snap = obs::snapshot();
    assert_eq!(snap.spans.len(), 4, "ring holds exactly its capacity");
    assert!(
        snap.spans.iter().all(|s| s.name == "telemetry.new"),
        "overwrite must evict oldest-first: {:?}",
        snap.spans.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    assert_eq!(snap.dropped_spans, 4, "3 old + 1 surplus new overwritten");
    // Retained spans stay in chronological order after wraparound.
    assert!(snap
        .spans
        .windows(2)
        .all(|w| w[0].start_ns <= w[1].start_ns));

    // A wrapped ring still exports as well-formed Chrome trace JSON.
    let trace = obs::trace::chrome_trace(&snap);
    let doc = fs_core::json::parse(&trace).expect("chrome_trace emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| match e {
            fs_core::JsonValue::Arr(v) => Some(v.len()),
            _ => None,
        })
        .expect("traceEvents array");
    assert!(events >= 4, "one trace event per retained span");

    obs::configure(ObsConfig::disabled());
}

#[test]
fn reconfiguring_ring_capacity_clears_stale_spans() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(ObsConfig::ring(8));
    obs::reset();
    {
        let _span = obs::span("telemetry.stale");
    }
    assert_eq!(obs::snapshot().spans.len(), 1);

    // Shrinking the ring drops buffered spans rather than carrying a
    // buffer larger than the new bound.
    obs::configure(ObsConfig::ring(2));
    let snap = obs::snapshot();
    assert!(snap.spans.is_empty(), "capacity change clears the ring");
    assert_eq!(obs::config().ring, Some(2));

    obs::configure(ObsConfig::disabled());
}
