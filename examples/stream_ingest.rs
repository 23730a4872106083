//! High-rate stream ingestion: late-arriving events interleaved into
//! an already-indexed key range (paper Section 5 — per-segment
//! buffers, in-place tail appends, local re-segmentation).
//!
//! Run: `cargo run --release --example stream_ingest`

use fiting::datasets;
use fiting::tree::FitingTreeBuilder;
use std::time::Instant;

fn main() {
    let n = 1_000_000;
    let history = datasets::taxi_pickup_time(n, 9);
    let pairs: Vec<(u64, u64)> = history
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u64))
        .collect();

    // The write stream: late-arriving events interleaved into the
    // existing key range.
    let stream: Vec<u64> = history
        .iter()
        .step_by(3)
        .map(|&t| t + 1)
        .filter(|t| history.binary_search(t).is_err())
        .collect();
    println!("ingesting {} new events\n", stream.len());

    let mut index = FitingTreeBuilder::new(1024)
        .bulk_load(pairs.iter().copied())
        .unwrap();
    let segments_before = index.segment_count();
    let t0 = Instant::now();
    for (i, &t) in stream.iter().enumerate() {
        index.insert(t, i as u64);
    }
    let elapsed = t0.elapsed();
    println!(
        "{:.2} M inserts/s, {segments_before} -> {} segments",
        stream.len() as f64 / elapsed.as_secs_f64() / 1e6,
        index.segment_count()
    );

    // Every ingested event is served, beside the history it landed in.
    for (i, &t) in stream.iter().enumerate().step_by(997) {
        assert_eq!(index.get(&t), Some(&(i as u64)));
        assert!(index.get(&(t - 1)).is_some());
    }
    println!("\nspot-check: ingested events and their neighbours are served");
}
