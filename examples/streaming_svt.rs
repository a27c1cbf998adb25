//! Streaming SVT over sharded, lazily generated query streams.
//!
//! The serve-at-scale scenario the streaming layer exists for: a server
//! answers threshold queries for many shards (users, partitions, tenants),
//! and each shard's query answers are *produced on demand* — there is never
//! a materialized `Vec` of the full stream. The mechanism pulls answers one
//! at a time and, because SVT's budget pays only for `⊤`s, halts after a
//! short prefix of even a million-query stream; queries past the halt are
//! never generated at all.
//!
//! Run with `cargo run --release --example streaming_svt`.

use free_gap::prelude::*;
use free_gap_alignment::SamplingSource;
use free_gap_noise::rng::{derive_stream, splitmix64};
use std::cell::Cell;

/// Lazily generates shard `shard`'s query-answer stream: a deterministic
/// mix of mostly-low counts with occasional spikes, computed per index —
/// no allocation, no backing vector.
fn shard_stream(shard: u64, len: usize) -> impl Iterator<Item = f64> {
    (0..len as u64).map(move |i| {
        let mut state = shard.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        let h = splitmix64(&mut state);
        let base = (h % 100) as f64; // uniform low counts 0..100
        if h.is_multiple_of(23) {
            base + 150.0 + (h >> 32 & 0xFF) as f64 // a spike well above T
        } else {
            base
        }
    })
}

fn main() {
    let shards = 4u64;
    let stream_len = 1_000_000usize;
    let threshold = 120.0;
    let k = 8;

    println!("streaming SVT: {shards} shards x {stream_len} lazily generated queries each");
    println!("threshold T = {threshold}, budget sized for k = {k} answers, eps = 0.7\n");

    let svt = SparseVectorWithGap::new(k, 0.7, threshold, true).unwrap();
    let adaptive = AdaptiveSparseVector::new(k, 0.7, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();

    for shard in 0..shards {
        // Count how many answers the mechanism actually pulls: the early
        // stop means this is a small prefix of the million-query stream.
        let pulled = Cell::new(0usize);
        let stream = shard_stream(shard, stream_len).inspect(|_| pulled.set(pulled.get() + 1));
        let mut rng = derive_stream(42, shard);
        let mut out = SvOutput::default();
        svt.run_into(
            stream,
            &mut ScratchDraws::new(&mut scratch, &mut rng),
            &mut out,
        );
        println!(
            "shard {shard}: SparseVectorWithGap answered {:>2} tops, pulled {:>6} of {stream_len} queries ({:.3}% of the stream)",
            out.answered(),
            pulled.get(),
            100.0 * pulled.get() as f64 / stream_len as f64,
        );

        let pulled = Cell::new(0usize);
        let stream = shard_stream(shard, stream_len).inspect(|_| pulled.set(pulled.get() + 1));
        let mut rng = derive_stream(1042, shard);
        let mut out = AdaptiveSvOutput::default();
        let mut source = SamplingSource::new(&mut rng);
        adaptive.run_into(stream, &mut SourceDraws::new(&mut source), &mut out);
        let top = out.answered_via(0);
        let first_gap = out.outcomes.iter().find_map(|o| match o {
            AdaptiveOutcome::Above { gap, .. } => Some(*gap),
            AdaptiveOutcome::Below => None,
        });
        println!(
            "shard {shard}: AdaptiveSparseVector  answered {:>2} tops ({top} cheap), pulled {:>6} queries, first free gap ≈ {:.1}",
            out.answered(),
            pulled.get(),
            first_gap.unwrap_or(f64::NAN),
        );
    }

    println!("\nno query vector was ever materialized: each shard's answers were");
    println!("generated on demand and generation stopped the moment the budget ran out.");
}
