//! Error-path coverage for [`pedal_deflate::stitch_fragments`]: the ways a
//! fragment list can be malformed (nothing at all, byte-less fragments,
//! zero-plaintext fragments) and the degenerate-but-valid shapes (a
//! single fragment, the lone empty stream) that must keep working.

use pedal_deflate::{
    compress, compress_fragment, decompress, stitch_fragments, Level, StitchError,
};

fn sample(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i / 7) % 251) as u8).collect()
}

/// Zero fragments is an error, not the empty stream: even
/// `compress(b"")` emits a final block, so stitching nothing would hand
/// decoders a zero-byte non-stream.
#[test]
fn empty_fragment_list_is_rejected() {
    assert_eq!(stitch_fragments(&[]), Err(StitchError::NoFragments));
}

/// A fragment with no bytes at all (a chunker bug, not a legal encoding
/// of anything) is rejected wherever it sits.
#[test]
fn byteless_fragments_are_rejected_at_any_position() {
    let level = Level::DEFAULT;
    let data = sample(4096);
    let real = compress_fragment(&data, level, false);
    let fin = compress_fragment(&data, level, true);
    assert_eq!(stitch_fragments(&[Vec::new()]), Err(StitchError::EmptyFragment(0)));
    assert_eq!(stitch_fragments(&[Vec::new(), fin.clone()]), Err(StitchError::EmptyFragment(0)));
    assert_eq!(stitch_fragments(&[real.clone(), Vec::new()]), Err(StitchError::EmptyFragment(1)));
    assert_eq!(
        stitch_fragments(&[real.clone(), Vec::new(), fin]),
        Err(StitchError::EmptyFragment(1))
    );
}

/// The zero-length-trailing-chunk shape: an exact chunk-multiple input
/// split into one range too many ends with a bare empty-final fragment
/// right after a sync flush. The stitcher must flag it, and the
/// corrected split of the same data must round-trip.
#[test]
fn zero_length_trailing_fragment_is_rejected() {
    let level = Level::DEFAULT;
    let data = sample(8192);
    let bad = vec![
        compress_fragment(&data[..4096], level, false),
        compress_fragment(&data[4096..], level, false),
        compress_fragment(&[], level, true),
    ];
    assert_eq!(stitch_fragments(&bad), Err(StitchError::DoubleFlush(2)));

    let good = vec![
        compress_fragment(&data[..4096], level, false),
        compress_fragment(&data[4096..], level, true),
    ];
    let stitched = stitch_fragments(&good).unwrap();
    assert_eq!(decompress(&stitched).unwrap(), data);
}

/// Single-fragment stream: stitching is the identity, and a final-only
/// fragment is byte-identical to the one-shot encoder.
#[test]
fn single_fragment_stream_round_trips() {
    let level = Level::DEFAULT;
    let data = sample(10_000);
    let frag = compress_fragment(&data, level, true);
    let stitched = stitch_fragments(std::slice::from_ref(&frag)).unwrap();
    assert_eq!(stitched, frag, "single-fragment stitch must be the identity");
    assert_eq!(stitched, compress(&data, level), "final-only fragment != one-shot encoder");
    assert_eq!(decompress(&stitched).unwrap(), data);

    // The lone empty-final fragment stays valid: it IS compress(b"").
    let empty = compress_fragment(&[], level, true);
    let stitched = stitch_fragments(std::slice::from_ref(&empty)).unwrap();
    assert_eq!(stitched, compress(b"", level));
    assert_eq!(decompress(&stitched).unwrap(), b"");
}

/// Error values render distinct, operator-readable messages (they end
/// up in service logs when a parallel compress path trips).
#[test]
fn stitch_errors_display_distinctly() {
    let msgs = [
        StitchError::NoFragments.to_string(),
        StitchError::EmptyFragment(3).to_string(),
        StitchError::DoubleFlush(7).to_string(),
    ];
    assert!(msgs[0].contains("list is empty"), "{}", msgs[0]);
    assert!(msgs[1].contains("fragment 3"), "{}", msgs[1]);
    assert!(msgs[2].contains("fragment 7"), "{}", msgs[2]);
    assert_eq!(msgs.iter().collect::<std::collections::BTreeSet<_>>().len(), 3);
}
