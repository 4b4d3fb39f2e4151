//! Inflate's fast loop against its checked per-symbol step alone
//! (`decompress_checked_with_limit`): on every DEFLATE body among the
//! golden vectors and the committed reference-zlib corpus, on each body
//! cut at each of its last 64 bytes, and under limits one below, at and
//! one above the decoded length, both return the same bytes or the same
//! error. The fuzz sweep checks the same on every mutated DEFLATE, zlib
//! and gzip case.

use pedal_deflate::{decompress_checked_with_limit, decompress_with_limit};
use std::path::PathBuf;

fn read(rel: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/vectors").join(rel);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The DEFLATE body inside a stream of `codec`.
fn body<'a>(codec: &str, stream: &'a [u8]) -> &'a [u8] {
    match codec {
        "deflate" => stream,
        "zlib" => &stream[2..stream.len() - 4],
        "gzip" => {
            // The fixed header, then the file name when FNAME is set; the
            // corpus sets no other optional field.
            let mut start = 10;
            if stream[3] & 0x08 != 0 {
                start += stream[start..].iter().position(|&b| b == 0).unwrap() + 1;
            }
            &stream[start..stream.len() - 8]
        }
        // A PEDAL payload: 0xFF, the algorithm, 0xFF and a LEB128 length.
        "pedal" => &stream[3 + stream[3..].iter().position(|&b| b < 0x80).unwrap() + 1..],
        other => panic!("unknown codec {other}"),
    }
}

/// Both decoders agree on `stream` whole, cut short, and under limits
/// around `len`, the length it decodes to.
fn agree(name: &str, stream: &[u8], len: usize) {
    let check = |s: &[u8], limit: usize, what: &str| {
        let fast = decompress_with_limit(s, limit);
        let checked = decompress_checked_with_limit(s, limit);
        assert!(fast == checked, "{name} {what}: {fast:?} vs {checked:?}");
    };
    for limit in [len.saturating_sub(1), len, len + 1, usize::MAX] {
        check(stream, limit, &format!("limit {limit}"));
    }
    for cut in stream.len().saturating_sub(64)..stream.len() {
        check(&stream[..cut], len, &format!("cut to {cut} bytes"));
    }
}

#[test]
fn golden_vectors_decode_the_same_both_ways() {
    let cases = [
        ("deflate.bin", "deflate", 2048),
        ("bad_deflate_trunc.bin", "deflate", 2048),
        ("zlib.bin", "zlib", 2048),
        ("zlib_l0.bin", "zlib", 2048),
        ("zlib_l1.bin", "zlib", 2048),
        ("zlib_l9.bin", "zlib", 2048),
        ("bad_zlib_adler.bin", "zlib", 2048),
        ("gzip.bin", "gzip", 2048),
        ("bad_gzip_magic.bin", "gzip", 2048),
        ("pedal_soc_deflate.bin", "pedal", 2048),
    ];
    for (name, codec, len) in cases {
        let stream = read(name);
        let body = body(codec, &stream);
        if !name.starts_with("bad_") {
            assert_eq!(decompress_with_limit(body, len).map(|d| d.len()), Ok(len), "{name}");
        }
        agree(name, body, len);
    }
}

#[test]
fn reference_zlib_streams_decode_the_same_both_ways() {
    let manifest = String::from_utf8(read("foreign/MANIFEST")).expect("MANIFEST is text");
    let mut seen = 0;
    for line in manifest.lines() {
        let [name, codec, start, end] = line.split(' ').collect::<Vec<_>>()[..] else {
            panic!("bad MANIFEST line {line:?}");
        };
        if codec == "lz4-block" {
            continue;
        }
        let len = end.parse::<usize>().unwrap() - start.parse::<usize>().unwrap();
        let stream = read(&format!("foreign/{name}"));
        let body = body(codec, &stream);
        assert_eq!(decompress_with_limit(body, len).map(|d| d.len()), Ok(len), "{name}");
        agree(name, body, len);
        seen += 1;
    }
    assert!(seen >= 40, "{seen} DEFLATE-family streams in the corpus");
}
