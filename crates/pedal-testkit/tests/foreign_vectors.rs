//! Streams written by the reference implementations decode bit-exact:
//! CPython's zlib module (zlib 1.2.13) at levels 0/1/6/9, all five
//! strategies, 512-byte and 32 KiB windows, memLevel 1 and 9, sync and full
//! flushes; its gzip writer; and the blocks of lz4 v1.9.4 frames. The
//! paper's split designs depend on this: a DEFLATE body made on one side
//! must be a standard stream that any zlib on the other side can read.
//!
//! `scripts/interop.py write-foreign` wrote the corpus under
//! `tests/vectors/foreign/` once. `MANIFEST` names each stream's codec and
//! the slice of `plain.bin` it decodes to. The reverse direction, reference
//! tools decoding our golden vectors, is `scripts/interop.py check-reverse`.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn debug(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

#[test]
fn every_foreign_stream_decodes_to_its_plaintext() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/vectors/foreign");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let plain = read("plain.bin");
    let manifest = String::from_utf8(read("MANIFEST")).expect("MANIFEST is text");
    let mut listed = BTreeSet::from(["MANIFEST".to_string(), "plain.bin".to_string()]);
    let mut codecs = BTreeSet::new();
    for line in manifest.lines() {
        let [name, codec, start, end] = line.split(' ').collect::<Vec<_>>()[..] else {
            panic!("bad MANIFEST line {line:?}");
        };
        let want = &plain[start.parse::<usize>().unwrap()..end.parse::<usize>().unwrap()];
        let stream = read(name);
        let n = want.len();
        let got = match codec {
            "zlib" => pedal_zlib::decompress_with_limit(&stream, n).map_err(debug),
            "gzip" => pedal_zlib::gzip_decompress_with_limit(&stream, n).map_err(debug),
            "deflate" => pedal_deflate::decompress_with_limit(&stream, n).map_err(debug),
            "lz4-block" => pedal_lz4::decompress_block(&stream, Some(n), n).map_err(debug),
            other => panic!("{name}: unknown codec {other}"),
        };
        match got {
            Ok(got) => assert!(got == want, "{name}: wrong bytes, want plain.bin[{start}..{end}]"),
            Err(e) => panic!("{name} ({codec}): {e}"),
        }
        listed.insert(name.to_string());
        codecs.insert(codec);
    }
    let present: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(present, listed, "every file in foreign/ is listed in MANIFEST, and present");
    assert_eq!(codecs, BTreeSet::from(["deflate", "gzip", "lz4-block", "zlib"]));
}
