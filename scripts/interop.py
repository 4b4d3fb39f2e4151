#!/usr/bin/env python3
"""Interop between pedal-rs and the reference zlib and LZ4 implementations.

    python3 scripts/interop.py write-foreign   # write the foreign corpus
    python3 scripts/interop.py check-reverse   # reference tools decode ours

`write-foreign` writes crates/pedal-testkit/tests/vectors/foreign/: one
plaintext (plain.bin), streams that CPython's zlib module (zlib 1.2.13)
and the lz4 v1.9.4 command-line tool made from it, and MANIFEST, one line
per stream: `<file> <codec> <start> <end>`, meaning the stream decodes to
plain.bin[start:end]. The corpus is committed and written once; the
tier-1 test `tests/foreign_vectors.rs` of pedal-testkit decodes every
stream with pedal-deflate, pedal-zlib and pedal-lz4. make_vectors never
touches it.

`check-reverse` is the other direction: CPython's zlib and gzip modules
and `lz4 -d` must decode the golden vectors that make_vectors pins. An
LZ4 block is wrapped in a standard LZ4 frame first. scripts/verify.sh
runs it when python3 and lz4 are on PATH.

Both need only the standard library and the `lz4` binary.
"""

import gzip
import random
import struct
import subprocess
import sys
import zlib
from pathlib import Path

VECTORS = Path(__file__).resolve().parent.parent / "crates/pedal-testkit/tests/vectors"
FOREIGN = VECTORS / "foreign"
CORPUS_LIMIT = 512 * 1024

STRATEGIES = {
    "default": zlib.Z_DEFAULT_STRATEGY,
    "filtered": zlib.Z_FILTERED,
    "huffman": zlib.Z_HUFFMAN_ONLY,
    "rle": zlib.Z_RLE,
    "fixed": zlib.Z_FIXED,
}


def plaintext():
    """About 12 KiB: log-like text, an incompressible run, then a copy of
    the start 10 KiB back (out of reach of a 512-byte window)."""
    rng = random.Random(1951)
    words = [b"engine", b"deflate", b"offload", b"bluefield", b"soc", b"queue", b"chunk"]
    out = bytearray()
    while len(out) < 9000:
        w1, w2, n = rng.choice(words), rng.choice(words), rng.randrange(1000)
        out += b"%05d %s %s=%d\n" % (len(out), w1, w2, n)
    out += bytes(rng.getrandbits(8) for _ in range(1024))
    out += out[:2048]
    return bytes(out)


def zlib_stream(data, level, strategy="default", wbits=15, mem_level=8, flush=None):
    c = zlib.compressobj(level, zlib.DEFLATED, wbits, mem_level, STRATEGIES[strategy])
    if flush is None:
        return c.compress(data) + c.flush()
    out = bytearray()
    for i in range(0, len(data), 3000):
        out += c.compress(data[i : i + 3000]) + c.flush(flush)
    return bytes(out + c.flush())


def lz4(args, data):
    return subprocess.run(["lz4", *args], input=data, capture_output=True, check=True).stdout


def lz4_blocks(frame, block_size):
    """(block, raw offset) of each compressed block of an LZ4 frame whose
    blocks are independent and cut every `block_size` input bytes."""
    assert frame[:4] == b"\x04\x22\x4d\x18", "not an LZ4 frame"
    flg = frame[4]
    pos = 7 + (8 if flg & 0x08 else 0) + (4 if flg & 0x01 else 0)
    offset, blocks = 0, []
    while True:
        (size,) = struct.unpack_from("<I", frame, pos)
        pos += 4
        if size == 0:
            return blocks
        body = frame[pos : pos + (size & 0x7FFFFFFF)]
        pos += len(body) + (4 if flg & 0x10 else 0)
        if not size & 0x80000000:  # the high bit marks a block stored raw
            blocks.append((body, offset))
        offset += block_size


def lz4_frame(block):
    """`block` as the only block of a standard frame: independent blocks,
    64 KiB maximum, no checksums. The header comes from the CLI, so its
    checksum byte needs no xxHash here."""
    assert len(block) <= 64 * 1024
    header = lz4(["-c", "-B4", "--no-frame-crc"], b"")[:7]
    return header + struct.pack("<I", len(block)) + block + struct.pack("<I", 0)


def write_foreign():
    plain = plaintext()
    n = len(plain)
    streams = [("zlib-l0.zz", "zlib", 0, n, zlib_stream(plain, 0))]
    for level in (1, 6, 9):
        # Huffman-only and RLE ignore the level beyond 0: one level will do.
        for strategy in STRATEGIES if level == 6 else ("default", "filtered", "fixed"):
            for wbits in (9, 15):
                name = f"zlib-l{level}-{strategy}-w{wbits}.zz"
                streams.append((name, "zlib", 0, n, zlib_stream(plain, level, strategy, wbits)))
        for mem in (1, 9):
            stream = zlib_stream(plain, level, mem_level=mem)
            streams.append((f"zlib-l{level}-mem{mem}.zz", "zlib", 0, n, stream))
        for flush, tag in ((zlib.Z_SYNC_FLUSH, "sync"), (zlib.Z_FULL_FLUSH, "full")):
            stream = zlib_stream(plain, level, flush=flush)
            streams.append((f"zlib-l{level}-{tag}.zz", "zlib", 0, n, stream))
    for level in (0, 1, 6, 9):
        stream = zlib_stream(plain, level, wbits=-15)
        streams.append((f"deflate-l{level}.deflate", "deflate", 0, n, stream))
        stream = gzip.compress(plain, level, mtime=0)
        streams.append((f"gzip-l{level}.gz", "gzip", 0, n, stream))
    stream = zlib_stream(plain, 6, wbits=31)
    streams.append(("gzip-zlib-w31.gz", "gzip", 0, n, stream))

    block_size = 4096
    for level in ("--fast=8", "-1", "-4", "-9", "-12"):
        frame = lz4(["-c", level, f"-B{block_size}", "--no-frame-crc"], plain)
        for i, (block, offset) in enumerate(lz4_blocks(frame, block_size)):
            end = min(offset + block_size, n)
            assert lz4(["-d", "-c"], lz4_frame(block)) == plain[offset:end]
            tag = level.lstrip("-").replace("=", "")
            streams.append((f"lz4-{tag}-b{i}.lz4", "lz4-block", offset, end, block))

    FOREIGN.mkdir(parents=True, exist_ok=True)
    for old in FOREIGN.iterdir():
        old.unlink()
    (FOREIGN / "plain.bin").write_bytes(plain)
    lines = []
    for name, codec, start, end, stream in streams:
        (FOREIGN / name).write_bytes(stream)
        lines.append(f"{name} {codec} {start} {end}\n")
    (FOREIGN / "MANIFEST").write_text("".join(lines))
    total = sum(p.stat().st_size for p in FOREIGN.iterdir())
    assert total < CORPUS_LIMIT, f"foreign corpus is {total} bytes"
    print(f"{len(streams)} foreign streams, {total} bytes in {FOREIGN}")


def check_reverse():
    def vector(name):
        return (VECTORS / name).read_bytes()

    checks = [
        ("deflate.bin", "deflate.raw", lambda b: zlib.decompress(b, -15)),
        ("gzip.bin", "gzip.raw", gzip.decompress),
        ("lz4_block.bin", "lz4_block.raw", lambda b: lz4(["-d", "-c"], lz4_frame(b))),
        ("lz4_block_xml.bin", "deflate.raw", lambda b: lz4(["-d", "-c"], lz4_frame(b))),
    ]
    for level in ("", "_l0", "_l1", "_l9"):
        checks.append((f"zlib{level}.bin", "zlib.raw", zlib.decompress))
    for stream, raw, decode in checks:
        assert decode(vector(stream)) == vector(raw), f"{stream} does not decode to {raw}"
        print(f"{stream}: decoded by the reference implementation")


if __name__ == "__main__":
    commands = {"write-foreign": write_foreign, "check-reverse": check_reverse}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(commands)}}}")
    commands[sys.argv[1]]()
