//! Regenerate the golden vector corpus under `tests/vectors/`.
//!
//! Every vector is a pure function of the dataset generators, so this is
//! safe to re-run after an intentional format change — the regression
//! test (`tests/golden_vectors.rs`) then pins the new bytes. Run it from
//! the crate root:
//!
//! ```text
//! cargo run -p pedal-testkit --bin make_vectors
//! ```

use std::fs;
use std::path::PathBuf;

use pedal::wire::put_uvarint;
use pedal::{wire, Datatype, Design};
use pedal_datasets::DatasetId;
use pedal_sz3::{huff, Dims, Field, Sz3Config};

fn main() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/vectors");
    fs::create_dir_all(&dir).expect("create vectors dir");
    let write = |name: &str, bytes: &[u8]| {
        fs::write(dir.join(name), bytes).unwrap_or_else(|e| panic!("write {name}: {e}"));
        println!("{name}: {} bytes", bytes.len());
    };

    // ---- valid streams: <codec>.bin decodes to exactly <codec>.raw ----

    let xml = DatasetId::SilesiaXml.generate_bytes(2048);
    write("deflate.bin", &pedal_deflate::compress(&xml, pedal_deflate::Level::DEFAULT));
    write("deflate.raw", &xml);

    let mr = DatasetId::SilesiaMr.generate_bytes(2048);
    write("zlib.bin", &pedal_zlib::compress(&mr, pedal_zlib::Level::DEFAULT));
    write("zlib.raw", &mr);
    // More levels of the same input, for the reference decoders of
    // `scripts/interop.py check-reverse`; each also decodes to zlib.raw.
    for level in [0, 1, 9] {
        write(&format!("zlib_l{level}.bin"), &pedal_zlib::compress(&mr, pedal_zlib::Level(level)));
    }

    let samba = DatasetId::SilesiaSamba.generate_bytes(2048);
    write("gzip.bin", &pedal_zlib::gzip_compress(&samba, pedal_zlib::Level::DEFAULT));
    write("gzip.raw", &samba);

    let obs = DatasetId::ObsError.generate_bytes(2048);
    write("lz4_block.bin", &pedal_lz4::compress_block(&obs, 1));
    write("lz4_block.raw", &obs);
    // obs_error barely compresses; xml gives the reference decoder matches.
    write("lz4_block_xml.bin", &pedal_lz4::compress_block(&xml, 1));

    let moz = DatasetId::SilesiaMozilla.generate_bytes(2048);
    write("lz4_frame.bin", &pedal_lz4::compress_frame(&moz, 512, 1));
    write("lz4_frame.raw", &moz);

    let symbols: Vec<u32> = xml.iter().map(|&b| 32768 + (b as u32 % 64)).collect();
    write("huff.bin", &huff::encode(&symbols));
    let sym_bytes: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
    write("huff.raw", &sym_bytes);

    // SZ3: .raw is the *reconstruction* — the decode must stay bit-exact.
    let field = Field::<f32>::from_fn(Dims::d1(512), |x, _, _| {
        let t = x as f32 * 0.02;
        t.sin() * 8.0 + (t * 2.3).cos()
    });
    let sealed = pedal_sz3::compress(&field, &Sz3Config::with_error_bound(1e-4));
    let recon: Field<f32> = pedal_sz3::decompress(&sealed).expect("self-decode");
    write("sz3_f32.bin", &sealed);
    write("sz3_f32.raw", &recon.to_bytes());

    // Full PEDAL payloads: one lossless, one lossy design.
    let (payload, _) =
        wire::compress_payload(Design::SOC_DEFLATE, Datatype::Byte, 1e-4, &xml).unwrap();
    write("pedal_soc_deflate.bin", &payload);
    write("pedal_soc_deflate.raw", &xml);

    let floats = field.to_bytes();
    let (payload, _) =
        wire::compress_payload(Design::CE_SZ3, Datatype::Float32, 1e-4, &floats).unwrap();
    let (decoded, _) = wire::decompress_payload(&payload, floats.len()).unwrap();
    write("pedal_ce_sz3.bin", &payload);
    write("pedal_ce_sz3.raw", &decoded);

    // ---- known-bad streams: each is a minimized reproducer for a bug the
    // ---- hardening pass fixed; the test pins the exact error variant.

    // Huffman single-symbol bomb: a ~10-byte blob whose symbol count
    // varint declares 2^40 symbols (used to allocate unbounded memory).
    let enc = huff::encode(&[7u32; 4]);
    assert_eq!(enc[0], 4, "encode() count varint moved; update the bomb builder");
    let mut bomb = Vec::new();
    put_uvarint(&mut bomb, 1u64 << 40);
    bomb.extend_from_slice(&enc[1..]);
    write("bad_huff_count_bomb.bin", &bomb);

    // Huffman alphabet bomb: k = 2^50 distinct symbols declared (used to
    // feed Vec::with_capacity before any plausibility check).
    let mut bomb = Vec::new();
    put_uvarint(&mut bomb, 100); // n
    put_uvarint(&mut bomb, 1u64 << 50); // k
    bomb.extend_from_slice(&[1, 2, 3, 4]);
    write("bad_huff_alphabet_bomb.bin", &bomb);

    // SZ3 dims-overflow core: nx*ny*nz overflows usize (used to panic in
    // debug builds and allocate garbage in release).
    let (core, _) = pedal_sz3::encode_core(&field, &Sz3Config::with_error_bound(1e-4));
    let mut bad = core[..7].to_vec(); // magic + version + type + predictor
    put_uvarint(&mut bad, 1u64 << 62);
    put_uvarint(&mut bad, 1u64 << 3);
    put_uvarint(&mut bad, 2);
    bad.extend_from_slice(&1e-4f64.to_le_bytes());
    put_uvarint(&mut bad, 32768); // radius
    put_uvarint(&mut bad, 0); // outliers
    put_uvarint(&mut bad, 0); // enc_len
    write("bad_sz3_dims_overflow.bin", &bad);

    // SZ3 sealed-core bomb: the sealed header declares a 256 GiB core.
    let mut bomb = sealed[..5].to_vec(); // magic + backend tag
    put_uvarint(&mut bomb, 1u64 << 38);
    bomb.extend_from_slice(&sealed[5..21]);
    write("bad_sz3_core_bomb.bin", &bomb);

    // LZ4 frame content-length bomb: valid frame, content_len field
    // rewritten to ~1 TiB (used to drive Vec::with_capacity directly).
    let mut bombed = pedal_lz4::compress_frame(&obs, 512, 1);
    bombed[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
    write("bad_lz4_frame_bomb.bin", &bombed);

    // LZ4 block cut mid-sequence.
    let block = pedal_lz4::compress_block(&obs, 1);
    write("bad_lz4_block_trunc.bin", &block[..block.len() / 2]);

    // gzip with a corrupted magic byte.
    let mut g = pedal_zlib::gzip_compress(&samba, pedal_zlib::Level::DEFAULT);
    g[1] = 0x8C;
    write("bad_gzip_magic.bin", &g);

    // zlib with a flipped Adler-32 trailer.
    let mut z = pedal_zlib::compress(&mr, pedal_zlib::Level::DEFAULT);
    let n = z.len();
    z[n - 1] ^= 0xFF;
    write("bad_zlib_adler.bin", &z);

    // DEFLATE stream cut in half.
    let d = pedal_deflate::compress(&xml, pedal_deflate::Level::DEFAULT);
    write("bad_deflate_trunc.bin", &d[..d.len() / 2]);

    // PEDAL message with an unknown AlgoID (11: one past the extended
    // design matrix, whose pco entries claimed 9 and 10).
    let mut p = Vec::from([0xFFu8, 11, 0xFF]);
    put_uvarint(&mut p, 4);
    p.extend_from_slice(&[1, 2, 3, 4]);
    write("bad_pedal_algo.bin", &p);

    // ---- minimized reproducers for the bugs the first sweep surfaced:
    // ---- declared lengths near u64::MAX wrapping `i + len` bounds checks.

    // Huffman payload-length overflow (found by the length-field mutation
    // class): i + payload_len wrapped and the payload slice panicked.
    let mut blob = Vec::new();
    put_uvarint(&mut blob, 4); // n
    put_uvarint(&mut blob, 2); // k
    put_uvarint(&mut blob, 1); // symbol delta -> 1
    put_uvarint(&mut blob, 1); // symbol delta -> 2
    blob.extend_from_slice(&[1, 1]); // code lengths
    put_uvarint(&mut blob, u64::MAX); // payload_len bomb
    blob.push(0);
    write("bad_huff_paylen_overflow.bin", &blob);

    // Huffman symbol-delta overflow: a near-u64::MAX delta wrapped the
    // running canonical symbol value (debug-build panic).
    let mut blob = Vec::new();
    put_uvarint(&mut blob, 4); // n
    put_uvarint(&mut blob, 2); // k
    put_uvarint(&mut blob, 1); // symbol delta -> 1
    put_uvarint(&mut blob, u64::MAX); // delta bomb: 1 + u64::MAX wraps
    blob.extend_from_slice(&[1, 1]); // code lengths
    put_uvarint(&mut blob, 1); // payload_len
    blob.push(0);
    write("bad_huff_delta_overflow.bin", &blob);

    // SZ3 core enc-length overflow: same wrap on the entropy-blob slice.
    let mut bad = core[..7].to_vec();
    put_uvarint(&mut bad, 512); // nx
    put_uvarint(&mut bad, 1); // ny
    put_uvarint(&mut bad, 1); // nz
    bad.extend_from_slice(&1e-4f64.to_le_bytes());
    put_uvarint(&mut bad, 32768); // radius
    put_uvarint(&mut bad, 0); // outliers
    put_uvarint(&mut bad, u64::MAX); // enc_len bomb
    write("bad_sz3_enclen_overflow.bin", &bad);

    // Chunked DEFLATE stream (PSF1, what `pedal::compress_chunked` emits)
    // whose single frame declares a u64::MAX payload length, and a valid
    // two-frame stream whose raw lengths overrun a 4096-byte expected
    // total.
    let mut psf1 = pedal_stream::MAGIC.to_vec();
    psf1.extend_from_slice(&[pedal_stream::VERSION, pedal_stream::CODEC_DEFLATE, 0]);
    put_uvarint(&mut psf1, 4096); // chunk size
    psf1.push(pedal_stream::FRAME_LAST);
    put_uvarint(&mut psf1, 0); // index
    put_uvarint(&mut psf1, 4096); // raw length
    put_uvarint(&mut psf1, u64::MAX); // payload length bomb
    psf1.extend_from_slice(&[0; 8]); // checksum + payload bytes
    write("bad_psf1_paylen_overflow.bin", &psf1);

    let cfg = pedal_stream::StreamConfig::new(pedal_stream::StreamCodec::Deflate(
        pedal_deflate::Level::DEFAULT,
    ))
    .with_chunk_size(4096);
    let two_frames = DatasetId::SilesiaXml.generate_bytes(8192);
    write("bad_psf1_total_overrun.bin", &pedal_stream::encode_all(&two_frames, &cfg));
}
