//! Ablation A9: the pco numeric/columnar codec tier against the DEFLATE
//! baseline on the float corpora (exaalt MD snapshots + obs_error
//! brightness-temperature errors).
//!
//! DEFLATE sees these columns as opaque bytes; pco sees them as f32
//! latents (order-preserving bijection), applies a configurable-order
//! delta, bins the residuals, and entropy-codes the bin indices with a
//! bit-exact rANS. The claim this experiment gates: on numeric columns the
//! pco tier achieves a *better* ratio than the DEFLATE backend at a
//! comparable SoC virtual-time cost (cost-model rates: pco 55 MB/s vs
//! DEFLATE 35 MB/s compress on BF2's SoC).
//!
//! The experiment also pins the codec's determinism contract on fixed
//! seeds: same input -> same bytes, decode(encode(x)) bit-exact for all
//! four column widths including NaN payloads, infinities, and signed
//! zeros. Fails if any gate fails. Results land in
//! `BENCH_ablation_pco.json`.

use crate::{banner, dataset, fmt_ms, outln, Artifacts, BenchReport, Table};
use pedal_datasets::DatasetId;
use pedal_dpu::{Algorithm, CostModel, Direction, Platform};
use pedal_obs::Json;
use pedal_pco::{ColumnType, PcoConfig};

/// The numeric-column corpora: the three exaalt MD datasets plus
/// obs_error, the paper's barely-compressible float workload.
const DATASETS: [DatasetId; 4] =
    [DatasetId::Exaalt1, DatasetId::Exaalt3, DatasetId::Exaalt2, DatasetId::ObsError];

/// SplitMix64: the fixed-seed generator for the determinism sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Round-trip one encoded stream and demand bit-exact recovery within
/// the declared budget.
fn roundtrip(label: &str, raw: &[u8], encoded: &[u8]) {
    let back = pedal_pco::decompress_bytes_with_limit(encoded, raw.len())
        .unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
    assert_eq!(back, raw, "{label}: decode(encode(x)) must be bit-exact");
}

/// Fixed-seed determinism sweep over all four column widths plus bytes
/// mode, with non-finite values salted into the float columns.
fn determinism_sweep() -> usize {
    let cfg = PcoConfig::default();
    let mut checks = 0;
    for seed in [1u64, 42, 0xDEC0DE] {
        let mut rng = Rng(seed);
        let n = 4096 + (seed as usize % 512);

        let u32s: Vec<u8> = (0..n)
            .flat_map(|i| (((rng.next() as u32) >> 12).wrapping_add(i as u32)).to_le_bytes())
            .collect();
        let u64s: Vec<u8> = (0..n).flat_map(|_| (rng.next() >> 20).to_le_bytes()).collect();
        let mut f32s: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.01).sin() * 300.0).collect();
        f32s[7] = f32::NAN;
        f32s[19] = f32::from_bits(0x7FC0_1234); // NaN with payload bits
        f32s[n / 2] = f32::INFINITY;
        f32s[n / 2 + 1] = f32::NEG_INFINITY;
        f32s[n - 1] = -0.0;
        let f32b: Vec<u8> = f32s.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut f64s: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.003).cos() * 1e6).collect();
        f64s[3] = f64::NAN;
        f64s[11] = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        f64s[n / 3] = f64::NEG_INFINITY;
        f64s[n - 2] = -0.0;
        let f64b: Vec<u8> = f64s.iter().flat_map(|v| v.to_le_bytes()).collect();
        let bytes: Vec<u8> = (0..n + 3).map(|_| rng.next() as u8).collect();

        let columns: [(&str, &[u8], Option<ColumnType>); 5] = [
            ("u32", &u32s, Some(ColumnType::U32)),
            ("u64", &u64s, Some(ColumnType::U64)),
            ("f32", &f32b, Some(ColumnType::F32)),
            ("f64", &f64b, Some(ColumnType::F64)),
            ("bytes", &bytes, None),
        ];
        for (name, raw, ty) in columns {
            let label = format!("seed {seed} {name}");
            let encode = || match ty {
                Some(t) => pedal_pco::compress_typed_bytes(raw, t, &cfg),
                None => pedal_pco::compress_bytes(raw, &cfg),
            };
            let enc = encode();
            assert_eq!(enc, encode(), "{label}: encode must be deterministic");
            roundtrip(&label, raw, &enc);
            checks += 1;
        }
    }
    checks
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A9", "pco numeric codec vs DEFLATE on float columns (SoC, BlueField-2)");
    let costs = CostModel::for_platform(Platform::BlueField2);
    let cfg = PcoConfig::default();
    let mut report = BenchReport::new("ablation_pco");

    let checks = determinism_sweep();
    outln!(out, "determinism sweep: {checks} fixed-seed columns round-tripped bit-exact\n");
    report.set("determinism_checks", Json::u64(checks as u64));

    let mut t = Table::new(vec![
        "Dataset",
        "MB",
        "pco ratio",
        "DEFLATE ratio",
        "pco comp(ms)",
        "DEFLATE comp(ms)",
        "Time vs DEFLATE",
    ]);
    let mut rows = Vec::new();
    let mut all_pass = true;
    for id in DATASETS {
        let raw = dataset(id);
        let pco_enc = pedal_pco::compress_typed_bytes(raw, ColumnType::F32, &cfg);
        roundtrip(id.name(), raw, &pco_enc);
        let defl_enc = pedal_deflate::compress(raw, pedal_deflate::Level::DEFAULT);

        let pco_ratio = raw.len() as f64 / pco_enc.len() as f64;
        let defl_ratio = raw.len() as f64 / defl_enc.len() as f64;
        let pco_t = costs.soc_lossless(Algorithm::Pco, Direction::Compress, raw.len());
        let defl_t = costs.soc_lossless(Algorithm::Deflate, Direction::Compress, raw.len());
        let time_frac = pco_t.as_secs_f64() / defl_t.as_secs_f64();

        // The gate: strictly better ratio at comparable (within 2x)
        // virtual-time cost.
        let pass = pco_ratio >= defl_ratio && time_frac <= 2.0;
        all_pass &= pass;

        t.row(vec![
            id.name().to_string(),
            format!("{:.1}", raw.len() as f64 / 1e6),
            format!("{pco_ratio:.3}"),
            format!("{defl_ratio:.3}"),
            fmt_ms(pco_t),
            fmt_ms(defl_t),
            format!("{time_frac:.2}x"),
        ]);
        rows.push(Json::obj(vec![
            ("dataset", Json::str(id.name())),
            ("bytes", Json::u64(raw.len() as u64)),
            ("pco_ratio", Json::num(pco_ratio)),
            ("deflate_ratio", Json::num(defl_ratio)),
            ("pco_compress_ns", Json::u64(pco_t.as_nanos())),
            ("deflate_compress_ns", Json::u64(defl_t.as_nanos())),
            ("time_frac_vs_deflate", Json::num(time_frac)),
            ("pass", Json::Bool(pass)),
        ]));
    }
    t.print(out);
    report.set("datasets", Json::Arr(rows));
    report.set("gate_ratio_beats_deflate", Json::Bool(all_pass));
    report.write(out);

    out.line(
        "\nDEFLATE's LZ window finds little to match in high-entropy float\n\
         mantissas; pco's bijection + delta exposes the smoothness the bit\n\
         pattern hides, and the binning spends offset bits only where the\n\
         residual distribution needs them."
    );
    if !all_pass {
        return Err("pco must beat the DEFLATE ratio on every float dataset \
                    at <= 2x the virtual-time cost"
            .into());
    }
    outln!(out, "\nacceptance: pco ratio >= DEFLATE ratio on all {} datasets  OK", DATASETS.len());
    Ok(())
}
