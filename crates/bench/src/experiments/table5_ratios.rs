//! Regenerates Table V: compression ratios of the PEDAL designs over the
//! eight datasets. Ratios come from *really compressing* the synthetic
//! stand-in datasets with the from-scratch codecs.

use crate::{banner, dataset, outln, Artifacts, Table};
use pedal_datasets::DatasetId;
use pedal_sz3::{BackendKind, Dims, Field, Sz3Config};

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Table V(a)", "Lossless compression ratios (paper values in parentheses)");
    // Paper Table V(a), keyed by dataset.
    let paper: &[(DatasetId, f64, f64, f64)] = &[
        (DatasetId::ObsError, 1.469, 1.204, 1.469),
        (DatasetId::SilesiaMozilla, 2.683, 2.319, 2.683),
        (DatasetId::SilesiaMr, 2.712, 2.348, 2.712),
        (DatasetId::SilesiaSamba, 3.963, 3.517, 3.963),
        (DatasetId::SilesiaXml, 7.769, 6.933, 7.769),
    ];
    let mut t = Table::new(vec!["Dataset", "DEFLATE", "LZ4", "zlib"]);
    for &(id, p_d, p_l, p_z) in paper {
        let data = dataset(id);
        let d = data.len() as f64
            / pedal_deflate::compress(data, pedal_deflate::Level::DEFAULT).len() as f64;
        let l = data.len() as f64 / pedal_lz4::compress_block(data, 1).len() as f64;
        let z = data.len() as f64
            / pedal_zlib::compress(data, pedal_zlib::Level::DEFAULT).len() as f64;
        t.row(vec![
            id.name().to_string(),
            format!("{d:.3} ({p_d})"),
            format!("{l:.3} ({p_l})"),
            format!("{z:.3} ({p_z})"),
        ]);
    }
    t.print(out);

    outln!(out);
    banner(out, "Table V(b)", "Lossy (SZ3, eb=1e-4) compression ratios");
    let paper_sz3: &[(DatasetId, f64, f64)] = &[
        (DatasetId::Exaalt1, 2.941, 2.940),
        (DatasetId::Exaalt3, 5.745, 5.844),
        (DatasetId::Exaalt2, 5.378, 4.971),
    ];
    let mut t = Table::new(vec!["Dataset", "SZ3", "SZ3 (C-Engine)"]);
    for &(id, p_soc, p_ce) in paper_sz3 {
        let bytes = dataset(id);
        let n = bytes.len() / 4;
        let field = Field::<f32>::from_bytes(Dims::d1(n), &bytes[..n * 4]);
        // SoC design: native Zs backend; C-Engine design: DEFLATE backend,
        // both sealing the same core stream.
        let (core, _) = pedal_sz3::encode_core(&field, &Sz3Config::with_error_bound(1e-4));
        let [soc, ce] = [BackendKind::Zs, BackendKind::Deflate]
            .map(|backend| bytes.len() as f64 / pedal_sz3::seal(&core, backend).len() as f64);
        t.row(vec![
            id.name().to_string(),
            format!("{soc:.3} ({p_soc})"),
            format!("{ce:.3} ({p_ce})"),
        ]);
    }
    t.print(out);
    Ok(())
}
