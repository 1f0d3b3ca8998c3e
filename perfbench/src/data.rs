//! Seeded inputs, and the reference outputs the program's outputs are
//! checked against.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use microarray::io::write_dataset;
use microarray::prelude::SynthConfig;
use sprint_core::boot::BootstrapResult;
use sprint_core::digest::Fnv1a;
use sprint_core::maxt::MaxTResult;

/// A two-class dataset shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub genes: usize,
    pub n0: usize,
    pub n1: usize,
}

/// The paper's reference dataset: 6102 genes, 38 + 38 samples.
pub const PAPER: Shape = Shape {
    genes: 6102,
    n0: 38,
    n1: 38,
};

/// The serve mix's second, smaller working set.
pub const SMALL: Shape = Shape {
    genes: 2000,
    n0: 20,
    n1: 20,
};

/// The `index`-th seed derived from the workload seed.
pub fn derive(seed: u64, index: u64) -> u64 {
    sprint_rng::mix_seed(seed, index)
}

/// Generate the `shape` dataset from `seed`, with about 5% planted
/// differential genes, and write it as a `pmaxt` TSV.
pub fn write_input(shape: Shape, seed: u64, path: &Path) -> io::Result<()> {
    let ds = SynthConfig::two_class(shape.genes, shape.n0, shape.n1)
        .diff_fraction(0.05)
        .seed(seed)
        .generate();
    write_dataset(path, &ds.matrix, &ds.labels)
}

/// The `pmaxt run --out` table of a maxT result, as the CLI writes it.
pub fn maxt_table(r: &MaxTResult) -> String {
    let mut table = String::from("index\tteststat\trawp\tadjp\n");
    for row in r.by_significance() {
        let _ = writeln!(
            table,
            "{}\t{:.6}\t{:.6}\t{:.6}",
            row.index, row.teststat, row.rawp, row.adjp
        );
    }
    table
}

/// The `pmaxt run --workload bootstrap --out` table, as the CLI writes it:
/// the largest |θ̂ / se| first, genes without a score last.
pub fn boot_table(r: &BootstrapResult) -> String {
    let score = |g: usize| {
        let z = (r.theta[g] / r.se[g]).abs();
        if z.is_nan() {
            f64::NEG_INFINITY
        } else {
            z
        }
    };
    let mut order: Vec<usize> = (0..r.genes()).collect();
    order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
    let mut table = String::from("index\ttheta\tse\tpct_lo\tpct_hi\tbca_lo\tbca_hi\n");
    for g in order {
        let _ = writeln!(
            table,
            "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            r.offset + g,
            r.theta[g],
            r.se[g],
            r.pct_lo[g],
            r.pct_hi[g],
            r.bca_lo[g],
            r.bca_hi[g]
        );
    }
    table
}

fn eat(h: &mut Fnv1a, values: &[f64]) {
    for &x in values {
        // NaN payloads do not survive the wire, so every NaN hashes alike.
        h.write_u64(if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        });
    }
}

/// A digest of every bit of a maxT result.
pub fn maxt_digest(r: &MaxTResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(r.b_used);
    for values in [&r.teststat, &r.rawp, &r.adjp] {
        eat(&mut h, values);
    }
    for &g in &r.order {
        h.write_u64(g as u64);
    }
    h.finish()
}

/// A digest of every bit of a bootstrap result.
pub fn boot_digest(r: &BootstrapResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(r.replicates);
    h.write_u64(r.offset as u64);
    for values in [&r.theta, &r.se, &r.pct_lo, &r.pct_hi, &r.bca_lo, &r.bca_hi] {
        eat(&mut h, values);
    }
    h.finish()
}
