//! The extension procedures beyond the paper: step-down **minP** (the
//! companion `multtest` adjustment) and **adaptive early stopping**
//! (anytime-valid per-gene bounds), compared against maxT on the same data —
//! plus `pcor`, the SPRINT library's original parallel correlation function.

use microarray::prelude::*;
use sprint::driver::standard_registry;
use sprint::framework::Sprint;
use sprint::pcor::call_pcor;
use sprint_core::maxt::minp::mt_minp;
use sprint_core::prelude::*;

fn main() {
    let ds = SynthConfig::two_class(300, 9, 9)
        .diff_fraction(0.07)
        .effect_size(2.5)
        .seed(90)
        .generate();
    let opts = PmaxtOptions::default().permutations(4_000);

    // maxT (the paper's procedure) vs minP (extension): same raw p-values,
    // differently balanced adjustments.
    let maxt = mt_maxt(&ds.matrix, &ds.labels, &opts).expect("maxT");
    let minp = mt_minp(&ds.matrix, &ds.labels, &opts).expect("minP");
    println!(
        "maxT vs minP on {} genes (B = {}):",
        ds.matrix.rows(),
        opts.b
    );
    println!(
        "{:>6} {:>10} {:>9} {:>11} {:>11} {:>8}",
        "gene", "teststat", "rawp", "adjp(maxT)", "adjp(minP)", "planted"
    );
    for row in maxt.by_significance().take(8) {
        println!(
            "{:>6} {:>10.3} {:>9.5} {:>11.5} {:>11.5} {:>8}",
            row.index,
            row.teststat,
            row.rawp,
            row.adjp,
            minp.adjp[row.index],
            if ds.truth[row.index] { "yes" } else { "no" }
        );
    }
    let agree = maxt
        .rawp
        .iter()
        .zip(&minp.rawp)
        .filter(|(a, b)| (*a - *b).abs() < 1e-12)
        .count();
    println!(
        "raw p-values agree on {agree}/{} genes (identical by definition)\n",
        ds.matrix.rows()
    );

    // Adaptive early stopping: same answer for the boring genes at a
    // fraction of the gene-permutations.
    let adaptive =
        adaptive_maxt(&ds.matrix, &ds.labels, &opts, &AdaptiveConfig::default()).expect("adaptive");
    let report = &adaptive.report;
    println!(
        "adaptive stopping: scored {:.1}% of the exact budget ({} of {} genes stopped early)",
        100.0 * report.budget_fraction(),
        report.genes_stopped(),
        ds.matrix.rows()
    );
    let max_dev = report
        .p_point
        .iter()
        .zip(&maxt.rawp)
        .filter(|(a, b)| !a.is_nan() && !b.is_nan() && **b > 0.05)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |adaptive p_point − fixed-B rawp| over non-significant genes: {max_dev:.4}\n");

    // pcor through the framework: correlation of the top differential genes.
    let top: Vec<usize> = maxt.by_significance().take(6).map(|r| r.index).collect();
    let mut sub = Vec::new();
    for &g in &top {
        sub.extend_from_slice(ds.matrix.row(g));
    }
    let sub_matrix = Matrix::from_vec(top.len(), ds.matrix.cols(), sub).expect("submatrix");
    let n = top.len();
    let cor = Sprint::new(standard_registry())
        .run(3, move |master| call_pcor(master, sub_matrix))
        .expect("pcor run");
    println!("pcor(3 ranks): correlation of the top {n} genes:");
    for i in 0..n {
        let row: Vec<String> = (0..n).map(|j| format!("{:+.2}", cor[i * n + j])).collect();
        println!("  gene {:>4}: {}", top[i], row.join(" "));
    }
}
