//! A full microarray analysis workflow — the use case the paper's
//! introduction motivates: a biostatistician pre-processes an expression
//! matrix, picks a statistic per experimental design, and runs permutation
//! testing through the SPRINT framework with no HPC knowledge required.
//!
//! Exercises: NA handling, non-expressed-gene filtering, three different
//! experimental designs (two-class Welch t, multi-class F, paired t),
//! non-parametric mode, and the SPRINT master/worker framework.

use microarray::design::LabelDesign;
use microarray::prelude::*;
use sprint::driver::{call_pmaxt, standard_registry};
use sprint::framework::Sprint;
use sprint_core::prelude::*;

fn summarize(name: &str, result: &MaxTResult, truth: Option<&[bool]>) {
    let hits = result.significant_at(0.05);
    match truth {
        Some(t) => {
            let tp = hits.iter().filter(|&&g| t[g]).count();
            let planted = t.iter().filter(|&&x| x).count();
            println!(
                "{name}: {} hits at adj p<=0.05 ({tp}/{planted} planted recovered, {} false)",
                hits.len(),
                hits.len() - tp
            );
        }
        None => println!("{name}: {} hits at adj p<=0.05", hits.len()),
    }
}

fn two_class_with_preprocessing() {
    println!("--- two-class Welch t with NA cells and expression filtering ---");
    // 2000 probes, 2% missing cells, 8 vs 8 samples.
    let raw = SynthConfig::two_class(2_000, 8, 8)
        .diff_fraction(0.05)
        .effect_size(2.5)
        .na_rate(0.02)
        .seed(1001)
        .generate();
    println!(
        "raw matrix: {} probes, {} NA cells",
        raw.matrix.rows(),
        raw.matrix.na_count()
    );
    // Pre-processing: drop non-expressed probes (the paper's 6102-row matrix
    // is the survivor set of exactly this step).
    let filtered = filter_non_expressed(&raw.matrix, 6.0, 0.01);
    println!("after filtering: {} probes", filtered.matrix.rows());
    let truth: Vec<bool> = filtered.kept.iter().map(|&g| raw.truth[g]).collect();

    let opts = PmaxtOptions::default().permutations(5_000);
    let result = mt_maxt(&filtered.matrix, &raw.labels, &opts).expect("run");
    summarize("welch-t", &result, Some(&truth));

    // The Wilcoxon variant is robust to the log-scale assumption entirely.
    let wilcoxon = mt_maxt(
        &filtered.matrix,
        &raw.labels,
        &PmaxtOptions::default()
            .test(TestMethod::Wilcoxon)
            .permutations(5_000),
    )
    .expect("run");
    summarize("wilcoxon", &wilcoxon, Some(&truth));
    // With only 8+8 samples the rank-sum statistic is so discrete that its
    // best achievable value recurs in the null maximum over ~1600 genes, so
    // maxT-adjusted significance at 0.05 is mathematically out of reach —
    // compare the *ranking* instead:
    let top_planted = wilcoxon
        .by_significance()
        .take(50)
        .filter(|row| truth[row.index])
        .count();
    println!(
        "wilcoxon still ranks the signal on top: {top_planted}/50 of its top-50 genes are planted"
    );
}

fn multi_class_f() {
    println!("--- three-dose design, F statistic, through the SPRINT framework ---");
    let ds = SynthConfig::new(
        800,
        LabelDesign::MultiClass {
            counts: vec![6, 6, 6],
        },
    )
    .diff_fraction(0.08)
    .effect_size(1.2)
    .seed(1002)
    .generate();
    let opts = PmaxtOptions::default()
        .test(TestMethod::F)
        .permutations(3_000);
    // Run exactly as an R user would through SPRINT: a master script calling
    // the parallel function on 4 ranks.
    let (matrix, labels, truth) = (ds.matrix.clone(), ds.labels.clone(), ds.truth.clone());
    let result = Sprint::new(standard_registry())
        .run(4, move |master| call_pmaxt(master, matrix, &labels, &opts))
        .expect("framework run")
        .expect("admitted run");
    summarize("f-test(4 ranks)", &result, Some(&truth));
}

fn paired_design() {
    println!("--- before/after paired design, paired t, complete enumeration ---");
    // 12 patients sampled before and after treatment: 2^12 = 4096 complete
    // sign-flip permutations (B = 0 requests them all).
    let ds = SynthConfig::new(600, LabelDesign::Paired { pairs: 12 })
        .diff_fraction(0.05)
        .effect_size(1.5)
        .seed(1003)
        .generate();
    let opts = PmaxtOptions::default()
        .test(TestMethod::PairT)
        .permutations(0);
    let result = mt_maxt(&ds.matrix, &ds.labels, &opts).expect("run");
    println!("complete enumeration used B = {}", result.b_used);
    summarize("paired-t", &result, Some(&ds.truth));

    // Non-parametric variant: rank-transform first.
    let nonpara = mt_maxt(
        &ds.matrix,
        &ds.labels,
        &PmaxtOptions::default()
            .test(TestMethod::PairT)
            .permutations(0)
            .nonpara(true),
    )
    .expect("run");
    summarize("paired-t nonpara", &nonpara, Some(&ds.truth));
}

fn main() {
    two_class_with_preprocessing();
    println!();
    multi_class_f();
    println!();
    paired_design();
}
