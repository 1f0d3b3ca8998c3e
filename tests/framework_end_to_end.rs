//! End-to-end integration through every layer: synthetic data → TSV IO →
//! column-major ingestion (in-place transpose) → SPRINT framework dispatch →
//! parallel pmaxT → checkpointed rerun — all agreeing with the serial
//! reference.

use microarray::io::{read_dataset, write_dataset};
use microarray::prelude::*;
use sprint::checkpoint::run_with_checkpoints;
use sprint::driver::{call_pmaxt, standard_registry};
use sprint::framework::Sprint;
use sprint::transpose::{matrix_from_column_major, transpose_copy};
use sprint_core::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sprint-e2e-{}-{name}", std::process::id()))
}

#[test]
fn pipeline_from_disk_through_framework() {
    // 1. Generate and persist a dataset.
    let ds = SynthConfig::two_class(80, 7, 7)
        .diff_fraction(0.1)
        .effect_size(2.5)
        .na_rate(0.03)
        .seed(777)
        .generate();
    let path = tmp("pipeline.tsv");
    write_dataset(&path, &ds.matrix, &ds.labels).unwrap();

    // 2. Load it back (a different "session").
    let (matrix, labels) = read_dataset(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(matrix.rows(), 80);

    // 3. Serial reference.
    let opts = PmaxtOptions::default().permutations(200);
    let serial = mt_maxt(&matrix, &labels, &opts).unwrap();

    // 4. Through the SPRINT framework on 3 ranks.
    let (m2, l2, o2) = (matrix.clone(), labels.clone(), opts.clone());
    let framework_result = Sprint::new(standard_registry())
        .run(3, move |master| call_pmaxt(master, m2, &l2, &o2))
        .unwrap()
        .unwrap();
    assert_eq!(framework_result, serial);

    // 5. Direct parallel driver agrees too.
    let par = pmaxt(&matrix, &labels, &opts, 5).unwrap();
    assert_eq!(par.result, serial);
}

#[test]
fn column_major_ingestion_matches_row_major() {
    let ds = SynthConfig::two_class(50, 6, 6).seed(88).generate();
    // Simulate R handing us the matrix column-major.
    let cm = transpose_copy(ds.matrix.as_slice(), ds.matrix.rows(), ds.matrix.cols());
    let rebuilt = matrix_from_column_major(ds.matrix.rows(), ds.matrix.cols(), cm).unwrap();
    assert_eq!(rebuilt, ds.matrix);
    // And the analysis is identical either way.
    let opts = PmaxtOptions::default().permutations(100);
    let a = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
    let b = mt_maxt(&rebuilt, &ds.labels, &opts).unwrap();
    assert_eq!(a, b);
}

#[test]
fn checkpointed_run_agrees_with_framework_run() {
    let ds = SynthConfig::two_class(40, 6, 6).seed(99).generate();
    let opts = PmaxtOptions::default().permutations(120);
    let serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();

    // Interrupted + resumed checkpoint run.
    let path = tmp("agree.ckpt");
    let (p1, _) = run_with_checkpoints(&ds.matrix, &ds.labels, &opts, &path, 25, Some(60)).unwrap();
    assert!(p1.is_none());
    let (p2, info) = run_with_checkpoints(&ds.matrix, &ds.labels, &opts, &path, 25, None).unwrap();
    assert_eq!(info.resumed_from, 60);
    assert_eq!(p2.unwrap(), serial);

    // Framework run.
    let (m, l, o) = (ds.matrix.clone(), ds.labels.clone(), opts.clone());
    let fw = Sprint::new(standard_registry())
        .run(2, move |master| call_pmaxt(master, m, &l, &o))
        .unwrap()
        .unwrap();
    assert_eq!(fw, serial);
}

#[test]
fn filtering_then_testing_keeps_index_mapping() {
    // The mt.maxT "index" column must refer to rows of the *filtered* matrix;
    // verify a full workflow keeps the bookkeeping straight.
    let ds = SynthConfig::two_class(300, 8, 8)
        .diff_fraction(0.1)
        .effect_size(3.0)
        .seed(1234)
        .generate();
    let filtered = filter_non_expressed(&ds.matrix, 6.5, 0.0);
    let result = mt_maxt(
        &filtered.matrix,
        &ds.labels,
        &PmaxtOptions::default().permutations(500),
    )
    .unwrap();
    // Map filtered indices back to original gene ids and check the top genes
    // are mostly planted ones.
    let top: Vec<usize> = result
        .by_significance()
        .take(10)
        .map(|row| filtered.kept[row.index])
        .collect();
    let planted = top.iter().filter(|&&orig| ds.truth[orig]).count();
    assert!(planted >= 7, "top-10 contains only {planted} planted genes");
}

#[test]
fn ten_rank_framework_stress() {
    let ds = SynthConfig::two_class(30, 5, 5).seed(4321).generate();
    let opts = PmaxtOptions::default().permutations(97);
    let serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
    let (m, l, o) = (ds.matrix.clone(), ds.labels.clone(), opts.clone());
    let fw = Sprint::new(standard_registry())
        .run(10, move |master| call_pmaxt(master, m, &l, &o))
        .unwrap()
        .unwrap();
    assert_eq!(fw, serial);
}

#[test]
fn framework_refuses_bad_input_with_a_typed_error_and_no_rank_panics() {
    // Five labels for six columns, and a bootstrap workload pmaxT does not
    // run: the master admits each call before the command broadcast, so no
    // worker starts a body that cannot run, and the script goes on calling.
    let ds = SynthConfig::two_class(20, 3, 3).seed(5).generate();
    let opts = PmaxtOptions::default().permutations(50);
    let serial = mt_maxt(&ds.matrix, &ds.labels, &opts).unwrap();
    let (m, l, o) = (ds.matrix.clone(), ds.labels.clone(), opts.clone());
    let (short, boot, after) = Sprint::new(standard_registry())
        .run(3, move |master| {
            let short = call_pmaxt(master, m.clone(), &l[..5], &o);
            let boot_opts = o
                .clone()
                .workload(sprint_core::options::Workload::Bootstrap);
            let boot = call_pmaxt(master, m.clone(), &l, &boot_opts);
            (short, boot, call_pmaxt(master, m, &l, &o))
        })
        .expect("no rank panics");
    assert!(matches!(short, Err(Error::BadLabels(_))), "{short:?}");
    assert!(
        matches!(
            boot,
            Err(Error::BadOption {
                param: "workload",
                ..
            })
        ),
        "{boot:?}"
    );
    assert_eq!(after.unwrap(), serial);
}
