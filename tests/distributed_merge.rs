//! Distributed span merging, checked from first principles: however `0..B`
//! is split across a roster — any participant count, any span size, surplus
//! idle peers included — accumulating the spans independently and merging
//! their exceedance counts in any order reproduces the serial `mt.maxT`
//! result bit for bit, for every statistic and sidedness, and so does the
//! SPMD body on the in-process communicator.
//!
//! This is the correctness core of jobd's cross-daemon sharding: the
//! coordinator only ever executes `span_plan` + `slice_spans` spans (locally
//! or on peers) and sums `u64` counts, so these properties are exactly what
//! make a sharded job bitwise-identical to a serial one.

use std::sync::Mutex;

use mpi_sim::SectionTimer;

use proptest::prelude::*;

use sprint_core::admit::{admit, Entry};
use sprint_core::error::Error as CoreError;
use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::{accumulate_chunk, EngineConfig};
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::maxt::{CountAccumulator, MaxTContext};
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_core::perm::resolve_permutation_count;
use sprint_core::pmaxt::{chunk_for_rank, pmaxt_rank, span_plan, MasterInput};
use sprint_core::side::Side;
use sprint_core::stats::prepare_matrix;
use sprint_jobd::shard::slice_spans;

/// Labels with the shape each statistic requires, over eight columns.
fn labels_for(method: TestMethod) -> Vec<u8> {
    match method {
        TestMethod::F => vec![0, 0, 1, 1, 2, 2, 2, 2],
        TestMethod::PairT => vec![0, 1, 0, 1, 1, 0, 0, 1],
        TestMethod::BlockF => vec![0, 1, 1, 0, 0, 1, 1, 0],
        _ => vec![0, 0, 0, 0, 1, 1, 1, 1],
    }
}

fn synth_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut v = Vec::with_capacity(rows * cols);
    for g in 0..rows {
        let shift = if g % 4 == 0 { 1.5 } else { 0.0 };
        for c in 0..cols {
            let bump = if c >= cols / 2 { shift } else { 0.0 };
            v.push(next() * 4.0 - 2.0 + bump);
        }
    }
    Matrix::from_vec(rows, cols, v).unwrap()
}

/// Accumulate every span of an arbitrary roster plan independently, merge
/// the counts in a deliberately scrambled order, finalize, and compare with
/// the serial engine.
fn check_split(
    method: TestMethod,
    side: Side,
    genes: usize,
    b: u64,
    participants: usize,
    span: u64,
    seed: u64,
) -> Result<(), String> {
    let classlabel = labels_for(method);
    let matrix = synth_matrix(genes, classlabel.len(), seed);
    let opts = PmaxtOptions {
        test: method,
        side,
        b,
        seed,
        ..PmaxtOptions::default()
    };
    let serial = mt_maxt(&matrix, &classlabel, &opts).unwrap();

    let labels = ClassLabels::new(classlabel.clone(), method).unwrap();
    let b_resolved = resolve_permutation_count(&labels, &opts).unwrap();
    let plan = span_plan(b_resolved, participants).unwrap();

    // The plan tiles 0..B contiguously in participant order; surplus
    // participants get explicit empty spans at (B, 0).
    let mut cursor = 0;
    for &(s, t) in &plan {
        if t == 0 {
            prop_assert_eq!(s, b_resolved, "idle participants park at (B, 0)");
        } else {
            prop_assert_eq!(s, cursor, "spans must tile contiguously");
            cursor += t;
        }
    }
    prop_assert_eq!(cursor, b_resolved, "the plan must cover all of 0..B");

    let prepared = prepare_matrix(&matrix, opts.test, opts.nonpara).into_owned();
    let ctx = MaxTContext::with_scorer(
        &prepared,
        &labels,
        opts.test,
        opts.side,
        opts.kernel,
        opts.precision,
    );
    let mut spans: Vec<(u64, u64)> = plan
        .iter()
        .flat_map(|&(s, t)| slice_spans(s, t, span))
        .collect();
    // Scramble the merge order: exceedance counts are exact integers, so
    // merging is commutative and any completion order is the same answer.
    if spans.len() > 1 {
        let pivot = (seed as usize % (spans.len() - 1)) + 1;
        spans.rotate_left(pivot);
    }
    let mut acc = CountAccumulator::new(prepared.rows());
    for &(s, t) in &spans {
        let run = accumulate_chunk(
            &ctx,
            &labels,
            &opts,
            b_resolved,
            s,
            t,
            EngineConfig::serial(),
        )
        .unwrap();
        acc.merge(&run.counts);
    }
    let merged = ctx.finalize(&acc);
    prop_assert_eq!(
        merged,
        serial,
        "merged spans must be bitwise-identical to serial \
         ({:?}/{:?}, B={}, {} participants, span {})",
        method,
        side,
        b_resolved,
        participants,
        span
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary geometry, all six statistics × three sides each case.
    #[test]
    fn arbitrary_peer_splits_merge_bitwise_identical(
        genes in 2usize..6,
        b in 1u64..40,
        participants in 1usize..7,
        span in 1u64..9,
        seed in 0u64..1000,
    ) {
        for method in TestMethod::ALL {
            for side in [Side::Abs, Side::Upper, Side::Lower] {
                check_split(method, side, genes, b, participants, span, seed)?;
            }
        }
    }

    /// Rosters larger than B are tolerated by `span_plan` (surplus idle
    /// peers), but `chunk_for_rank` — the strict SPMD split — must reject
    /// them as a resource-allocation error.
    #[test]
    fn surplus_ranks_rejected_surplus_peers_idle(
        b in 1u64..20,
        extra in 1u64..10,
    ) {
        let size = b + extra;
        match chunk_for_rank(b, size, 0) {
            Err(CoreError::RanksExceedPermutations { b: eb, ranks }) => {
                prop_assert_eq!(eb, b);
                prop_assert_eq!(ranks, size);
            }
            other => prop_assert!(false, "expected RanksExceedPermutations, got {:?}", other),
        }
        let plan = span_plan(b, size as usize).unwrap();
        prop_assert_eq!(plan.len(), size as usize);
        let active: u64 = plan.iter().map(|&(_, t)| t).sum();
        prop_assert_eq!(active, b, "active spans still cover 0..B");
        for &(s, t) in plan.iter().skip(b as usize) {
            prop_assert_eq!((s, t), (b, 0), "surplus peers are explicitly idle");
        }
    }

    /// `slice_spans` re-tiles a participant's range exactly, whatever the
    /// span size — uneven last spans included.
    #[test]
    fn slice_spans_tiles_exactly(
        start in 0u64..1000,
        take in 0u64..500,
        span in 1u64..64,
    ) {
        let spans = slice_spans(start, take, span);
        let mut cursor = start;
        for &(s, t) in &spans {
            prop_assert_eq!(s, cursor);
            prop_assert!(t >= 1 && t <= span);
            cursor += t;
        }
        prop_assert_eq!(cursor, start + take);
        // Every span but the last is full-size.
        for &(_, t) in spans.iter().rev().skip(1) {
            prop_assert_eq!(t, span);
        }
    }
}

/// The SPMD body on three in-process ranks (`Universe`) produces results
/// bitwise-identical to serial for every statistic and sidedness.
#[test]
fn spmd_body_bitwise_identical_to_serial() {
    for method in TestMethod::ALL {
        for side in [Side::Abs, Side::Upper, Side::Lower] {
            let classlabel = labels_for(method);
            let matrix = synth_matrix(24, classlabel.len(), 5_000 + method as u64);
            let opts = PmaxtOptions {
                test: method,
                side,
                b: 120,
                seed: 31,
                ..PmaxtOptions::default()
            };
            let serial = mt_maxt(&matrix, &classlabel, &opts).unwrap();
            let admitted = admit(matrix, &classlabel, &opts, Entry::Spmd { ranks: 3 }).unwrap();
            let input = Mutex::new(Some(MasterInput::new(SectionTimer::new(), admitted)));

            let spmd = mpi_sim::Universe::run(3, move |comm| {
                let input = comm.is_master().then(|| input.lock().unwrap().take());
                pmaxt_rank(comm, input.flatten())
            })
            .unwrap()
            .into_iter()
            .next()
            .flatten()
            .expect("master rank produces the result")
            .0;
            assert_eq!(
                spmd, serial,
                "{method:?}/{side:?}: SPMD body must match serial"
            );
        }
    }
}
