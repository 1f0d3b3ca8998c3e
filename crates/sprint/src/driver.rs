//! The `pmaxT` entry in the SPRINT function library, plus a typed script-side
//! wrapper — the last piece of Figure 1: an R user's `pmaxT(X, classlabel,
//! …)` call becomes a function-code broadcast that wakes the workers, which
//! then collectively evaluate the C-level implementation.

use std::any::Any;

use mpi_sim::SectionTimer;
use sprint_core::admit::{admit, Entry};
use sprint_core::error::Result;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::MaxTResult;
use sprint_core::options::PmaxtOptions;
use sprint_core::pmaxt::{pmaxt_rank, sections, MasterInput};

use crate::args::Args;
use crate::framework::Master;
use crate::registry::Registry;

/// Payload key under which the master's script stages the admitted run.
pub const PMAXT_INPUT_KEY: &str = "pmaxt:input";

/// Register the `pmaxt` parallel function. Returns its function code.
///
/// The command broadcast carries only the function code, as in Figure 1:
/// it wakes the workers. The master's script stages the run it admitted,
/// matrix included, and `pmaxt`'s own "broadcast parameters" and "create
/// data" broadcasts hand both to the workers, exactly as in the paper.
pub fn register_pmaxt(registry: &mut Registry) -> u32 {
    registry.register("pmaxt", |ctx, _args| {
        let input: Option<MasterInput> = ctx.comm.is_master().then(|| {
            ctx.payload
                .take(PMAXT_INPUT_KEY)
                .expect("script must stage the admitted run before calling pmaxt")
        });
        pmaxt_rank(ctx.comm, input)
            .map(|(result, _profile, _ranks)| Box::new(result) as Box<dyn Any + Send>)
    })
}

/// A registry pre-loaded with the full SPRINT function library of this
/// reproduction: `pmaxt` (this paper) and `pcor` (the framework's original
/// correlation function).
pub fn standard_registry() -> Registry {
    let mut reg = Registry::new();
    register_pmaxt(&mut reg);
    crate::pcor::register_pcor(&mut reg);
    reg
}

/// Script-side typed wrapper: run `pmaxT` through the framework.
///
/// This is the Rust spelling of the R call
/// `pmaxT(X, classlabel, test=…, side=…, fixed.seed.sampling=…, B=…)`.
/// The master admits the run once ([`sprint_core::admit`], its
/// pre-processing) before the command broadcast wakes the workers, so a
/// refused run returns its typed error and no rank starts a body that
/// cannot run. The matrix is handed over, not copied, and the command
/// carries no arguments: every rank takes the run from `pmaxt`'s parameter
/// broadcast.
pub fn call_pmaxt(
    master: &Master<'_>,
    data: Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
) -> Result<MaxTResult> {
    let mut timer = SectionTimer::new();
    let entry = Entry::Spmd {
        ranks: master.ranks(),
    };
    let admitted = timer.time(sections::PRE_PROCESSING, || {
        admit(data, classlabel, opts, entry)
    })?;
    master.stage(PMAXT_INPUT_KEY, MasterInput::new(timer, admitted));
    Ok(*master
        .call("pmaxt", Args::new())
        .downcast::<MaxTResult>()
        .expect("pmaxt returns a MaxTResult"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Sprint;
    use sprint_core::maxt::serial::mt_maxt;
    use sprint_core::options::TestMethod;

    fn data_and_labels() -> (Matrix, Vec<u8>) {
        let data = Matrix::from_vec(
            3,
            6,
            vec![
                1.0, 2.0, 1.5, 9.0, 10.0, 9.5, 5.0, 4.0, 6.0, 5.5, 4.5, 5.2, 2.0, 8.0, 3.0, 7.0,
                2.5, 7.5,
            ],
        )
        .unwrap();
        (data, vec![0u8, 0, 0, 1, 1, 1])
    }

    #[test]
    fn framework_pmaxt_equals_serial() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default().permutations(40);
        let serial = mt_maxt(&data, &labels, &opts).unwrap();
        for ranks in [1usize, 2, 4] {
            let d = data.clone();
            let l = labels.clone();
            let o = opts.clone();
            let result = Sprint::new(standard_registry())
                .run(ranks, move |master| call_pmaxt(master, d, &l, &o))
                .unwrap()
                .unwrap();
            assert_eq!(result, serial, "ranks={ranks}");
        }
    }

    #[test]
    fn script_can_run_multiple_analyses() {
        let (data, labels) = data_and_labels();
        let out = Sprint::new(standard_registry())
            .run(3, move |master| {
                let a = call_pmaxt(
                    master,
                    data.clone(),
                    &labels,
                    &PmaxtOptions::default().permutations(20),
                )
                .unwrap();
                let b = call_pmaxt(
                    master,
                    data.clone(),
                    &labels,
                    &PmaxtOptions::default()
                        .test(TestMethod::Wilcoxon)
                        .permutations(20),
                )
                .unwrap();
                (a, b)
            })
            .unwrap();
        assert_eq!(out.0.b_used, 20);
        assert_eq!(out.1.b_used, 20);
        assert_ne!(out.0.teststat, out.1.teststat);
    }

    #[test]
    fn complete_enumeration_through_framework() {
        let (data, labels) = data_and_labels();
        let opts = PmaxtOptions::default().permutations(0);
        let serial = mt_maxt(&data, &labels, &opts).unwrap();
        let d = data;
        let l = labels;
        let result = Sprint::new(standard_registry())
            .run(2, move |master| call_pmaxt(master, d, &l, &opts))
            .unwrap()
            .unwrap();
        assert_eq!(result, serial);
        assert_eq!(result.b_used, 20);
    }
}
