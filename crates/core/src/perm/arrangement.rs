//! A run's draw count under its workload, and its stream.
//!
//! Permutation and bootstrap runs draw from the same
//! [`ResamplingStream`] seam; only the draw count differs: bootstrap has no
//! complete enumeration to fall back to for `B = 0`. What a draw means, a
//! label vector or a column-index vector, follows from the workload
//! (see [`Rule`](super::random::Rule)).

use super::{build_generator, ResamplingStream};
use crate::error::{Error, Result};
use crate::labels::ClassLabels;
use crate::options::{PmaxtOptions, Workload};

/// A run's stream, as [`build_stream`] returns it.
pub struct StreamPlan {
    /// The deterministic draw stream.
    pub stream: Box<dyn ResamplingStream>,
}

/// Resolve the effective draw count for a run under its workload: permutation
/// runs go through [`super::resolve_permutation_count`] (complete counts for
/// `B = 0`), bootstrap runs require an explicit replicate count `B ≥ 2` —
/// there is no "complete" bootstrap enumeration to fall back to.
pub fn resolve_draw_count(labels: &ClassLabels, opts: &PmaxtOptions) -> Result<u64> {
    match opts.workload {
        Workload::Pmaxt => super::resolve_permutation_count(labels, opts),
        Workload::Bootstrap => {
            if opts.b < 2 {
                return Err(Error::BadOption {
                    param: "b",
                    value: format!(
                        "{} (bootstrap needs an explicit replicate count B >= 2; \
                         complete enumeration does not exist for with-replacement draws)",
                        opts.b
                    ),
                });
            }
            Ok(opts.b)
        }
    }
}

/// [`build_generator`]'s stream, for callers that read
/// `build_stream(..)?.stream`.
pub fn build_stream(
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b_resolved: u64,
) -> Result<StreamPlan> {
    Ok(StreamPlan {
        stream: build_generator(labels, opts, b_resolved)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TestMethod;

    #[test]
    fn bootstrap_refuses_complete_and_tiny_b() {
        let labels = ClassLabels::new(vec![0, 0, 1, 1], TestMethod::T).unwrap();
        let o = PmaxtOptions::default().workload(Workload::Bootstrap);
        assert_eq!(
            resolve_draw_count(&labels, &o.clone().permutations(8)).unwrap(),
            8
        );
        for b in [0u64, 1] {
            match resolve_draw_count(&labels, &o.clone().permutations(b)) {
                Err(Error::BadOption { param: "b", .. }) => {}
                other => panic!("expected BadOption for b={b}, got {other:?}"),
            }
        }
    }
}
