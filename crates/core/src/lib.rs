//! # sprint-core — permutation testing for multiple hypotheses
//!
//! A from-scratch Rust reproduction of the permutation testing function of
//! the SPRINT R package: the serial `mt.maxT` (Westfall–Young step-down maxT
//! adjusted p-values, as in Bioconductor's `multtest`) and its parallel
//! counterpart `pmaxT` described in
//!
//! > Petrou, Sloan, Mewissen, Forster, Piotrowski, Dobrzelecki, Ghazal, Trew,
//! > Hill — *"Optimization of a parallel permutation testing function for the
//! > SPRINT R package"*, HPDC/ECMLS 2010 (extended in CCPE 23(17), 2011).
//!
//! ## What's here
//!
//! - [`admit`] — admission: the one place every entry point checks a run
//!   (labels, NA, B, option combinations) and fixes its engine geometry and
//!   memory budget before it runs;
//! - [`stats`] — the six test statistics (`t`, `t.equalvar`, `wilcoxon`,
//!   `f`, `pairt`, `blockf`) with NA exclusion and the non-parametric rank
//!   transform;
//! - [`perm`] — random (Monte-Carlo) and complete permutation generators,
//!   all supporting skip-ahead so parallel ranks can jump to their chunk;
//! - [`maxt`] — the step-down maxT kernel, count accumulators and the serial
//!   reference [`maxt::serial::mt_maxt`];
//! - [`maxt::engine`] — the batched, gene-tiled, multi-threaded execution
//!   engine every driver dispatches through (deterministic for any
//!   thread/batch geometry);
//! - [`pmaxt`] — the parallel driver over the `mpi-sim` SPMD substrate,
//!   with the paper's five-section wall-clock profile.
//!
//! ## Quick start
//!
//! ```
//! use sprint_core::prelude::*;
//!
//! // 2 genes x 6 samples, two classes of three.
//! let data = Matrix::from_vec(2, 6, vec![
//!     1.0, 2.0, 1.5, 9.0, 10.0, 9.5,   // differentially expressed
//!     5.0, 4.0, 6.0, 5.5, 4.5, 5.2,    // flat
//! ]).unwrap();
//! let labels = [0, 0, 0, 1, 1, 1];
//!
//! // Complete enumeration (B = 0 requests all C(6,3) = 20 relabellings).
//! let opts = PmaxtOptions::default().permutations(0);
//!
//! // Serial reference…
//! let serial = mt_maxt(&data, &labels, &opts).unwrap();
//! // …and the parallel version on 3 ranks: bit-identical results.
//! let parallel = pmaxt(&data, &labels, &opts, 3).unwrap();
//! assert_eq!(parallel.result, serial);
//! assert!(serial.adjp[0] < serial.adjp[1]);
//! ```

pub mod adaptive;
pub mod admit;
pub mod boot;
pub mod digest;
pub mod error;
pub mod labels;
pub mod matrix;
pub mod maxt;
pub mod options;
pub mod perm;
pub mod pmaxt;
pub mod rng;
pub mod side;
pub mod stats;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::adaptive::{adaptive_maxt, AdaptiveConfig, AdaptiveOutcome, AdaptiveReport};
    pub use crate::error::{Error, Result};
    pub use crate::labels::{ClassLabels, Design};
    pub use crate::matrix::Matrix;
    pub use crate::maxt::serial::mt_maxt;
    pub use crate::maxt::{maxt_with_config, EngineConfig};
    pub use crate::maxt::{MaxTResult, MaxTRow};
    pub use crate::options::{
        KernelChoice, Mode, PmaxtOptions, Precision, SamplingMode, TestMethod,
    };
    pub use crate::pmaxt::{pmaxt, PmaxtRun};
    pub use crate::side::Side;
}
