//! # sprint — the framework layer of the SPRINT architecture
//!
//! Reproduces Figure 1 of the paper: all ranks instantiate the runtime and
//! the function library; workers enter a waiting loop; the master evaluates
//! the user's script, and each call to a parallel function broadcasts a
//! function code so the workers collectively evaluate it and return results
//! through a reduction.
//!
//! On top of the framework this crate implements all three of the paper's
//! §6 future-work items:
//!
//! 1. [`checkpoint`] — fault tolerance: periodic checkpointing of partial
//!    counts with bit-identical resume;
//! 2. [`transpose`] — in-place non-square array transposition for ingesting
//!    column-major (R-layout) matrices without a second allocation;
//! 3. [`marshal`] — integer-coded parameter broadcast replacing string
//!    options (with the string codec retained for the ablation bench).
//!
//! ```
//! use sprint::framework::Sprint;
//! use sprint::driver::{standard_registry, call_pmaxt};
//! use sprint_core::matrix::Matrix;
//! use sprint_core::options::PmaxtOptions;
//!
//! let data = Matrix::from_vec(2, 6, vec![
//!     1.0, 2.0, 1.5, 9.0, 10.0, 9.5,
//!     5.0, 4.0, 6.0, 5.5, 4.5, 5.2,
//! ]).unwrap();
//! let labels = vec![0u8, 0, 0, 1, 1, 1];
//! let opts = PmaxtOptions::default().permutations(0);
//!
//! // "mpiexec -n 3":
//! let result = Sprint::new(standard_registry())
//!     .run(3, move |master| call_pmaxt(master, data, &labels, &opts))
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(result.b_used, 20);
//! ```

pub mod args;
pub mod checkpoint;
pub mod driver;
pub mod framework;
pub mod marshal;
pub mod pcor;
pub mod registry;
pub mod transpose;

pub use args::{Args, Value};
pub use framework::{Master, Sprint};
pub use registry::Registry;
