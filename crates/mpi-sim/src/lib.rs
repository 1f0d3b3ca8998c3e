//! # mpi-sim — an in-process SPMD message-passing substrate
//!
//! The SPRINT paper parallelizes `mt.maxT` with MPI. This crate provides the
//! subset of MPI semantics that `pmaxT` actually uses — ranks, point-to-point
//! send/receive with tags, and the collectives broadcast, barrier, gather and
//! reduce (plus `allreduce`, the paper's Step-3 synchronization) — with ranks
//! running as OS threads inside one process and messages travelling over
//! channels.
//!
//! [`Communicator`] is the only communicator. Its collectives are typed:
//! a broadcast moves the value itself (a parameter struct, a whole
//! `Matrix`), cloned once per tree edge, so no rank body needs a byte codec.
//!
//! The substitution is documented in `DESIGN.md`: the algorithmic structure of
//! the parallel permutation test (who talks to whom, in which order, with
//! which data) is identical whether ranks are MPI processes on a Cray XT or
//! threads here. Collectives are implemented as real message exchanges
//! (binomial trees, dissemination barrier), not shortcuts through shared
//! memory, so message counts and orderings match a classic MPI implementation.
//!
//! ## Quick example
//!
//! ```
//! use mpi_sim::Universe;
//!
//! // Four ranks each contribute rank*2; the root learns the sum.
//! let results = Universe::run(4, |comm| {
//!     let local = (comm.rank() * 2) as u64;
//!     comm.reduce(0, local, |a, b| a + b).unwrap()
//! })
//! .unwrap();
//! assert_eq!(results[0], Some(0 + 2 + 4 + 6));
//! assert!(results[1..].iter().all(|r| r.is_none()));
//! ```

mod comm;
mod envelope;
mod error;
mod mesh;
mod timer;
mod universe;

pub use comm::{Communicator, MessageStats};
pub use error::{CommError, CommResult};
pub use timer::{SectionProfile, SectionTimer};
pub use universe::{Universe, UniverseError};

/// The rank of the master process. SPRINT fixes the master at rank 0.
pub const MASTER: usize = 0;
