//! Shared harness for the equivalence suites — since the trace
//! subsystem moved into `esg-sim` (`esg_sim::trace`), this is a thin
//! re-export of the public API.
//!
//! The golden control-plane digests hash the exact string
//! [`Traced::trace`] renders; `esg_sim::trace::render_record` is the
//! single owner of that format (and `esg_sim::trace` of the [`fnv64`]
//! primitive), so the suites, the trace recorder, and
//! `TraceReplay::run_digest` all fingerprint a run identically — a
//! format tweak moves every consumer in lockstep instead of letting
//! copies drift apart.
#![allow(unused_imports)] // each test crate uses a subset of this module

pub use esg::sim::{fnv64, Traced};
