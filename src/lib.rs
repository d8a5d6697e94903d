//! Root package of the VITAL reproduction workspace.
//!
//! It exports nothing: the examples and integration tests beside it depend
//! on the member crates (`vital`, `fingerprint`, `sim_radio`, `baselines`,
//! …) directly, as library users should. The package exists so
//! `examples/` and `tests/` have a manifest to build under.

#![forbid(unsafe_code)]
