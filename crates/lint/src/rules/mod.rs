//! The rules (see the crate docs for the catalog): panic-freedom, and
//! hygiene — lock order, the channel ban, `unsafe` confinement and the
//! guard rails.

pub mod hygiene;
pub mod panic_freedom;
