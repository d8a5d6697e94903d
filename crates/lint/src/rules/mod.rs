//! The four rule classes (see the crate docs for the catalog).

pub mod hot_path;
pub mod hygiene;
pub mod lock_order;
pub mod panic_freedom;
