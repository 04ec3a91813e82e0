//! The agg box: a middlebox node executing application aggregation
//! functions (Section 3.2.1).

pub mod core;
pub mod runtime;
pub mod scheduler;
pub mod tree;

pub use crate::fanin::Route;
pub use runtime::{AggBox, AggBoxConfig, BoxSnapshot, BoxStats};
